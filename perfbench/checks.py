"""Output checks for benchmark jobs.

``check_step(kind, argv, rc, stdout, stderr, refs)`` returns the list of
problems found in one process's result; an empty list means the step passed.
A step fails on a nonzero exit, a traceback on stderr, or a wrong output.
Warnings on stderr (the expected ``NonConvergenceWarning`` of the default
``verify``) are not failures.

Numbers that do not depend on the seed are compared with ``reference.json``
at relative tolerance 1e-9.  Values below 1e-12 in magnitude are roundoff
residuals whose digits depend on BLAS summation order; two such values match.

    python3 perfbench/checks.py --record   # rewrite reference.json from src/
"""
from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

REF_PATH = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9
ROUNDOFF = 1e-12
RECORDED_KINDS = ("verify_all", "conjugate", "xi", "gram")


def load_refs() -> dict:
    with open(REF_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def close(a: float, b: float) -> bool:
    if max(abs(a), abs(b)) <= ROUNDOFF:
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _compare(what: str, got: list, want: list) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} values, reference has {len(want)}"]
    return [
        f"{what}[{i}]: {g!r} differs from reference {w!r}"
        for i, (g, w) in enumerate(zip(got, want))
        if not close(g, w)
    ]


def _numbers(rows) -> list[float]:
    return [float(cell) for row in rows for cell in row]


def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.reader(lines))


def extract(kind: str, stdout: str):
    """The seed-independent numbers of a step's output, as recorded."""
    if kind == "verify_all":
        report = json.loads(stdout)
        (check,) = [
            c for c in report["suites"]["conjugate"]
            if c["name"] == "neumann_residual_monotone"
        ]
        return {"neumann_residuals": [check["value"], check["tol"]]}
    if kind in ("conjugate", "gram"):
        header, *rows = _csv_rows(stdout)
        return {"header": header, "cells": _numbers(rows)}
    if kind == "xi":
        report = json.loads(stdout)
        return {"tail_norms": [t["tail_norm"] for t in report["tail_norms"]]}
    raise ValueError(f"no recorded output for step kind {kind!r}")


def _expected_jumps(argv) -> int:
    """Every path splits down to single letters: total letters - components."""
    args = dict(zip(argv, argv[1:]))
    parts = [p for p in args["--init"].split(",") if p]
    if args["--spec"] == "z-splitting":
        letters = sum(abs(int(p)) for p in parts)
    else:
        letters = sum(len(p) for p in parts)
    return letters - len(parts)


def check_step(kind: str, argv, rc: int, stdout: str, stderr: str, refs: dict) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    if problems:
        return problems
    try:
        if kind in ("verify", "verify_all") and json.loads(stdout).get("passed") is not True:
            problems.append('verify report lacks "passed": true')
        if kind == "cocycle":
            rep = json.loads(stdout)
            want = _expected_jumps(list(argv))
            if rep["absorbed"] != rep["n_paths"] or rep["censored"] != 0:
                problems.append(
                    f"absorbed {rep['absorbed']} censored {rep['censored']} "
                    f"of {rep['n_paths']} paths"
                )
            bad = [j for j in rep["jump_counts"] if j != want]
            if bad or len(rep["jump_counts"]) != rep["n_paths"]:
                problems.append(f"{len(bad)} jump counts differ from {want}")
        if kind in RECORDED_KINDS:
            got, want = extract(kind, stdout), refs[kind]
            for key in got:
                if key == "header":
                    if got[key] != want[key]:
                        problems.append(f"{kind}: header {got[key]} != {want[key]}")
                else:
                    problems += _compare(f"{kind}.{key}", got[key], want[key])
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable {kind} output: {exc!r}")
    return problems


def record() -> dict:
    """Run each recorded step once from ``<checkout>/src`` and return the
    reference numbers."""
    from workloads import WORKLOADS

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    refs = {}
    for wl in WORKLOADS.values():
        for step in wl.job_steps(seed=0):
            if step.check in RECORDED_KINDS and step.check not in refs:
                out = subprocess.run(
                    [sys.executable, "-m", "qfock", *step.argv],
                    cwd=root, env=env, capture_output=True, text=True, check=True,
                ).stdout
                refs[step.check] = {"argv": " ".join(step.argv), **extract(step.check, out)}
    return refs


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    with open(REF_PATH, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
