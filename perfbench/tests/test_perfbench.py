"""Tests of the benchmark itself (not part of the qfock suite).

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# ---- self time ------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 7.0, 0),
        ("d", 6.0, 9.0, 0),  # overlaps the second "b": the union counts once
    ]
    st = tracing.self_times(spans)
    assert st["a"] == [1, pytest.approx(3.0)]
    assert st["b"] == [2, pytest.approx(2.0 + 2.0)]
    assert st["c"] == [1, pytest.approx(1.0)]
    assert st["d"] == [1, pytest.approx(3.0)]


def test_child_outside_parent_is_clipped():
    spans = [("p", 0.0, 2.0, -1), ("k", 1.5, 3.0, 0), ("k", -1.0, 0.5, 0)]
    assert tracing.self_times(spans)["p"] == [1, pytest.approx(1.0)]
    assert tracing.covered(0.0, 1.0, []) == 0.0


# ---- tracer -----------------------------------------------------------------


@pytest.fixture
def fakepkg(monkeypatch):
    """A package whose second module binds a function of the first by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) * 2\n"
        "def make_context(n):\n    return {'cache': {n: __import__('numpy').zeros(n)}}\n"
        "def _private(x):\n    return x\n",
        a.__dict__,
    )
    b.outer = a.outer
    for name, mod in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    import scipy.sparse.linalg as sla

    monkeypatch.setattr(sla, "eigsh", sla.eigsh)  # restored after the test
    return a, b


def test_tracer_wraps_every_binding(fakepkg):
    a, b = fakepkg
    tr = tracing.Tracer()
    assert tr.install("fakepkg") == 3
    assert b.outer is a.outer and a._private.__name__ == "_private"
    assert b.outer(1) == 4
    names = [tr.names[s[0]] for s in tr.spans]
    assert names == ["a.outer", "a.inner"]
    assert tr.spans[1][3] == 0  # inner's parent is outer
    assert all(s[2] >= s[1] for s in tr.spans)
    a.make_context(8)
    assert len(tr.contexts) == 1
    assert tracing.array_bytes(tr.contexts) == 8 * 8


def test_eigsh_counter_counts_and_preserves_result(fakepkg):
    import scipy.sparse.linalg as sla

    d = np.linspace(1.0, 2.0, 40)
    op = sla.LinearOperator((40, 40), matvec=lambda v: d * v, dtype=float)
    kw = dict(k=1, which="LA", v0=np.ones(40), tol=1e-11, return_eigenvectors=False)
    want = sla.eigsh(op, **kw)
    tr = tracing.Tracer()
    tr.install("fakepkg")
    got = sla.eigsh(op, **kw)
    assert got[0] == want[0]
    assert tr.lanczos_runs == 1 and tr.matvecs > 0 and tr.matvec_s > 0.0


def test_array_bytes_counts_views_once():
    base = np.zeros(100)
    holder = types.SimpleNamespace(a=base, b={"v": base[10:20]}, c=[base])
    assert tracing.array_bytes([holder]) == 800


# ---- output checks --------------------------------------------------------------


REFS = checks.load_refs()


def _csv(kind, bump=None):
    ref = REFS[kind]
    width = len(ref["header"])
    cells = list(ref["cells"])
    if bump is not None:
        cells[bump] *= 1 + 1e-6
    rows = [cells[i:i + width] for i in range(0, len(cells), width)]
    lines = [",".join(ref["header"])] + [",".join(repr(x) for x in r) for r in rows]
    return "\r\n".join(lines) + "\r\n"


def _xi(bump=None):
    norms = list(REFS["xi"]["tail_norms"])
    if bump is not None:
        norms[bump] *= 1 + 1e-6
    return json.dumps({"tail_norms": [{"Q": 5 + i, "tail_norm": v} for i, v in enumerate(norms)]})


def _verify_all(bump=False):
    value, tol = REFS["verify_all"]["neumann_residuals"]
    if bump:
        value *= 1 + 1e-6
    check = {"name": "neumann_residual_monotone", "value": value, "tol": tol, "passed": True}
    return json.dumps({"passed": True, "suites": {"conjugate": [check]}})


@pytest.mark.parametrize(
    "kind, make, bump",
    [
        ("conjugate", lambda bump: _csv("conjugate", bump), 2),  # cv_norm_1
        ("gram", lambda bump: _csv("gram", bump), 7),  # min_eig of level 1
        ("xi", _xi, 0),
        ("verify_all", lambda bump: _verify_all(bump is not None), 0),
    ],
)
def test_checker_accepts_reference_and_flags_perturbation(kind, make, bump):
    argv = REFS[kind]["argv"].split()
    assert checks.check_step(kind, argv, 0, make(None), "", REFS) == []
    flagged = checks.check_step(kind, argv, 0, make(bump), "", REFS)
    assert flagged and "differs from reference" in flagged[0]
    assert checks.check_step(kind, argv, 1, make(None), "", REFS) == ["exit code 1"]


def test_checker_stderr_rules():
    argv = REFS["xi"]["argv"].split()
    warning = "deformation.py:500: NonConvergenceWarning: rho(0.1, 2) = 1.14 >= 1\n"
    assert checks.check_step("xi", argv, 0, _xi(), warning, REFS) == []
    trace = "Traceback (most recent call last):\n  File ...\nValueError: boom\n"
    assert checks.check_step("xi", argv, 0, _xi(), trace, REFS) == [
        "traceback on stderr: ValueError: boom"
    ]
    failed = json.dumps({"passed": False})
    assert checks.check_step("verify", argv, 0, failed, "", REFS)


def test_checker_cocycle_invariants():
    argv = "cocycle-sim --spec x.json --init abbab,bba --paths 3 --seed 0".split()
    rep = {"n_paths": 3, "absorbed": 3, "censored": 0, "jump_counts": [6, 6, 6]}
    assert checks.check_step("cocycle", argv, 0, json.dumps(rep), "", REFS) == []
    assert checks.check_step("cocycle", argv, 0, json.dumps({**rep, "jump_counts": [6, 5, 6]}), "", REFS)
    assert checks.check_step("cocycle", argv, 0, json.dumps({**rep, "absorbed": 2, "censored": 1}), "", REFS)
    z = "cocycle-sim --spec z-splitting --init 12".split()
    assert checks._expected_jumps(z) == 11


# ---- BENCHMARK.json and end to end ---------------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_one_job(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
