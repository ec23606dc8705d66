"""qfock benchmark: closed loop, one client, one fresh process per command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports qfock from ``src/``.  Each job
runs the workload's qfock CLI commands one after another, each as a fresh
process, and the next job starts only after the previous one has ended.

``--trace 0`` times a few bare set-ups, then runs jobs for about S seconds
and reports the end-to-end metrics.  ``--trace 1`` runs one untraced job, two
traced jobs (their call and matvec counts must agree exactly) and one job
with BLAS limited to one thread, and reports the per-layer metrics.

Every process's output is checked (``checks.py``).  Human-readable lines come
first; the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS, Step

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
HARD_LIMIT_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "job_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics: the traced functions whose call counts and self times are
# reported, then the derived ones
CALLS = [
    "symgroup.pq_direct", "fock.gram", "fock.q_inner", "operators.wick_matrix",
    "operators.op_norm", "deformation.doubled_op_norm", "deformation.lr_apply",
    "deformation.xi_inverse_neumann", "derivations.derive", "derivations.dq_star",
    "cocycle.transitions", "cocycle.rate", "cocycle.cocycle_value",
]
SELF = [
    "symgroup.pq_direct", "fock.gram", "fock.metric", "fock.q_inner",
    "operators.wick_matrix", "operators.op_norm", "operators.left_wick_stack",
    "operators.right_wick_stack", "operators.adjoint", "deformation.doubled_op_norm",
    "deformation.lr_apply", "deformation.xi_inverse_neumann", "deformation.xi_as_hs",
    "derivations.derive", "derivations.dq_star", "derivations.vector_to_poly",
    "cocycle.simulate", "cli.main",
]
MODULES = ["symgroup", "fock", "operators", "deformation", "derivations", "cocycle", "cli"]
PER_LAYER = {
    **{f"{n}.calls": "count" for n in CALLS},
    **{f"{n}.self_s": "s" for n in SELF},
    **{f"{m}.self_s": "s" for m in MODULES},
    **{f"{m}.share": "ratio" for m in MODULES},
    "fock.ctx_cache_mb": "MB",
    "deformation.lanczos.runs": "count",
    "deformation.lanczos.matvecs": "count",
    "deformation.lanczos.matvec_ms": "ms",
    "cocycle.memo_hit_ratio": "ratio",
    "trace_overhead_frac": "ratio",
    "blas1_job_s": "s",
}


@dataclass
class Proc:
    step: Step | None
    wall_s: float
    setup_s: float | None
    cpu_s: float
    maxrss_mb: float
    stdout: str
    problems: list[str]
    ready: dict
    trace: dict | None


@dataclass
class Job:
    procs: list[Proc]
    wall_s: float

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def failed(self) -> bool:
        return any(p.problems for p in self.procs)


class Runner:
    """Launches job processes; owns the scratch directory and kills any live
    child on exit."""

    def __init__(self, root: Path):
        self.root = root
        self.start = time.monotonic()
        self.tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        self.refs = checks.load_refs()
        self.child: subprocess.Popen | None = None
        self.waiter: threading.Thread | None = None
        self.count = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.child is not None:  # interrupted while a process runs
            self.child.kill()
            self.waiter.join()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def launch(self, step: Step | None, job_id: int = 0, trace: bool = False,
               env_extra: dict | None = None) -> Proc:
        """Run one process to its end; ``step=None`` is a bare set-up probe."""
        self.count += 1
        base = self.tmp / str(self.count)
        ready, out, err, trace_file = (base.with_suffix(s) for s in (".ready", ".out", ".err", ".trace"))
        cmd = [sys.executable, str(HERE / "job.py"), "--ready", str(ready)]
        if step is None:
            cmd.append("--probe")
        if trace:
            cmd += ["--trace", str(trace_file), "--job", str(job_id)]
        if step is not None:
            cmd += ["--", *step.argv]
        env = dict(self.env, **(env_extra or {}))
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.monotonic()
            self.child = subprocess.Popen(cmd, cwd=self.root, env=env, stdout=fo, stderr=fe)
            rc, ru, t1, timed_out = self._wait(self.child)
        stdout = out.read_text(encoding="utf-8", errors="replace")
        stderr = err.read_text(encoding="utf-8", errors="replace")
        info = json.loads(ready.read_text()) if ready.exists() else {}
        problems = ["timed out"] if timed_out else []
        if not info.get("qfock", "").startswith(str(self.root / "src")):
            problems.append(f"qfock not imported from src/: {info.get('qfock')}")
        if step is not None:
            problems += checks.check_step(step.check, step.argv, rc, stdout, stderr, self.refs)
        elif rc != 0:
            problems.append(f"set-up probe exit code {rc}: {stderr.strip()[-300:]}")
        tr = None
        if trace and trace_file.exists():
            tr = json.loads(trace_file.read_text())
        elif trace:
            problems.append("no trace written")
        return Proc(
            step=step, wall_s=t1 - t0,
            setup_s=info["ready"] - t0 if "ready" in info else None,
            cpu_s=ru.ru_utime + ru.ru_stime,
            maxrss_mb=ru.ru_maxrss / 1024,  # ru_maxrss is in KiB
            stdout=stdout, problems=problems, ready=info, trace=tr,
        )

    def _wait(self, child):
        """Wait for ``child`` with ``os.wait4`` (for its rusage), killing it
        at the run's hard limit.  Returns (exit code, rusage, end, timed out)."""
        result = {}

        def reap():
            _, status, ru = os.wait4(child.pid, 0)
            result["end"] = time.monotonic()
            result["status"], result["ru"] = status, ru

        self.waiter = threading.Thread(target=reap, daemon=True)
        self.waiter.start()
        self.waiter.join(max(1.0, HARD_LIMIT_S - (time.monotonic() - self.start)))
        timed_out = self.waiter.is_alive()
        if timed_out:
            child.kill()
            self.waiter.join()
        child.returncode = os.waitstatus_to_exitcode(result["status"])
        self.child = None
        return child.returncode, result["ru"], result["end"], timed_out

    def job(self, steps, job_id: int, trace: bool = False, env_extra=None) -> Job:
        t0 = time.monotonic()
        procs = [self.launch(s, job_id, trace, env_extra) for s in steps]
        return Job(procs, time.monotonic() - t0)


def source_id(root: Path) -> dict:
    """The commit (when the checkout is a git work tree) and a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qfock").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            packed = root / ".git" / "packed-refs"
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(runner: Runner, workload, seed: int, seconds: float):
    deadline = runner.start + seconds
    probes = [runner.launch(None) for _ in range(SETUP_PROBES)]
    env = probes[0].ready.get("env", {})
    steps = workload.job_steps(seed)
    jobs: list[Job] = []
    while True:
        jobs.append(runner.job(steps, len(jobs)))
        typical = statistics.median(j.wall_s for j in jobs)
        if time.monotonic() + typical > deadline:
            break
    setups = [p.setup_s for p in probes] + [p.setup_s for j in jobs for p in j.procs]
    setups = [s for s in setups if s is not None]
    values = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(j.wall_s for j in jobs),
        "cpu_s": statistics.median(j.cpu_s for j in jobs),
        "peak_rss_mb": max(p.maxrss_mb for j in jobs for p in j.procs),
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    n_failed = sum(j.failed for j in jobs)
    notes = [
        f"samples: setup_s {len(setups)} process starts ({SETUP_PROBES} bare probes); "
        f"job_s, cpu_s {len(jobs)} jobs of {len(steps)} process(es); peak_rss_mb max over them",
        "job walls (s): " + ", ".join(
            "+".join(f"{p.wall_s:.2f}" for p in j.procs) for j in jobs
        ),
        f"fail_frac = {n_failed}/{len(jobs)} = {n_failed / len(jobs):.4g}",
    ]
    problems = [f"probe: {m}" for p in probes for m in p.problems]
    return env, jobs, metrics, notes, problems


def trace_totals(job: Job):
    """Per-name ``[calls, self_s]`` over the spans of a traced job's
    processes, and its summed counters (the context cache: the largest)."""
    spans = []
    totals = {"lanczos_runs": 0, "matvecs": 0, "matvec_s": 0.0, "ctx_cache_bytes": 0}
    for proc in job.procs:
        tr = proc.trace or {"names": [], "spans": []}
        offset = len(spans)
        spans += [
            (tr["names"][n], s, e, p + offset if p >= 0 else -1)
            for n, s, e, p in tr["spans"]
        ]
        for key in ("lanczos_runs", "matvecs", "matvec_s"):
            totals[key] += tr.get(key, 0)
        totals["ctx_cache_bytes"] = max(totals["ctx_cache_bytes"], tr.get("ctx_cache_bytes", 0))
    return tracing.self_times(spans), totals


def layer_metrics(stats: dict, totals: dict, traced: Job, plain: Job, blas1: Job) -> dict:
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = stats.get(name, [0, 0.0])[0]
    for name in SELF:
        out[f"{name}.self_s"] = stats.get(name, [0, 0.0])[1]
    for mod in MODULES:
        self_s = sum((v[1] for k, v in stats.items() if k.startswith(mod + ".")), 0.0)
        out[f"{mod}.self_s"] = self_s
        out[f"{mod}.share"] = self_s / traced.wall_s
    out["fock.ctx_cache_mb"] = totals["ctx_cache_bytes"] / 2**20
    matvecs = totals["matvecs"]
    out["deformation.lanczos.runs"] = totals["lanczos_runs"]
    out["deformation.lanczos.matvecs"] = matvecs
    out["deformation.lanczos.matvec_ms"] = 1000.0 * totals["matvec_s"] / matvecs if matvecs else 0.0
    jumps = sum(
        sum(json.loads(p.stdout)["jump_counts"])
        for p in traced.procs if p.step.check == "cocycle" and not p.problems
    )
    transitions = stats.get("cocycle.transitions", [0, 0.0])[0]
    out["cocycle.memo_hit_ratio"] = 1.0 - transitions / jumps if jumps else 0.0
    out["trace_overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    out["blas1_job_s"] = blas1.wall_s
    return {name: metric(out[name], unit) for name, unit in PER_LAYER.items()}


def count_signature(stats: dict, totals: dict) -> dict:
    """Call counts per traced function plus Lanczos runs and matvecs."""
    sig = {name: calls for name, (calls, _) in stats.items()}
    sig["lanczos_runs"], sig["matvecs"] = totals["lanczos_runs"], totals["matvecs"]
    return sig


def traced_run(runner: Runner, workload, seed: int):
    steps = workload.job_steps(seed)
    plain = runner.job(steps, 0)
    traced = runner.job(steps, 1, trace=True)
    again = runner.job(steps, 2, trace=True)
    blas1 = runner.job(steps, 3, env_extra={v: "1" for v in THREAD_VARS})
    jobs = [plain, traced, again, blas1]
    stats, totals = trace_totals(traced)
    metrics = layer_metrics(stats, totals, traced, plain, blas1)
    sig_a, sig_b = count_signature(stats, totals), count_signature(*trace_totals(again))
    problems = [
        f"count of {k} differs between traced runs: {sig_a.get(k)} vs {sig_b.get(k)}"
        for k in sorted(set(sig_a) | set(sig_b)) if sig_a.get(k) != sig_b.get(k)
    ]
    shares = ", ".join(f"{m} {metrics[m + '.share']['value']:.3f}" for m in MODULES)
    notes = [
        f"jobs: untraced {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s and "
        f"{again.wall_s:.3f} s, one BLAS thread {blas1.wall_s:.3f} s",
        f"self-time share of traced job: {shares}",
        f"counts repeat exactly between the two traced jobs: {not problems} "
        f"({len(sig_a)} counters)",
    ]
    return jobs, metrics, notes, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qfock" / "__main__.py").is_file():
        print(f"error: no qfock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    with Runner(ROOT) as runner:
        if args.trace:
            env = runner.launch(None).ready.get("env", {})
            jobs, metrics, notes, problems = traced_run(runner, workload, args.seed)
        else:
            env, jobs, metrics, notes, problems = untraced_run(
                runner, workload, args.seed, args.seconds
            )
    env.update(source_id(ROOT))
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for line in notes:
        print("  " + line)
    for i, job in enumerate(jobs):
        for proc in job.procs:
            for msg in proc.problems:
                print(f"  FAILED job {i}: {' '.join(proc.step.argv)}: {msg}")
    for msg in problems:
        print(f"  FAILED: {msg}")
    failed = sum(j.failed for j in jobs)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
