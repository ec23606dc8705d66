"""Tracing for the benchmark's traced run.

Inside a job process, ``Tracer.install`` wraps every public function of every
``qfock`` module, in every namespace that binds it, so that each call records
a span (name, start, end, parent span).  It also counts the ARPACK runs and
operator applications of ``scipy.sparse.linalg.eigsh`` and keeps the contexts
that ``make_context`` returns, so their cached arrays can be measured when the
command ends.  Spans stay in memory and are written once, by ``Tracer.dump``.

Nothing under ``src/`` changes: all of this is done from outside, at the
public entry points.  ``self_times`` turns the spans into per-name call counts
and self time in the benchmark's parent process.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent span id or -1]
        self._open: list[int] = []
        self.contexts: list = []
        self.lanczos_runs = 0
        self.matvecs = 0
        self.matvec_s = 0.0

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_id, _clock(), 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                open_spans.pop()

        return traced

    def _capturing(self, make_context):
        @functools.wraps(make_context)
        def capture(*args, **kwargs):
            ctx = make_context(*args, **kwargs)
            self.contexts.append(ctx)
            return ctx

        return capture

    def install(self, package: str = "qfock") -> int:
        """Wrap the public functions defined in the imported modules of
        ``package`` wherever any of those modules binds one.  Returns the
        number of functions wrapped."""
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        wrappers: dict = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    not isinstance(obj, types.FunctionType)
                    or attr.startswith("_")
                    or obj.__name__.startswith("_")
                    or not (obj.__module__ or "").startswith(package)
                ):
                    continue
                wrapper = wrappers.get(obj)
                if wrapper is None:
                    short = obj.__module__[len(package) + 1:] or package
                    inner = self._capturing(obj) if obj.__name__ == "make_context" else obj
                    wrapper = wrappers[obj] = self.wrap(inner, f"{short}.{obj.__name__}")
                setattr(mod, attr, wrapper)
        self._count_eigsh()
        return len(wrappers)

    def _count_eigsh(self) -> None:
        """Count runs of ``eigsh`` and applications of the operator handed to
        it.  qfock imports ``eigsh`` at call time, so patching the attribute of
        ``scipy.sparse.linalg`` reaches every call."""
        import scipy.sparse.linalg as sla

        eigsh = sla.eigsh

        @functools.wraps(eigsh)
        def counting_eigsh(A, *args, **kwargs):
            op = sla.aslinearoperator(A)

            def matvec(v):
                t0 = _clock()
                out = op.matvec(v)
                self.matvec_s += _clock() - t0
                self.matvecs += 1
                return out

            self.lanczos_runs += 1
            counted = sla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
            return eigsh(counted, *args, **kwargs)

        sla.eigsh = counting_eigsh

    def dump(self, path: str, job_id: int) -> None:
        now = _clock()
        for rec in self.spans:  # spans left open by an escaping exit
            if rec[2] == 0.0:
                rec[2] = now
        data = {
            "job": job_id,
            "names": self.names,
            "spans": self.spans,
            "lanczos_runs": self.lanczos_runs,
            "matvecs": self.matvecs,
            "matvec_s": self.matvec_s,
            "ctx_cache_bytes": array_bytes(self.contexts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def array_bytes(roots) -> int:
    """Bytes of the numpy arrays reachable from ``roots`` through containers
    and instance attributes.  Views count once, as their base buffer."""
    import numpy as np

    seen: set[int] = set()
    buffers: dict[int, int] = {}
    stack = list(roots)
    leaves = (type, types.ModuleType, types.FunctionType, str, bytes, int, float, complex)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, leaves):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            buffers[id(base)] = base.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return sum(buffers.values())


def covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[str, list]:
    """``{name: [calls, self seconds]}`` from spans ``(name, start, end,
    parent)``, where ``parent`` indexes ``spans`` or is -1.  A span's self time
    is its duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, list] = {}
    for i, (name, start, end, _) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) - covered(start, end, children.get(i, ()))
    return out
