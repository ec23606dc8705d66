"""Command-line front end.

Subcommands: ``constants``, ``verify``, ``gram``, ``xi``, ``conjugate``,
``cocycle-sim``.  Tables go out as RFC-4180 CSV with '.' decimals, reports as
UTF-8 JSON with stable key order; floats carry 17 significant digits so runs
diff cleanly.  Every command is deterministic given (config, seed), and the
process exit status is 0 exactly when all executed checks pass.
"""
from __future__ import annotations

import argparse
import io
import math
import sys
from itertools import islice

import numpy as np

from . import cocycle as cc
from . import deformation as df
from . import derivations as dv
from . import fock, operators
from .errors import LevelRangeError, QFockError

__all__ = ["main"]


# ---- serialization -------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return format(float(x), ".17g")


def json_dumps_stable(obj) -> str:
    """JSON with sorted keys and 17-significant-digit floats (bit-stable)."""

    def render(o) -> str:
        if isinstance(o, dict):
            items = sorted(o.items(), key=lambda kv: str(kv[0]))
            inner = ",".join(f'"{k}":{render(v)}' for k, v in items)
            return "{" + inner + "}"
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(render(v) for v in o) + "]"
        if isinstance(o, bool) or isinstance(o, np.bool_):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            f = float(o)
            if math.isinf(f) or math.isnan(f):
                return f'"{_fmt_float(f)}"'
            return _fmt_float(f)
        if o is None:
            return "null"
        s = str(o)
        s = s.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{s}"'

    return render(obj) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v))
    s = str(v)
    if any(ch in s for ch in ',"\r\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def csv_table(header: list[str], rows: list[list], banner: str | None = None) -> str:
    buf = io.StringIO()
    if banner:
        buf.write(f"# WARNING: {banner}\r\n")
    buf.write(",".join(header) + "\r\n")
    for row in rows:
        buf.write(",".join(_csv_cell(v) for v in row) + "\r\n")
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---- constants ------------------------------------------------------------------


def _default_grid() -> list[tuple[float, int]]:
    rows = [(0.0, 5)]
    for N in range(2, 11):
        rows.append((0.13 / N, N))
    for N in range(2, 11):
        rows.append((0.13 / math.sqrt(N), N))
    return rows


def _parse_grid(raw: str) -> list[tuple[float, int]]:
    rows = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            qs, ns = chunk.split(":")
            rows.append((float(qs), int(ns)))
        except ValueError as exc:
            raise QFockError(
                f"bad grid entry {chunk!r}; expected 'q:N' pairs separated by commas"
            ) from exc
    if not rows:
        raise QFockError("empty grid")
    return rows


def cmd_constants(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid) if args.grid else _default_grid()
    rows = []
    for q, N in grid:
        rep = df.constants(q, N)
        rows.append([rep.q, rep.N, rep.c_q, rep.nu, rep.rho, rep.nu_lt_1, rep.rho_lt_1])
    header = ["q", "N", "c_q", "nu", "rho", "nu_lt_1", "rho_lt_1"]
    if (args.fmt or "csv") == "json":
        data = [dict(zip(header, row)) for row in rows]
        _emit(json_dumps_stable({"rows": data}), args.out)
    else:
        _emit(csv_table(header, rows), args.out)
    return 0


# ---- verification suites ---------------------------------------------------------


def _check(name: str, value: float, tol: float) -> dict:
    return {"name": name, "value": float(value), "tol": tol, "passed": bool(value <= tol)}


def _suite_gram(ctx, rng) -> list[dict]:
    checks = []
    for n in range(0, min(ctx.L, 4) + 1):
        block = fock.gram(n, ctx)
        eye_res = np.abs(
            block.b.entries @ block.gamma.entries @ block.b.entries - np.eye(ctx.N**n)
        ).max()
        checks.append(_check(f"b_gamma_b_identity_level_{n}", eye_res, 1e-9))
        checks.append(
            {
                "name": f"gram_min_eig_level_{n}",
                "value": block.min_eig,
                "tol": 0.0,
                "passed": bool(block.min_eig > 0.0),
            }
        )
    n = min(ctx.L, 3)
    vecs = fock.orthonormal_vectors(n, ctx)
    worst = 0.0
    for a in range(len(vecs)):
        for b in range(a, len(vecs)):
            val = fock.q_inner(vecs[a], vecs[b], ctx)
            worst = max(worst, abs(val - (1.0 if a == b else 0.0)))
    checks.append(_check(f"orthonormality_level_{n}", worst, 1e-10))
    v = fock.GradedVector.zero(ctx)
    w = fock.GradedVector.zero(ctx)
    v.data[:] = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    w.data[:] = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    herm = abs(fock.q_inner(v, w, ctx) - np.conj(fock.q_inner(w, v, ctx)))
    checks.append(_check("hermitian_symmetry", herm, 1e-12))
    return checks


def _suite_operators(ctx, rng) -> list[dict]:
    checks = []
    for i in range(1, ctx.N + 1):
        res = np.abs(
            operators.adjoint(operators.creation(i, ctx)).mat
            - operators.annihilation(i, ctx).mat
        ).max()
        checks.append(_check(f"adjoint_creation_{i}", res, 1e-10))
        res = np.abs(
            operators.right_annihilation(i, ctx).mat
            - operators.right_annihilation_mirror(i, ctx).mat
        ).max()
        checks.append(_check(f"right_annihilation_mirror_{i}", res, 1e-10))
        res = np.abs(
            operators.adjoint(operators.gaussian(i, ctx)).mat
            - operators.gaussian(i, ctx).mat
        ).max()
        checks.append(_check(f"field_self_adjoint_{i}", res, 1e-10))
    for w in [(1,), (1, 1), (1, 2), (2, 1, 1)]:
        if len(w) > ctx.L or max(w) > ctx.N:
            continue
        vec = operators.wick_word(w, ctx).apply(fock.GradedVector.vacuum(ctx))
        target = fock.GradedVector.from_word(ctx, w)
        checks.append(
            _check(f"wick_vacuum_{''.join(map(str, w))}", np.abs(vec.data - target.data).max(), 1e-12)
        )
    x1 = operators.gaussian(1, ctx)
    checks.append(
        _check("moment_x1_sq", abs(operators.trace_state(x1 @ x1) - 1.0), 1e-12)
    )
    if ctx.L >= 4:
        x4 = x1 @ x1 @ x1 @ x1
        checks.append(
            _check("moment_x1_4", abs(operators.trace_state(x4) - (2 + ctx.q)), 1e-12)
        )
        if ctx.N >= 2:
            x2 = operators.gaussian(2, ctx)
            mixed = x1 @ x2 @ x1 @ x2
            checks.append(
                _check("moment_x1x2x1x2", abs(operators.trace_state(mixed) - ctx.q), 1e-12)
            )
    bound = 2.0 / (1.0 - abs(ctx.q))
    nx = operators.op_norm(x1)
    checks.append(
        {"name": "field_norm_bound", "value": nx, "tol": bound, "passed": bool(nx < bound)}
    )
    if ctx.N >= 2 and ctx.L >= 2:
        comm = (
            operators.creation(1, ctx).mat @ operators.right_creation(2, ctx).mat
            - operators.right_creation(2, ctx).mat @ operators.creation(1, ctx).mat
        )
        cut = ctx.level_offset(ctx.L - 1)
        checks.append(
            _check("left_right_commute", np.abs(comm[:, :cut]).max(), 1e-12)
        )
    return checks


def _suite_bozejko(ctx, rng) -> list[dict]:
    checks = []
    worst_gap = -math.inf
    worst_lower = -math.inf
    n_max = min(4, ctx.L - 1)
    for trial in range(50):
        n = 1 + (trial % n_max)
        xi = fock.GradedVector.zero(ctx)
        lvl = xi.level(n)
        lvl[:] = rng.standard_normal(lvl.shape) + 1j * rng.standard_normal(lvl.shape)
        rep = operators.bozejko_check(xi, ctx)
        worst_gap = max(worst_gap, rep.lhs - rep.bound)
        worst_lower = max(worst_lower, rep.l2 - rep.lhs)
    checks.append(_check("upper_bound_gap", worst_gap, 1e-9))
    checks.append(_check("lower_tail_gap", worst_lower, 1e-9))
    return checks


def _suite_derivations(ctx, rng) -> list[dict]:
    checks = []
    xi_hs = df.xi_as_hs(ctx)
    for i in range(1, ctx.N + 1):
        for j in range(1, ctx.N + 1):
            T = dv.derive(dv.NCPoly.x(i), j, dv.Q_COMMUTATOR, ctx)
            target = xi_hs.coeffs if i == j else 0.0
            checks.append(
                _check(f"generator_value_{i}{j}", np.abs(T.coeffs - target).max(), 1e-10)
            )
    deg_cap = max(1, min(3, ctx.L - 2))
    words = [(1,), (1, 2), (2, 1, 1)]
    for w in words:
        if len(w) > deg_cap or max(w) > ctx.N:
            continue
        res = dv.commutator_check(dv.NCPoly.from_word(w), 1, ctx)
        checks.append(_check(f"commutator_{''.join(map(str, w))}", res, 1e-9))
    for trial in range(5):
        P = _random_poly(ctx, rng, deg=min(4, ctx.L - 1))
        j = 1 + trial % ctx.N
        lhs = dv.partial_tau(P, j, ctx)
        rhs = operators.right_annihilation(j, ctx).apply(dv.poly_vector(P, ctx))
        checks.append(
            _check(f"partial_trace_{trial}", np.abs(lhs.data - rhs.data).max(), 1e-10)
        )
    leg = max(1, (ctx.L - 1) // 2 - 1)
    for trial in range(5):
        T = _random_hs(ctx, rng, leg_cap=leg)
        P = _random_poly(ctx, rng, deg=min(3, ctx.L - 3))
        j = 1 + trial % ctx.N
        lhs = fock.q_inner(dv.dq_star(T, j, ctx), dv.poly_vector(P, ctx), ctx)
        rhs = df.hs_inner(T, dv.derive(P, j, dv.Q_COMMUTATOR, ctx))
        checks.append(_check(f"adjoint_duality_{trial}", abs(lhs - rhs), 1e-9))
    P = _random_poly(ctx, rng, deg=min(3, ctx.L - 1))
    Q = _random_poly(ctx, rng, deg=min(2, ctx.L - 1))
    if P.degree + Q.degree <= ctx.L:
        T_PQ = dv.derive(P * Q, 1, dv.FDQ, ctx)
        right = dv.derive(P, 1, dv.FDQ, ctx).coeffs @ dv.poly_right_mult(Q, ctx).T
        left = dv.poly_left_mult(P, ctx) @ dv.derive(Q, 1, dv.FDQ, ctx).coeffs
        res = np.abs(T_PQ.coeffs - right - left).max()
        checks.append(_check("leibniz", res, 1e-10))
    P = _random_poly(ctx, rng, deg=min(3, ctx.L - 1))
    T1 = dv.derive(P.star(), 1, dv.Q_COMMUTATOR, ctx)
    T2 = dv.real_structure(dv.derive(P, 1, dv.Q_COMMUTATOR, ctx))
    checks.append(_check("real_structure", np.abs(T1.coeffs - T2.coeffs).max(), 1e-10))
    return checks


def _suite_number(ctx, rng) -> list[dict]:
    checks = []
    worst = 0.0
    n_max = min(4, ctx.L)
    for trial in range(20):
        n = 1 + trial % n_max
        xi = fock.GradedVector.zero(ctx)
        eta = fock.GradedVector.zero(ctx)
        xi.level(n)[:] = rng.standard_normal(ctx.N**n) + 1j * rng.standard_normal(ctx.N**n)
        eta.level(n)[:] = rng.standard_normal(ctx.N**n) + 1j * rng.standard_normal(ctx.N**n)
        worst = max(worst, dv.number_check(xi, eta, ctx)["residual"])
    checks.append(_check("number_form", worst, 1e-9))
    return checks


def _suite_conjugate(ctx, rng) -> list[dict]:
    residuals = []
    for n, _, U in df.neumann_series(ctx, 12):
        if n == 8:
            U8 = df.HSElement(ctx, U)
        if n:
            residuals.append(df.neumann_residual(ctx, U))
    tail = residuals[3:]
    monotone = all(b <= a or a < 5e-14 for a, b in zip(tail, tail[1:]))
    checks = [
        {
            "name": "neumann_residual_monotone",
            "value": float(residuals[-1]),
            "tol": float(residuals[0]),
            "passed": bool(monotone),
        }
    ]
    if ctx.q == 0.0:
        for j in range(1, ctx.N + 1):
            v = dv.dq_star(U8, j, ctx)
            target = fock.GradedVector.from_word(ctx, (j,))
            checks.append(
                _check(f"semicircular_cv_{j}", np.abs(v.data - target.data).max(), 1e-12)
            )
    return checks


_SUITES = {
    "gram": _suite_gram,
    "operators": _suite_operators,
    "bozejko": _suite_bozejko,
    "derivations": _suite_derivations,
    "number": _suite_number,
    "conjugate": _suite_conjugate,
}
# smallest level at which a suite's inputs and exactness ranges are non-empty
_MIN_LEVEL = {"operators": 1, "number": 1, "conjugate": 1, "bozejko": 2, "derivations": 3}


def _random_poly(ctx, rng, deg: int) -> "dv.NCPoly":
    terms = {}
    for _ in range(4):
        k = int(rng.integers(0, deg + 1))
        w = tuple(int(rng.integers(1, ctx.N + 1)) for _ in range(k))
        terms[w] = complex(rng.standard_normal(), rng.standard_normal())
    return dv.NCPoly(terms)


def _random_hs(ctx, rng, leg_cap: int) -> "df.HSElement":
    cut = ctx.level_offset(leg_cap + 1)
    C = np.zeros((ctx.dim, ctx.dim), dtype=complex)
    C[:cut, :cut] = rng.standard_normal((cut, cut)) + 1j * rng.standard_normal(
        (cut, cut)
    )
    return df.HSElement(ctx, C)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite not in set(_SUITES) | {"all"}:
        raise QFockError(
            f"unknown suite {args.suite!r}; choose from "
            f"{sorted(_SUITES)} or 'all'"
        )
    ctx = fock.make_context(args.n, args.q, args.level, args.cap_override)
    rng = np.random.default_rng(args.seed)
    names = sorted(_SUITES) if args.suite == "all" else [args.suite]
    need = max(_MIN_LEVEL.get(name, 0) for name in names)
    if args.level < need:
        raise LevelRangeError(
            f"suite {args.suite!r} needs truncation level >= {need}, got {args.level}"
        )
    all_checks = {}
    passed = True
    for name in names:
        checks = _SUITES[name](ctx, rng)
        all_checks[name] = checks
        passed &= all(c["passed"] for c in checks)
    report = {
        "params": {"N": args.n, "q": args.q, "L": args.level, "seed": args.seed},
        "suites": all_checks,
        "passed": passed,
    }
    _emit(json_dumps_stable(report), args.out)
    return 0 if passed else 1


# ---- gram / xi tables -------------------------------------------------------------


def cmd_gram(args: argparse.Namespace) -> int:
    ctx = fock.make_context(args.n, args.q, args.level, args.cap_override)
    rows = []
    for n in range(ctx.L + 1):
        block = fock.gram(n, ctx)
        bgb = np.abs(
            block.b.entries @ block.gamma.entries @ block.b.entries - np.eye(ctx.N**n)
        ).max()
        vecs = fock.orthonormal_vectors(n, ctx) if ctx.N**n <= 64 else None
        ortho = 0.0
        if vecs is not None:
            Gm = np.array(
                [[fock.q_inner(a, b, ctx).real for b in vecs] for a in vecs]
            )
            ortho = float(np.abs(Gm - np.eye(len(vecs))).max())
        rows.append([n, ctx.N**n, block.min_eig, bgb, ortho])
    header = ["level", "dim", "min_eig", "bgb_residual", "orthonormality_residual"]
    if (args.fmt or "csv") == "json":
        _emit(json_dumps_stable({"rows": [dict(zip(header, r)) for r in rows]}), args.out)
    else:
        _emit(csv_table(header, rows), args.out)
    return 0


def cmd_xi(args: argparse.Namespace) -> int:
    ctx = fock.make_context(args.n, args.q, args.level, args.cap_override)
    Q = args.trunc_q if args.trunc_q is not None else ctx.L
    mult = df.xi_multiplier(ctx, Q)
    hs = df.xi_as_hs(ctx, Q)
    consistency = np.abs(df.multiplier_of(hs).mat - mult.mat).max()
    hs_norm_sq = sum(ctx.q ** (2 * n) * ctx.N**n for n in range(Q + 1))
    spectrum = sorted({round(ctx.q**n, 15) for n in range(Q + 1)})
    tail_norms = []
    for Qp in range(Q, ctx.L + 1):
        tail_norms.append(
            {
                "Q": Qp,
                "tail_norm": df.doubled_op_norm(
                    df.xi_as_hs(ctx) - df.xi_as_hs(ctx, Qp), hermitian=True
                ),
            }
        )
    report = {
        "params": {"N": ctx.N, "q": ctx.q, "L": ctx.L, "Q": Q},
        "multiplier_spectrum": spectrum,
        "hs_norm_sq": hs_norm_sq,
        "hs_consistency_residual": float(consistency),
        "tail_norms": tail_norms,
    }
    _emit(json_dumps_stable(report), args.out)
    return 0


# ---- conjugate-variable convergence -------------------------------------------------


def cmd_conjugate(args: argparse.Namespace) -> int:
    if args.terms < 1:
        raise QFockError(f"--terms must be at least 1, got {args.terms}")
    ctx = fock.make_context(args.n, args.q, args.level, args.cap_override)
    rep = df.constants(ctx.q, ctx.N)
    banner = None
    if not rep.rho_lt_1:
        banner = f"rho({ctx.q}, {ctx.N}) = {rep.rho:.6g} >= 1; no convergence guarantee"
    letters = range(1, ctx.N + 1)
    pairs = [(j, k) for j in letters for k in letters]
    header = ["n", "u_residual", *(f"cv_norm_{j}" for j in letters), "fisher"]
    header += [f"lipschitz_{j}{k}" for j, k in pairs]
    rows = []
    for n, _, U in islice(df.neumann_series(ctx, args.terms), 1, None):
        Uel = df.HSElement(ctx, U)
        cvs = [dv.dq_star(Uel, j, ctx) for j in letters]
        norms = [math.sqrt(max(fock.q_inner(v, v, ctx).real, 0.0)) for v in cvs]
        row = [n, df.neumann_residual(ctx, U), *norms, sum(x**2 for x in norms)]
        polys = [dv.vector_to_poly(v) for v in cvs]
        for j, k in pairs:
            row.append(df.doubled_op_norm(dv.derive(polys[j - 1], k, dv.FDQ, ctx)))
        rows.append(row)
    _emit(csv_table(header, rows, banner=banner), args.out)
    return 0


# ---- cocycle simulation --------------------------------------------------------------


def cmd_cocycle(args: argparse.Namespace) -> int:
    if not args.spec:
        raise QFockError("--spec is required (path or 'z-splitting')")
    if args.spec == "z-splitting":
        spec = cc.z_splitting_spec()
    else:
        spec = cc.load_cocycle_spec(args.spec)
    if not args.init:
        raise QFockError("--init is required (comma-separated elements)")
    init = cc.parse_state(spec, args.init)
    report = cc.simulate(
        spec, init, args.horizon, args.paths, args.max_jumps, args.seed
    )
    _emit(json_dumps_stable(report.to_jsonable(spec)), args.out)
    return 0


# ---- argument parsing ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qfock",
        description="numerical laboratory for truncated deformed Fock spaces",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_ctx_flags(sp):
        sp.add_argument("--n", type=int, default=2, help="alphabet size")
        sp.add_argument("--q", type=float, default=0.1, help="deformation parameter")
        sp.add_argument("--level", type=int, default=5, help="truncation level")
        sp.add_argument("--cap-override", type=int, default=None)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("constants", help="explicit constants table over a (q, N) grid")
    sp.add_argument("--grid", default=None, help="comma-separated q:N pairs")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument(
        "--suite",
        default="all",
        help="gram|operators|bozejko|derivations|number|conjugate|all",
    )
    add_ctx_flags(sp)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("gram", help="Gram/orthonormality diagnostics per level")
    add_ctx_flags(sp)
    sp.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None)

    sp = sub.add_parser("xi", help="deformation-operator diagnostics")
    sp.add_argument("--trunc-q", dest="trunc_q", type=int, default=None)
    add_ctx_flags(sp)

    sp = sub.add_parser("conjugate", help="conjugate-variable convergence series")
    sp.add_argument("--terms", type=int, default=20)
    add_ctx_flags(sp)

    sp = sub.add_parser("cocycle-sim", help="simulate the cocycle splitting chain")
    sp.add_argument("--spec", default=None, help="spec JSON path or 'z-splitting'")
    sp.add_argument("--init", default=None, help="comma-separated initial tuple")
    sp.add_argument("--horizon", type=float, default=1e9)
    sp.add_argument("--paths", type=int, default=10000)
    sp.add_argument("--max-jumps", dest="max_jumps", type=int, default=64)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)

    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "constants": cmd_constants,
        "verify": cmd_verify,
        "gram": cmd_gram,
        "xi": cmd_xi,
        "conjugate": cmd_conjugate,
        "cocycle-sim": cmd_cocycle,
    }
    try:
        return handlers[args.command](args)
    except QFockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
