"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure); together they are the exit gate for the build.
"""
import json
import math
import time

import numpy as np
import pytest

from qfock import GradedVector, constants, gram, make_context, q_inner
from qfock.cocycle import (
    CocycleSpec,
    GroupSpec,
    hat_norm_sq,
    rate,
    simulate,
    transitions,
    z_splitting_spec,
)
from qfock.deformation import hs_inner, neumann_series, xi_inverse_neumann
from qfock.derivations import (
    NCPoly,
    Q_COMMUTATOR,
    commutator_check,
    conjugate_variables,
    derive,
    dq_star,
    fisher_estimate,
    lipschitz_norms,
    number_check,
    partial_tau,
    poly_vector,
)
from qfock.operators import (
    annihilation,
    bozejko_check,
    c_q,
    creation,
    gaussian,
    op_norm,
    right_annihilation,
    trace_state,
)
from qfock.symgroup import mn_matrix, pq_direct, pq_recursive

from dense_oracle import mn_inverse, mn_inverse_readings


def report(num: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} [{status}] {label}{suffix}")
    assert passed, f"criterion {num}: {label}{suffix}"


Q_GRID = (-0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 0.9)


def test_criterion_01_recursion_equivalence():
    t0 = time.time()
    worst = 0.0
    for N in (1, 2):
        for q in Q_GRID:
            ctx = make_context(N, q, 6)
            for n in range(1, 7):
                d = np.abs(
                    pq_recursive(n, ctx) - pq_direct(n, ctx)
                ).max()
                worst = max(worst, d)
    elapsed = time.time() - t0
    report(
        1,
        "level recursion matches the direct symmetric-group sum",
        worst < 1e-12 and elapsed < 10.0,
        f"worst={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_mn_inversion():
    worst = 0.0
    ctx = make_context(2, 0.4, 6)
    for n in range(1, 7):
        prod = mn_matrix(n, ctx) @ mn_inverse(n, ctx)
        worst = max(worst, np.abs(prod - np.eye(2**n)).max())
    readings = mn_inverse_readings(5, ctx)
    report(
        2,
        "cycle-sum inversion via the product formula",
        worst < 1e-10 and readings["factorwise"] < 1e-10,
        f"worst={worst:.2e}; readings: factorwise={readings['factorwise']:.2e}, "
        f"wholeprod={readings['wholeprod']:.2e} (factor-wise reading matches)",
    )


def test_criterion_03_orthonormality():
    worst = 0.0
    for N in (1, 2, 3):
        for q in (-0.5, 0.5):
            ctx = make_context(N, q, 4)
            for n in range(5):
                B = gram(n, ctx).b
                Gm = B.T @ gram(n, ctx).gamma @ B
                worst = max(worst, np.abs(Gm - np.eye(N**n)).max())
    report(3, "orthonormalized level bases", worst < 1e-10, f"worst={worst:.2e}")


def test_criterion_04_adjoint_identities():
    ctx = make_context(2, 0.35, 5)
    rng = np.random.default_rng(100)
    worst_ladder = 0.0
    for trial in range(100):
        i = 1 + trial % 2
        x = GradedVector(ctx, rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim))
        y = GradedVector(ctx, rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim))
        lhs = q_inner(GradedVector(ctx, creation(i, ctx) @ x.data), y, ctx)
        rhs = q_inner(x, GradedVector(ctx, annihilation(i, ctx) @ y.data), ctx)
        worst_ladder = max(worst_ladder, abs(lhs - rhs))
    worst_dual = 0.0
    cut = ctx.level_offset(3)  # tensor-square legs of level <= 2: exact range
    for trial in range(100):
        j = 1 + trial % 2
        C = np.zeros((ctx.dim, ctx.dim), dtype=complex)
        C[:cut, :cut] = rng.standard_normal((cut, cut)) + 1j * rng.standard_normal((cut, cut))
        terms = {}
        for _ in range(4):
            k = int(rng.integers(0, 4))
            w = tuple(int(x) for x in rng.integers(1, 3, size=k))
            terms[w] = complex(rng.standard_normal(), rng.standard_normal())
        P = NCPoly(terms)
        lhs = q_inner(dq_star(C, j, ctx), poly_vector(P, ctx), ctx)
        rhs = hs_inner(C, derive(P, j, Q_COMMUTATOR, ctx), ctx)
        worst_dual = max(worst_dual, abs(lhs - rhs))
    report(
        4,
        "ladder adjoints and derivation-adjoint duality on 100 random instances",
        worst_ladder < 1e-10 and worst_dual < 1e-10,
        f"ladder={worst_ladder:.2e}, duality={worst_dual:.2e}",
    )


def test_criterion_05_commutator_identity():
    ctx = make_context(2, 0.3, 6)
    worst = 0.0
    words = [(i,) for i in (1, 2)]
    words += [(i, j) for i in (1, 2) for j in (1, 2)]
    words += [(i, j, k) for i in (1, 2) for j in (1, 2) for k in (1, 2)]
    for w in words:
        for j in (1, 2):
            worst = max(worst, commutator_check(NCPoly.from_word(w), j, ctx))
    report(
        5,
        "deformed derivation equals the right-append commutator (deg <= 3)",
        worst < 1e-9,
        f"worst={worst:.2e}",
    )


def test_criterion_06_number_operator():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(101)
    for N in (1, 2):
        ctx = make_context(N, -0.45, 4)
        for trial in range(50):
            n = 1 + trial % 4
            xi = GradedVector.zero(ctx)
            eta = GradedVector.zero(ctx)
            xi.level(n)[:] = rng.standard_normal(N**n) + 1j * rng.standard_normal(N**n)
            eta.level(n)[:] = rng.standard_normal(N**n) + 1j * rng.standard_normal(N**n)
            worst = max(worst, number_check(xi, eta, ctx)["residual"])
    elapsed = time.time() - t0
    report(
        6,
        "doubling-derivation form equals the level count (100 random pairs)",
        worst < 1e-9 and elapsed < 60.0,
        f"worst={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_07_partial_trace():
    ctx = make_context(2, 0.45, 5)
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(25):
        terms = {}
        for _ in range(4):
            k = int(rng.integers(0, 5))
            w = tuple(int(x) for x in rng.integers(1, 3, size=k))
            terms[w] = complex(rng.standard_normal(), rng.standard_normal())
        P = NCPoly(terms)
        j = 1 + trial % 2
        lhs = partial_tau(P, j, ctx)
        rhs = right_annihilation(j, ctx) @ poly_vector(P, ctx).data
        worst = max(worst, np.abs(lhs.data - rhs).max())
    report(7, "right-leg trace equals the right-delete action", worst < 1e-10, f"worst={worst:.2e}")


def test_criterion_08_thresholds():
    ok = True
    for N in range(2, 11):
        ok &= constants(0.13 / N, N).nu_lt_1
        ok &= constants(0.13 / math.sqrt(N), N).rho_lt_1
    zero = constants(0.0, 4)
    exact = zero.nu == 0.0 and zero.rho == 0.0 and zero.c_q == 1.0
    report(8, "explicit constants below one at the stated thresholds", ok and exact)


def test_criterion_09_norm_inequality():
    rng = np.random.default_rng(103)
    worst_gap = -math.inf
    worst_lower = -math.inf
    count = 0
    for q in (-0.5, -0.2, 0.2, 0.5):
        for N in (2, 3):
            for n in (1, 2, 3, 4):
                ctx = make_context(N, q, min(n + 1, 5))
                for _ in range(7):
                    if count >= 200:
                        break
                    xi = GradedVector.zero(ctx)
                    xi.level(n)[:] = rng.standard_normal(N**n) + 1j * rng.standard_normal(N**n)
                    rep = bozejko_check(xi, ctx)
                    worst_gap = max(worst_gap, rep.lhs - rep.bound)
                    worst_lower = max(worst_lower, rep.l2 - rep.lhs)
                    count += 1
    report(
        9,
        f"operator-norm inequality on {count} random homogeneous vectors",
        worst_gap <= 1e-9 and worst_lower <= 1e-9,
        f"upper gap={worst_gap:.2e}, lower gap={worst_lower:.2e}",
    )


def test_criterion_10_semicircular_degeneration():
    ctx = make_context(2, 0.0, 5)
    cvs = conjugate_variables(xi_inverse_neumann(ctx, 6).element, ctx)
    worst = 0.0
    for j, v in enumerate(cvs, start=1):
        worst = max(worst, np.abs(v.data - GradedVector.from_word(ctx, (j,)).data).max())
    fisher = fisher_estimate(cvs)
    lip = lipschitz_norms(conjugate_variables(xi_inverse_neumann(ctx, 4).element, ctx))[0][0]
    report(
        10,
        "free-case degeneration is exact",
        worst < 1e-12 and fisher == pytest.approx(2.0, abs=1e-12) and abs(lip - 1.0) < 1e-10,
        f"cv residual={worst:.2e}, fisher={fisher:.15f}, lipschitz norm={lip:.12f}",
    )


def test_criterion_11_neumann_convergence():
    ctx = make_context(2, 0.05, 5)
    res = xi_inverse_neumann(ctx, 20)
    floor = 5e-14
    monotone = all(
        b < a
        for a, b in zip(res.residuals[2:], res.residuals[3:])
        if a > floor
    )
    fisher = [
        fisher_estimate(conjugate_variables(U, ctx))
        for _, _, U in neumann_series(ctx, 20)
    ]
    stable = all(
        abs(fisher[n] - fisher[20]) <= 1e-4 * abs(fisher[20]) for n in (15, 19, 20)
    )
    report(
        11,
        "alternating-series inverse: monotone residuals, stabilized information",
        monotone and stable,
        f"residuals {res.residuals[0]:.2e} -> {res.residuals[-1]:.2e}, "
        f"fisher={fisher[20]:.10f}",
    )


def test_criterion_12_moments():
    worst = 0.0
    q = 0.37
    for L in (4, 5, 6):
        ctx = make_context(2, q, L)
        x1, x2 = gaussian(1, ctx), gaussian(2, ctx)
        worst = max(worst, abs(trace_state(x1 @ x1) - 1.0))
        worst = max(worst, abs(trace_state(x1 @ x1 @ x1 @ x1) - (2 + q)))
        worst = max(worst, abs(trace_state(x1 @ x2 @ x1 @ x2) - q))
    report(12, "low moments exact and truncation independent", worst < 1e-12, f"worst={worst:.2e}")


def test_criterion_13_field_norm_bound():
    ok = True
    for q in (-0.9, -0.5, 0.0, 0.5, 0.9):
        for N in (1, 2, 3):
            for L in (3, 4, 5):
                ctx = make_context(N, q, L)
                nx = op_norm(gaussian(1, ctx), ctx)
                bound = 2.0 / (1.0 - abs(q))
                ok &= nx < bound
    report(13, "field operator norms below the closed-form bound", ok)


def test_criterion_14_cocycle_chain():
    t0 = time.time()
    spec = z_splitting_spec()
    ok = True
    for M in range(2, 9):
        rep = simulate(spec, (M,), horizon=1e12, n_paths=10**4, max_jumps=64, seed=M)
        ok &= rep.absorbed == 10**4
        ok &= all(j == M - 1 for j in rep.jump_counts)
    # conservation invariants on every reachable state from (8)
    frontier, seen = [(8,)], set()
    while frontier:
        s = frontier.pop()
        if s in seen or rate(spec, s) == 0.0:
            continue
        seen.add(s)
        for s2, p in transitions(spec, s):
            ok &= len(s2) == len(s) + 1
            ok &= sum(s2) == sum(s)
            ok &= p > 0
            frontier.append(s2)
    a = simulate(spec, (7,), horizon=1e12, n_paths=2000, max_jumps=64, seed=5)
    b = simulate(spec, (7,), horizon=1e12, n_paths=2000, max_jumps=64, seed=5)
    identical = json.dumps(a.to_jsonable(spec)) == json.dumps(b.to_jsonable(spec))
    elapsed = time.time() - t0
    report(
        14,
        "splitting chain absorbs in exactly M-1 jumps with conserved totals",
        ok and identical and elapsed < 30.0,
        f"{elapsed:.1f}s for 7x10^4 paths",
    )


def test_criterion_15_hat_norm_edge():
    z = CocycleSpec(GroupSpec("int"), [{1: {0: 0.7, 1: -1.3}}])
    ok = hat_norm_sq(z, 0, 1) == 0.0 and rate(z, (1,)) == 0.0
    f = CocycleSpec(GroupSpec("free", 2), [{1: {(): 1.0, (1,): 2.0}}])
    ok &= hat_norm_sq(f, 0, (1,)) == 0.0 and rate(f, ((1,),)) == 0.0
    report(15, "endpoint-supported cocycles are exactly absorbing", ok)
