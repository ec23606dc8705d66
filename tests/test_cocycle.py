import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfock.cocycle import (
    CocycleSpec,
    GroupSpec,
    cocycle_value,
    encode_element,
    hat_norm_sq,
    load_cocycle_spec,
    parse_state,
    rate,
    simulate,
    transitions,
    z_splitting_spec,
)
from qfock.cocycle import _SEED_BLOCK, _pcg64_random, _pcg64_states
from qfock.errors import AbsorbingStateError, CocycleSpecError, SimulationInputError


# ---- group arithmetic ---------------------------------------------------------


def test_free_group_reduction():
    G = GroupSpec("free", 2)
    assert G.multiply((1, 2), (-2, -1)) == ()
    assert G.multiply((1,), (1,)) == (1, 1)
    assert G.inverse((1, -2)) == (2, -1)


def test_int_group():
    G = GroupSpec("int")
    assert G.multiply(3, -5) == -2
    assert G.inverse(4) == -4
    assert G.letters(-3) == [-1, -1, -1]


def test_bad_group_kind():
    with pytest.raises(CocycleSpecError):
        GroupSpec("cyclic", 3)


# ---- cocycle extension ----------------------------------------------------------


def test_cocycle_vanishes_at_identity():
    spec = z_splitting_spec()
    assert cocycle_value(spec, 0, 0) == {}


def test_mutating_a_returned_value_changes_no_later_result():
    # rate and transitions read the memoized values; callers get copies
    spec = z_splitting_spec()
    state = (3, 5)
    before = (cocycle_value(spec, 0, 3), rate(spec, state), transitions(spec, state))
    f = cocycle_value(spec, 0, 3)
    f[1] = 7.0
    f[9] = -2.0
    del f[0]
    cocycle_value(spec, 0, 5).clear()
    assert (cocycle_value(spec, 0, 3), rate(spec, state), transitions(spec, state)) == before


def test_z_splitting_values():
    spec = z_splitting_spec()
    assert cocycle_value(spec, 0, 3) == {0: 1.0, 1: 1.0, 2: 1.0}
    assert cocycle_value(spec, 0, 1) == {0: 1.0}


def test_cocycle_inverse_identity_exact():
    spec = z_splitting_spec()
    G = spec.group
    for n in (1, 2, 5):
        lhs = cocycle_value(spec, 0, -n)
        c_n = cocycle_value(spec, 0, n)
        rhs = {G.multiply(-n, s): -v for s, v in c_n.items()}
        assert lhs == rhs


@given(
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=6),
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=6),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_cocycle_identity_on_free_group(w1, w2):
    G = GroupSpec("free", 2)
    spec = CocycleSpec(
        G, [{1: {(): 1.0, (2,): -0.5}, 2: {(1,): 2.0}}]
    )
    g1 = ()
    for letter in w1:
        g1 = G.multiply(g1, (letter,))
    g2 = ()
    for letter in w2:
        g2 = G.multiply(g2, (letter,))
    lhs = cocycle_value(spec, 0, G.multiply(g1, g2))
    c2 = cocycle_value(spec, 0, g2)
    rhs = {G.multiply(g1, s): v for s, v in c2.items()}
    for s, v in cocycle_value(spec, 0, g1).items():
        rhs[s] = rhs.get(s, 0.0) + v
    rhs = {s: v for s, v in rhs.items() if v != 0.0}
    assert lhs.keys() == rhs.keys()
    for s in lhs:
        assert lhs[s] == pytest.approx(rhs[s], abs=1e-12)


# ---- hat norms and rates ----------------------------------------------------------


def test_hat_norm_z_splitting():
    spec = z_splitting_spec()
    for n in (1, 2, 3, 8):
        assert hat_norm_sq(spec, 0, n) == pytest.approx(n - 1.0, abs=1e-14)


def test_hat_norm_endpoint_support_is_zero():
    # value supported on {identity, g} only: both terms are subtracted
    spec = CocycleSpec(GroupSpec("int"), [{1: {0: 1.0, 1: -2.0}}])
    assert hat_norm_sq(spec, 0, 1) == 0.0
    assert rate(spec, (1,)) == 0.0


def test_hat_norm_rejects_identity():
    with pytest.raises(ValueError):
        hat_norm_sq(z_splitting_spec(), 0, 0)


def test_rate_examples():
    spec = z_splitting_spec()
    assert rate(spec, (3,)) == pytest.approx(2.0)
    assert rate(spec, (1, 1, 1)) == 0.0
    assert rate(spec, ()) == 0.0


# ---- transitions ---------------------------------------------------------------------


def test_transitions_z_splitting_from_three():
    spec = z_splitting_spec()
    moves = dict(transitions(spec, (3,)))
    assert moves == {(1, 2): pytest.approx(0.5), (2, 1): pytest.approx(0.5)}


def test_transitions_probabilities_sum_to_one():
    spec = z_splitting_spec()
    for state in [(5,), (3, 4), (2, 6, 3)]:
        total = sum(p for _, p in transitions(spec, state))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_transitions_absorbing_state_rejected():
    spec = z_splitting_spec()
    with pytest.raises(AbsorbingStateError):
        transitions(spec, (1,))


def test_transitions_conserve_product_and_grow_length():
    spec = z_splitting_spec()
    # exhaustive over all states reachable from (6)
    frontier = [(6,)]
    seen = set()
    while frontier:
        state = frontier.pop()
        if state in seen or rate(spec, state) == 0.0:
            continue
        seen.add(state)
        # rate = total minus part count, decreasing by exactly 1 per jump
        assert rate(spec, state) == pytest.approx(sum(state) - len(state))
        moves = transitions(spec, state)
        assert sum(p for _, p in moves) == pytest.approx(1.0, abs=1e-12)
        for new_state, p in moves:
            assert p > 0
            assert len(new_state) == len(state) + 1
            assert sum(new_state) == sum(state)
            assert all(g != 0 for g in new_state)
            frontier.append(new_state)


# ---- simulation ------------------------------------------------------------------------


def test_z_splitting_absorbs_in_exact_jump_count():
    spec = z_splitting_spec()
    rep = simulate(spec, (5,), horizon=1e9, n_paths=300, max_jumps=64, seed=7)
    assert rep.absorbed == 300
    assert all(j == 4 for j in rep.jump_counts)
    assert rep.survival == 1.0


def test_all_absorbing_spec_never_jumps():
    spec = CocycleSpec(GroupSpec("int"), [{1: {0: 1.0, 1: 1.0}}])
    rep = simulate(spec, (1, 1), horizon=10.0, n_paths=50, max_jumps=8, seed=1)
    assert rep.absorbed == 50
    assert all(j == 0 for j in rep.jump_counts)


def test_simulation_is_reproducible():
    spec = z_splitting_spec()
    a = simulate(spec, (6,), horizon=1e6, n_paths=100, max_jumps=32, seed=42)
    b = simulate(spec, (6,), horizon=1e6, n_paths=100, max_jumps=32, seed=42)
    assert json.dumps(a.to_jsonable(spec)) == json.dumps(b.to_jsonable(spec))


def test_simulation_censoring():
    spec = z_splitting_spec()
    rep = simulate(spec, (8,), horizon=1e9, n_paths=40, max_jumps=2, seed=3)
    assert rep.censored == 40
    assert rep.survival == 0.0
    assert rep.absorbed + rep.censored + rep.active_at_horizon == 40


def test_simulation_horizon_cuts_paths():
    spec = z_splitting_spec()
    rep = simulate(spec, (8,), horizon=1e-12, n_paths=40, max_jumps=64, seed=3)
    assert rep.active_at_horizon == 40
    assert all(j == 0 for j in rep.jump_counts)


def test_free_group_simulation_smoke():
    G = GroupSpec("free", 1)
    spec = CocycleSpec(G, [{1: {(): 1.0}}])
    rep = simulate(spec, ((1, 1, 1),), horizon=1e9, n_paths=50, max_jumps=16, seed=0)
    assert rep.absorbed == 50
    assert all(j == 2 for j in rep.jump_counts)


def test_simulation_rejects_negative_seed():
    with pytest.raises(SimulationInputError, match="seed"):
        simulate(z_splitting_spec(), (3,), horizon=1.0, n_paths=5, max_jumps=4, seed=-1)


# ---- random streams: the per-path generator loop as the oracle ------------------

# the rank-2 free-group spec of the benchmark's cocycle workload
FREE_RANK2 = {
    "group": {"kind": "free", "rank": 2},
    "cocycles": [
        {"generator_values": {"a": [{"element": "", "imag": 1.0}],
                              "b": [{"element": "", "imag": 1.0}]}},
        {"generator_values": {"a": [{"element": "", "imag": 0.5}],
                              "b": [{"element": "", "imag": 2.0}]}},
    ],
}


def simulate_per_path(spec, init, horizon, n_paths, max_jumps, seed):
    """One ``default_rng([seed, p])`` per path and one scalar draw per uniform;
    returns (jump_counts, absorbed, censored, active_at_horizon)."""
    jump_counts = []
    absorbed = censored = active = 0
    for p in range(n_paths):
        rng = np.random.default_rng([seed, p])
        state = init
        t = 0.0
        jumps = 0
        while True:
            R = rate(spec, state)
            if R <= 0.0:
                absorbed += 1
                break
            dt = -math.log1p(-rng.random()) / R
            if t + dt > horizon:
                active += 1
                break
            t += dt
            if jumps >= max_jumps:
                censored += 1
                break
            moves = transitions(spec, state)
            u = rng.random()
            acc = 0.0
            chosen = moves[-1][0]
            for s2, prob in moves:
                acc += prob
                if u < acc:
                    chosen = s2
                    break
            state = chosen
            jumps += 1
        jump_counts.append(jumps)
    return jump_counts, absorbed, censored, active


@pytest.mark.parametrize(
    "free, init, horizon, n_paths, max_jumps, seed, shows",
    [
        (False, "12", 1e9, 200, 64, 0, "absorbed"),
        (False, "12", 1e9, 200, 64, 3, "absorbed"),
        (False, "12", 1e9, 200, 64, 2**32 + 5, "absorbed"),
        (False, "12", 1e9, 200, 64, 2**200 + 1, "absorbed"),
        (True, "abbab,bba", 1e9, 200, 64, 3, "absorbed"),
        (True, "abAB", 0.7, 300, 40, 0, "active_at_horizon"),
        (False, "9,4", 1.5, 300, 6, 5_000_000_000, "active_at_horizon"),
        (False, "8", 1e9, 100, 1, 3, "censored"),
        (True, "abbab,bba", 1e9, 100, 4, 2**200 + 1, "censored"),
        # paths past 16 jumps draw more than one block of 32 uniforms
        (False, "20", 2.5, 100, 64, 2**32 + 5, "active_at_horizon"),
        # the second block of derived states
        (False, "5", 1e9, _SEED_BLOCK + 3, 64, 3, "absorbed"),
        # paths of one ragged block retire in different rounds: absorbed
        # beside active ones, censored beside active ones
        (True, "abAB", 0.7, _SEED_BLOCK + 7, 40, 0, "absorbed active_at_horizon"),
        (False, "9,4", 1.5, _SEED_BLOCK + 7, 6, 5_000_000_000, "censored active_at_horizon"),
        # 39 jumps: every path draws 79 uniforms
        (False, "40", 1e9, 20, 64, 1, "absorbed"),
        (False, "5", 1e9, 0, 64, 3, ""),
        (False, "5", 1e9, 2 * _SEED_BLOCK, 64, 3, "absorbed"),
    ],
)
def test_simulate_matches_per_path_generators(
    free, init, horizon, n_paths, max_jumps, seed, shows
):
    spec = load_cocycle_spec(FREE_RANK2) if free else z_splitting_spec()
    state = parse_state(spec, init)
    rep = simulate(spec, state, horizon, n_paths, max_jumps, seed)
    want = simulate_per_path(spec, state, horizon, n_paths, max_jumps, seed)
    assert (rep.jump_counts, rep.absorbed, rep.censored, rep.active_at_horizon) == want
    for outcome in shows.split():
        assert getattr(rep, outcome) > 0


@pytest.mark.parametrize("seed", [0, 3, 2**32 + 5, 2**200 + 1])
@pytest.mark.parametrize(
    "start, stop", [(0, 1), (_SEED_BLOCK - 1, _SEED_BLOCK + 1), (2**32 - 2, 2**32 + 2)]
)
def test_pcg64_states_match_seed_sequence(seed, start, stop):
    # from p = 2**32 on, p enters the entropy as two words
    want = [
        np.random.PCG64(np.random.SeedSequence([seed, p])).state["state"]
        for p in range(start, stop)
    ]
    streams = _pcg64_states(seed, start, stop)
    assert streams.dtype == np.uint64 and streams.shape == (4, stop - start)
    got = [(s_hi << 64 | s_lo, i_hi << 64 | i_lo) for s_hi, s_lo, i_hi, i_lo in streams.T.tolist()]
    assert got == [(w["state"], w["inc"]) for w in want]
    # the stepper's doubles are the generators' doubles, bit for bit
    draws = np.array([_pcg64_random(streams) for _ in range(70)]).T
    for p, row in zip(range(start, stop), draws):
        want_row = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, p])))
        assert row.tolist() == want_row.random(70).tolist()


def test_simulate_rates_each_visited_state_once(monkeypatch):
    import qfock.cocycle as cocycle

    rated, split = [], []
    inner_rate, inner_transitions = cocycle.rate, cocycle.transitions

    def count_rate(spec, state):
        rated.append(state)
        return inner_rate(spec, state)

    def count_transitions(spec, state, **kwargs):
        split.append(state)
        return inner_transitions(spec, state, **kwargs)

    # module-level names, so a rate() inside transitions() is counted too
    monkeypatch.setattr(cocycle, "rate", count_rate)
    monkeypatch.setattr(cocycle, "transitions", count_transitions)
    spec = z_splitting_spec()
    simulate(spec, (12,), 1e9, 2000, 64, 11)
    assert len(rated) == len(set(rated))
    assert len(split) == len(set(split))
    # every rated state is split except the absorbing all-ones state
    assert set(split) == set(rated) - {(1,) * 12}
    assert len(rated) > 1000


# ---- JSON schema -------------------------------------------------------------------------


def test_load_cocycle_spec_roundtrip(tmp_path):
    data = {
        "group": {"kind": "int"},
        "cocycles": [{"generator_values": {"1": [{"element": 0, "imag": 1.0}]}}],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    spec = load_cocycle_spec(str(path))
    assert spec.group.kind == "int"
    assert cocycle_value(spec, 0, 2) == {0: 1.0, 1: 1.0}


def test_load_cocycle_spec_free_group():
    data = {
        "group": {"kind": "free", "rank": 2},
        "cocycles": [
            {
                "generator_values": {
                    "a": [{"element": "", "imag": 1.0}, {"element": "aB", "imag": -0.5}]
                }
            }
        ],
    }
    spec = load_cocycle_spec(data)
    val = cocycle_value(spec, 0, (1,))
    assert val[()] == 1.0
    assert val[(1, -2)] == -0.5


def test_load_cocycle_spec_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"group": ')
    with pytest.raises(CocycleSpecError, match="line"):
        load_cocycle_spec(str(path))


def test_load_cocycle_spec_not_utf8(tmp_path):
    # a spec file that does not decode is a spec error naming the file
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(CocycleSpecError, match=r"bad\.json: not UTF-8 text \(byte 0xff at offset 0\)"):
        load_cocycle_spec(str(path))


def test_load_cocycle_spec_missing_fields():
    with pytest.raises(CocycleSpecError, match="group.kind"):
        load_cocycle_spec({"cocycles": []})
    with pytest.raises(CocycleSpecError, match="cocycles"):
        load_cocycle_spec({"group": {"kind": "int"}})
    with pytest.raises(CocycleSpecError, match="generator_values"):
        load_cocycle_spec({"group": {"kind": "int"}, "cocycles": [{}]})


@pytest.mark.parametrize(
    "imag", ["inf", "nan", float("inf"), float("nan"), True, None, [1.0], 10**400]
)
def test_load_cocycle_spec_rejects_non_finite_values(imag):
    data = {
        "group": {"kind": "free", "rank": 2},
        "cocycles": [
            {"generator_values": {"a": [{"element": "", "imag": 1.0}]}},
            {"generator_values": {"b": [{"element": "a", "imag": 1}, {"element": "", "imag": imag}]}},
        ],
    }
    with pytest.raises(CocycleSpecError, match=r"cocycles\[1\]\.generator_values\['b'\]\[1\]"):
        load_cocycle_spec(data)


def test_load_cocycle_spec_rejects_values_summing_past_the_float_range():
    pair = {"element": 0, "imag": 1e308}
    data = {"group": {"kind": "int"}, "cocycles": [{"generator_values": {"1": [pair, pair]}}]}
    with pytest.raises(CocycleSpecError, match="finite real"):
        load_cocycle_spec(data)


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan"), True, "1", 1j])
def test_cocycle_spec_rejects_non_finite_values(value):
    with pytest.raises(CocycleSpecError, match="finite real"):
        CocycleSpec(GroupSpec("int"), [{1: {0: 1.0, 1: value}}])


def test_rate_rejects_overflowing_values():
    spec = CocycleSpec(GroupSpec("int"), [{1: {1: 1e154, 2: 1e154}}])
    # at 2 the interior terms sit at 1 and 3, each squaring to 1e308; their sum overflows
    assert cocycle_value(spec, 0, 2) == {1: 1e154, 2: 2e154, 3: 1e154}
    for call in (rate, transitions):
        with pytest.raises(CocycleSpecError, match=r"\(2,\)"):
            call(spec, (2,))
    with pytest.raises(CocycleSpecError):
        simulate(spec, (2,), horizon=1.0, n_paths=1, max_jumps=4, seed=0)


def test_cocycle_spec_accepts_finite_numbers():
    spec = CocycleSpec(GroupSpec("int"), [{1: {0: 1, 1: np.float32(0.5), 2: np.int64(-2)}}])
    assert hat_norm_sq(spec, 0, 1) == 4.0
    assert hat_norm_sq(spec, 0, 2) == 1.5**2 + 2.0**2


def test_parse_state_and_encode():
    spec = z_splitting_spec()
    assert parse_state(spec, "5") == (5,)
    assert parse_state(spec, "3, 2") == (3, 2)
    assert encode_element(spec, -4) == -4
    fspec = load_cocycle_spec(
        {
            "group": {"kind": "free", "rank": 2},
            "cocycles": [{"generator_values": {"a": [{"element": "", "imag": 1.0}]}}],
        }
    )
    assert parse_state(fspec, "ab,BA") == ((1, 2), (-2, -1))
    assert encode_element(fspec, (1, -2)) == "aB"
