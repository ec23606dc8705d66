import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfock
from qfock import fock, make_context
from qfock.cli import _SUITES, json_dumps_stable, main
from qfock.deformation import neumann_series, xi_inverse_neumann
from qfock.derivations import conjugate_variables

from dense_oracle import dense_fdq_top


def _src_env() -> dict:
    # subprocesses import the package from this checkout
    env = dict(os.environ)
    src = str(Path(qfock.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_default_grid(capsys):
    code, out, _ = run(["constants"], capsys)
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "q,N,c_q,nu,rho,nu_lt_1,rho_lt_1"
    row0 = lines[1].split(",")
    assert row0[0] == "0" and row0[1] == "5"
    assert row0[2] == "1" and row0[3] == "0" and row0[4] == "0"
    assert row0[5] == "true" and row0[6] == "true"
    # all threshold rows report the bound below one
    for line in lines[2:]:
        cells = line.split(",")
        assert float(cells[3]) < 1 or float(cells[4]) < 1


def test_constants_pole_flagged(capsys):
    code, out, _ = run(["constants", "--grid", "0.6:2"], capsys)
    assert code == 0
    cells = out.strip().split("\r\n")[1].split(",")
    assert cells[3] == "inf"
    assert cells[5] == "false"


def test_constants_bad_grid(capsys):
    code, _, err = run(["constants", "--grid", "nope"], capsys)
    assert code == 2
    assert "grid" in err


def test_constants_json_format(capsys):
    code, out, _ = run(["constants", "--grid", "0:3", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0]["c_q"] == 1


def test_verify_all_passes(capsys):
    code, out, _ = run(
        ["verify", "--suite", "all", "--n", "2", "--q", "0.1", "--level", "4"],
        capsys,
    )
    data = json.loads(out)
    assert data["passed"] is True
    assert code == 0
    for checks in data["suites"].values():
        for c in checks:
            assert c["passed"], c


def test_verify_number_free_case_exact(capsys):
    code, out, _ = run(
        ["verify", "--suite", "number", "--q", "0", "--level", "4"], capsys
    )
    data = json.loads(out)
    assert code == 0
    assert data["suites"]["number"][0]["value"] < 1e-12


def test_verify_derivations_at_dim_255_builds_no_stack(capsys, monkeypatch):
    # every word-operator store is checked against errors.STORE_BYTE_CAP
    # before it is built; with the cap at 0 bytes any store would exit 2,
    # and the suite asks for none of them
    from qfock import errors

    monkeypatch.setattr(errors, "STORE_BYTE_CAP", 0)
    code, out, _ = run(["verify", "--suite", "derivations", "--n", "2", "--q", "0.1", "--level", "7"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_unknown_suite(capsys):
    code, _, err = run(["verify", "--suite", "bogus"], capsys)
    assert code == 2
    assert "unknown suite" in err


def test_gram_command(capsys):
    code, out, _ = run(["gram", "--n", "2", "--q", "0.3", "--level", "3"], capsys)
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0].startswith("level,dim,min_eig")
    assert len(lines) == 5


@pytest.mark.parametrize("n, q, level", [(2, 0.3, 6), (2, -0.3, 5), (3, 0.1, 3), (1, 0.4, 4)])
def test_gram_orthonormality_matches_pairwise_q_inner(capsys, n, q, level):
    # the per-level GEMM against one q_inner per pair of level vectors: both
    # sit at rounding level (~1e-15) and agree within 1e-14
    code, out, _ = run(
        ["gram", "--n", str(n), "--q", str(q), "--level", str(level), "--format", "json"],
        capsys,
    )
    assert code == 0
    ctx = make_context(n, q, level)
    for row in json.loads(out)["rows"]:
        vecs = fock.orthonormal_vectors(row["level"], ctx)
        pairwise = max(
            abs(fock.q_inner(a, b, ctx).real - (i == j))
            for i, a in enumerate(vecs)
            for j, b in enumerate(vecs)
        )
        assert abs(row["orthonormality_residual"] - pairwise) <= 1e-14
        assert row["orthonormality_residual"] <= 1e-13


def test_gram_orthonormality_residual_above_64_words(capsys):
    # levels of more than 64 words get the residual too; at q = 0.9 the
    # level-7 value (~6e-10) is far from 0.  The oracle takes the inner
    # products of orthonormal_vectors in complex arithmetic
    code, out, _ = run(
        ["gram", "--n", "2", "--q", "0.9", "--level", "7", "--format", "json"], capsys
    )
    assert code == 0
    ctx = make_context(2, 0.9, 7)
    rows = json.loads(out)["rows"]
    for row in rows:
        n = row["level"]
        V = np.array([v.level(n) for v in fock.orthonormal_vectors(n, ctx)])
        Gm = (V.conj() @ fock.gram(n, ctx).gamma @ V.T).real
        want = np.abs(Gm - np.eye(len(V))).max()
        assert row["orthonormality_residual"] == pytest.approx(want, rel=1e-6, abs=1e-14)
    assert rows[7]["orthonormality_residual"] > 1e-10


def test_xi_command(capsys):
    code, out, _ = run(["xi", "--n", "2", "--q", "0.2", "--level", "3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["hs_consistency_residual"] < 1e-10
    assert data["tail_norms"][-1]["tail_norm"] == 0


def test_conjugate_free_case(capsys):
    code, out, _ = run(
        ["conjugate", "--n", "2", "--q", "0", "--level", "3", "--terms", "2"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    header = lines[0].split(",")
    fisher_col = header.index("fisher")
    for line in lines[1:]:
        assert float(line.split(",")[fisher_col]) == pytest.approx(2.0)


def test_conjugate_single_letter_has_one_lipschitz_column(capsys):
    code, out, _ = run(["conjugate", "--n", "1", "--q", "0.05", "--level", "3", "--terms", "2"], capsys)
    assert code == 0
    header, *lines = out.strip().split("\r\n")
    assert header == "n,u_residual,cv_norm_1,fisher,lipschitz_11"
    assert all(len(line.split(",")) == 5 for line in lines)


def test_conjugate_warning_banner():
    # a real process, so the engine's warning reaches stderr; the condition
    # is reported there once and in the CSV banner
    proc = subprocess.run(
        [sys.executable, "-m", "qfock", "conjugate", "--n", "2", "--q", "0.5",
         "--level", "3", "--terms", "1"],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# WARNING")
    assert proc.stderr.count("no convergence guarantee") == 1


def test_cocycle_sim_builtin(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        [
            "cocycle-sim",
            "--spec",
            "z-splitting",
            "--init",
            "5",
            "--paths",
            "100",
            "--max-jumps",
            "16",
            "--seed",
            "9",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["absorbed"] == 100
    assert set(data["jump_counts"]) == {4}


def test_cocycle_sim_byte_identical(capsys, tmp_path):
    args = [
        "cocycle-sim", "--spec", "z-splitting", "--init", "4",
        "--paths", "50", "--seed", "3",
    ]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(args + ["--out", str(p1)], capsys)
    run(args + ["--out", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()


def test_cocycle_sim_missing_spec_file(capsys):
    code, _, err = run(
        ["cocycle-sim", "--spec", "/nonexistent.json", "--init", "3"], capsys
    )
    assert code == 2
    assert "No such file" in err or "nonexistent" in err


@pytest.mark.parametrize(
    "field, group, generator_values",
    [
        ("group.rank", {"kind": "free", "rank": "x"}, {"a": []}),
        ("group.rank", {"kind": "free", "rank": 2.5}, {"a": []}),
        ("group.rank", {"kind": "free", "rank": True}, {"a": []}),
        ("group.rank", {"kind": "int", "rank": 0}, {"1": []}),
        ("generator_values", {"kind": "int"}, [1, 2]),
    ],
)
def test_cocycle_sim_malformed_spec_exits_2(capsys, tmp_path, field, group, generator_values):
    spec = {"group": group, "cocycles": [{"generator_values": generator_values}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(["cocycle-sim", "--spec", str(path), "--init", "1"], capsys)
    assert code == 2
    assert field in err


@pytest.mark.parametrize("imag", ['"inf"', '"nan"', "NaN", "-Infinity", "1e400", "true", '"0.5"'])
def test_cocycle_sim_non_finite_value_exits_2(capsys, tmp_path, imag):
    path = tmp_path / "spec.json"
    path.write_text(
        '{"group": {"kind": "int"}, "cocycles": [{"generator_values": '
        '{"1": [{"element": 1, "imag": %s}]}}]}' % imag
    )
    code, out, err = run(["cocycle-sim", "--spec", str(path), "--init", "3", "--paths", "3"], capsys)
    assert code == 2
    assert out == ""
    assert "cocycles[0].generator_values['1'][0]" in err
    assert "finite" in err


@pytest.mark.parametrize(
    "values", [[(1, 1e200)], [(1, 1e154), (2, 1e154)]], ids=["square", "sum_of_squares"]
)
def test_cocycle_sim_overflowing_rate_exits_2(capsys, tmp_path, values):
    # finite values whose squares, or the sum of them, overflow the rate
    entries = [{"element": e, "imag": v} for e, v in values]
    spec = {"group": {"kind": "int"}, "cocycles": [{"generator_values": {"1": entries}}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(["cocycle-sim", "--spec", str(path), "--init", "3", "--paths", "3"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "(3,)" in err


def test_cocycle_sim_requires_init(capsys):
    code, _, err = run(["cocycle-sim", "--spec", "z-splitting"], capsys)
    assert code == 2
    assert "init" in err


def test_json_dumps_stable_formats():
    s = json_dumps_stable({"b": 0.1, "a": [1, True, None], "c": float("inf")})
    assert s == '{"a":[1,true,null],"b":0.10000000000000001,"c":"inf"}\n'
    assert json_dumps_stable([True, 1, np.int64(2), 3.0, []]) == "[true,1,2,3,[]]\n"


@pytest.mark.parametrize(
    "items", [[True, 1, np.int64(2), 3.0, []], list(range(-5000, 5000)), [], [7]]
)
def test_json_dumps_stable_int_lists_render_as_items(items):
    # a list of plain ints is joined at once; it must give the bytes of
    # rendering each item on its own
    per_item = "[" + ",".join(json_dumps_stable(v)[:-1] for v in items) + "]\n"
    assert json_dumps_stable(items) == per_item
    assert json_dumps_stable(tuple(items)) == per_item


def test_verify_rejects_invalid_q(capsys):
    code, _, err = run(["verify", "--suite", "gram", "--q", "1.5"], capsys)
    assert code == 2
    assert "-1 < q < 1" in err


def test_cap_override_flag(capsys):
    code, _, err = run(
        ["gram", "--n", "3", "--q", "0.1", "--level", "6", "--cap-override", "100"],
        capsys,
    )
    assert code == 2
    assert "cap" in err.lower()


@pytest.mark.parametrize(
    "argv",
    [
        ["xi", "--trunc-q", "7", "--level", "3"],
        ["xi", "--trunc-q", "-1", "--level", "3"],
        ["cocycle-sim", "--spec", "z-splitting", "--init", "0"],
        ["cocycle-sim", "--spec", "z-splitting", "--init", "3", "--max-jumps", "0"],
        ["verify", "--level", "1"],
        ["verify", "--suite", "bozejko", "--level", "1"],
        ["verify", "--suite", "derivations", "--n", "1", "--level", "2"],
        ["verify", "--suite", "all", "--n", "1", "--level", "2"],
        ["verify", "--suite", "number", "--level", "0"],
        ["verify", "--suite", "gram", "--level", "-1"],
        ["conjugate", "--terms", "0"],
        ["conjugate", "--terms", "-1"],
        ["constants", "--grid", "1.5:2"],
        ["constants", "--grid", "0.1:-1"],
        ["constants", "--grid", "0.5:0"],
        ["cocycle-sim", "--spec", "z-splitting", "--init", "3", "--paths", "-1"],
        ["verify", "--suite", "conjugate", "--n", "1", "--level", "0", "--q", "0"],
        ["cocycle-sim", "--spec", "z-splitting", "--init", "3", "--horizon", "nan"],
        ["cocycle-sim", "--spec", "z-splitting", "--init", "3", "--horizon", "-1"],
        ["cocycle-sim", "--spec", "{dir}", "--init", "1"],
        ["gram", "--level", "2", "--out", "{dir}"],
        ["cocycle-sim", "--spec", "z-splitting", "--init", "3", "--seed", "-1"],
        ["cocycle-sim", "--spec", "z-splitting", "--init", "a"],
        ["cocycle-sim", "--spec", "z-splitting", "--init", "1.5"],
        ["verify", "--suite", "number", "--level", "2", "--seed", "-1"],
    ],
)
def test_bad_input_exits_2_without_traceback(argv, tmp_path):
    # a real process, so an uncaught exception shows as a traceback and exit 1;
    # "{dir}" stands for a directory where a file is expected
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "qfock", *argv],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["gram", "--level", "2", "--q"],
        ["cocycle-sim", "--spec", "z-splitting", "--init", "3", "--paths", "5", "--horizon"],
    ],
)
def test_negative_exponent_value_as_separate_argument(capsys, argv):
    # argparse alone refuses "--q -1e-05" as a flag without its value
    separate = run([*argv, "-1e-05"], capsys)
    attached = run([*argv[:-1], f"{argv[-1]}=-1e-05"], capsys)
    assert separate == attached
    assert "expected one argument" not in separate[2]


@pytest.mark.parametrize(
    "argv, value, code",
    [
        (["constants", "--grid"], "-0.3:2", 0),
        (["cocycle-sim", "--spec", "z-splitting", "--paths", "5", "--init"], "-3,5", 0),
        (["gram", "--level", "2", "--q"], "-inf", 2),
    ],
)
def test_negative_leading_value_as_separate_argument(capsys, argv, value, code):
    # a grid pair, a tuple or a non-finite number that starts with a minus
    # sign is a value too
    separate = run([*argv, value], capsys)
    attached = run([*argv[:-1], f"{argv[-1]}={value}"], capsys)
    assert separate == attached
    assert separate[0] == code and "expected one argument" not in separate[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--grid", "0.995:2"],
        ["constants", "--grid", "0.999:2"],
        ["verify", "--suite", "bozejko", "--n", "2", "--q", "0.997", "--level", "3"],
    ],
)
def test_constants_near_one_report_inf(capsys, argv):
    # c_q**3, c_q**1.5 or c_q itself overflows a float: reported as inf
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert "inf" in out


def test_unexpected_exception_exits_3_in_one_line(capsys, monkeypatch):
    import qfock.cli as cli

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_gram", crash)
    code, out, err = run(["gram", "--level", "2"], capsys)
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: boom\n"
    assert err.count("\n") == 1 and "Traceback" not in err


def _exits_3_on_eigensolver_failure(argv, capsys, monkeypatch):
    import qfock.operators as operators

    monkeypatch.setattr(operators, "_LANCZOS_MAX_STEPS", 3)
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("internal error: EigensolverError: ") and err.count("\n") == 1
    assert "did not converge in 3 steps" in err


def test_eigensolver_failure_exits_3(capsys, monkeypatch):
    # a Lanczos run that neither converges nor exhausts its Krylov space is
    # an internal failure, not bad input
    _exits_3_on_eigensolver_failure(["xi", "--level", "4", "--trunc-q", "2"], capsys, monkeypatch)


def test_eigensolver_failure_in_a_top_singular_value_exits_3(capsys, monkeypatch):
    # the 273-square Gram blocks at (3, 0.1, 5) take their top singular
    # values from Lanczos: a failure there is internal too, never a failed
    # check (exit 1)
    argv = ["verify", "--suite", "bozejko", "--n", "3", "--q", "0.1", "--level", "5"]
    _exits_3_on_eigensolver_failure(argv, capsys, monkeypatch)


@pytest.mark.parametrize(
    "argv,runs,matvecs",
    [
        ("conjugate --n 2 --q 0.05 --level 4 --terms 20", 60, 3152),
        ("verify --suite all", 24, 604),
        ("xi --n 2 --q 0.1 --level 6 --trunc-q 5", 2, 84),
        ("verify --suite bozejko --n 3 --q 0.1 --level 5 --seed 1", 25, 712),
    ],
)
def test_lanczos_work_of_the_benchmark_commands(argv, runs, matvecs, capsys, monkeypatch):
    # the Lanczos runs and matvecs of the doubled-space commands of the
    # benchmark, from the fixed PCG64 uniform starts (the Bozejko suite's
    # count depends on the seed of its random trials)
    import qfock.deformation as deformation
    import qfock.operators as operators

    inner, seen = operators._lanczos, []

    def lanczos(matvec, v, dtype):
        seen.append(0)

        def counted(x):
            seen[-1] += 1
            return matvec(x)

        return inner(counted, v, dtype)

    monkeypatch.setattr(operators, "_lanczos", lanczos)
    monkeypatch.setattr(deformation, "_lanczos", lanczos)
    code, _, _ = run(argv.split(), capsys)
    assert code == 0
    assert (len(seen), sum(seen)) == (runs, matvecs)


def test_verify_runs_without_scipy():
    # the eigenvalue solver is numpy-only: a real process at d^2 = 961
    # never imports scipy
    code = (
        "import runpy, sys\n"
        "sys.argv = ['qfock', 'verify', '--suite', 'all', '--n', '2', '--q', '0.1', '--level', '4']\n"
        "try:\n"
        "    runpy.run_module('qfock', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "argv", ["xi --level 4", "conjugate --level 3 --terms 3", "gram --level 4"]
)
def test_commands_leave_numpy_random_unloaded(argv):
    # the Lanczos starts are PCG64 uniforms drawn without numpy.random; only
    # verify's seeded inputs load it
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['qfock', *{argv.split()!r}]\n"
        "try:\n"
        "    runpy.run_module('qfock', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", code], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.filterwarnings("ignore::qfock.errors.NonConvergenceWarning")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 3),
    level=st.integers(-1, 3),
    q=st.floats(-0.6, 0.6, exclude_min=True, exclude_max=True)
    | st.sampled_from([-1.0, 1.0, math.nan]),
    command=st.sampled_from(
        [["verify", "--suite", s] for s in [*sorted(_SUITES), "all"]]
        + [["xi"]]
        + [["conjugate", "--terms", str(t)] for t in (1, 2, 3)]
    ),
)
def test_cli_fuzz_exit_codes(n, level, q, command):
    # any small configuration either runs (0 or 1) or is refused as bad
    # input (2); a crash would exit 3
    argv = [*command, f"--n={n}", f"--q={q!r}", f"--level={level}"]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())


@pytest.mark.parametrize(
    "suite, level, need",
    [
        ("all", 2, 3),
        ("derivations", 2, 3),
        ("bozejko", 1, 2),
        ("operators", 0, 1),
        ("conjugate", 0, 1),
    ],
)
def test_verify_names_minimum_level(capsys, suite, level, need):
    code, out, err = run(["verify", "--suite", suite, "--level", str(level)], capsys)
    assert code == 2 and out == ""
    assert f"needs truncation level >= {need}, got {level}" in err


def test_conjugate_names_minimum_level(capsys):
    # at L = 0 there is no level for a conjugate variable to live on
    argv = ["conjugate", "--n", "2", "--q", "0.1", "--level", "0", "--terms", "2"]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "command 'conjugate' needs truncation level >= 1, got 0" in err


@pytest.mark.filterwarnings("ignore::qfock.errors.NonConvergenceWarning")
@pytest.mark.parametrize("extra", [[], ["--cap-override", "100000"]])
def test_stack_cap_is_a_fixed_limit(capsys, monkeypatch, extra):
    # one fixed byte limit on every word-operator store: the sandwiched
    # store stops xi at dim 511 (528 MiB), the plain stacks stop conjugate
    # at dim 255 (126.5 MiB)
    monkeypatch.setenv("QFOCK_SIZE_CAP", "100000")
    argv = ["xi", "--n", "2", "--q", "0.1", "--level", "8", "--trunc-q", "6", *extra]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "store needs 528.1 MiB at dim 511 (553732168 > 67108864 bytes); 64 MiB is a fixed limit" in err
    assert "neither QFOCK_SIZE_CAP nor --cap-override raises" in err
    argv = ["conjugate", "--n", "2", "--q", "0.1", "--level", "7", "--terms", "3", *extra]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "stack needs 126.5 MiB at dim 255 (132651000 > 67108864 bytes); 64 MiB is a fixed limit" in err
    assert "neither QFOCK_SIZE_CAP nor --cap-override raises" in err


def test_store_byte_cap_stops_xi(capsys, monkeypatch):
    # with the cap one byte below the sandwiched store at (2, 6), xi exits 2
    # before the store is allocated
    from qfock import errors
    from qfock.deformation import _basis_split

    n = [idx.size for idx, _, _ in _basis_split(make_context(2, 0.1, 6))]
    nbytes = 8 * sum(n[y] * n[x ^ y] * n[x] for x in range(2) for y in range(2))
    monkeypatch.setattr(errors, "STORE_BYTE_CAP", nbytes - 1)
    code, out, err = run(["xi", "--n", "2", "--q", "0.1", "--level", "6", "--trunc-q", "5"], capsys)
    assert code == 2 and out == ""
    assert f"store needs {nbytes / 2**20:.1f} MiB at dim 127 ({nbytes} > {nbytes - 1} bytes)" in err


def test_store_byte_cap_stops_the_plain_stacks(capsys, monkeypatch):
    # with the cap one byte below 8 dim**3 at (2, 5), the sandwiched store
    # (963144 bytes) passes and conjugate exits 2 at its first plain stack
    from qfock import errors

    nbytes = 8 * 63**3
    monkeypatch.setattr(errors, "STORE_BYTE_CAP", nbytes - 1)
    code, out, err = run(["conjugate", "--n", "2", "--q", "0.05", "--level", "5", "--terms", "3"], capsys)
    assert code == 2 and out == ""
    assert f"dense word-operator stack needs 1.9 MiB at dim 63 ({nbytes} > {nbytes - 1} bytes)" in err


def test_malformed_size_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("QFOCK_SIZE_CAP", "abc")
    code, out, err = run(["gram", "--level", "2"], capsys)
    assert code == 2 and out == ""
    assert "QFOCK_SIZE_CAP must be an integer, got 'abc'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--format", "csv"],
        ["gram", "--seed", "1"],
        ["xi", "--seed", "1"],
        ["xi", "--format", "json"],
        ["conjugate", "--seed", "1"],
        ["conjugate", "--format", "csv"],
    ],
)
def test_commands_reject_flags_they_ignore(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "N, q",
    [
        pytest.param(2, 0.05, id="2"),
        pytest.param(3, 0.05, id="3"),
        pytest.param(
            2, -0.1, id="2-q-0.1",
            marks=pytest.mark.filterwarnings("ignore::qfock.errors.NonConvergenceWarning"),
        ),
    ],
)
def test_conjugate_columns_match_oracles(capsys, N, q):
    # u_residual is the residual that xi_inverse_neumann reports, and every
    # lipschitz_jk cell is the top singular value of the dense doubled-space
    # action of d_k xi_j (built by the oracles, not by the library's change of
    # basis), which the matrix-free Lanczos approaches from below
    ctx = make_context(N, q, 3)
    code, out, _ = run(
        ["conjugate", "--n", str(N), "--q", str(q), "--level", "3", "--terms", "6"], capsys
    )
    assert code == 0
    # a q < 0 run outside the convergence guarantee opens with a banner line
    header, *lines = [ln for ln in out.strip().split("\r\n") if not ln.startswith("#")]
    rows = [dict(zip(header.split(","), map(float, ln.split(",")))) for ln in lines]
    assert [row["n"] for row in rows] == [1, 2, 3, 4, 5, 6]
    assert [row["u_residual"] for row in rows] == xi_inverse_neumann(ctx, 6).residuals
    for row, (n, _, U) in zip(rows, islice(neumann_series(ctx, 6), 1, None)):
        for j, v in enumerate(conjugate_variables(U, ctx), start=1):
            for k in range(1, N + 1):
                top = dense_fdq_top(v, k)
                cell = row[f"lipschitz_{j}{k}"]
                assert top * (1 - 1e-10) <= cell <= top * (1 + 1e-12), (n, j, k)


def test_scripts_run():
    script = Path(__file__).resolve().parents[1] / "scripts" / "constants_sweep.py"
    proc = subprocess.run(
        [sys.executable, str(script), "3"], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
