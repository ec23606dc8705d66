import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfock
from qfock import make_context
from qfock.cli import json_dumps_stable, main
from qfock.deformation import xi_inverse_neumann
from qfock.derivations import conjugate_variable, fisher_estimate, lipschitz_diagnostic


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


def test_cocycle_sim_requires_init(capsys):
    code, _, err = run(["cocycle-sim", "--spec", "z-splitting"], capsys)
    assert code == 2
    assert "init" in err


def test_json_dumps_stable_formats():
    s = json_dumps_stable({"b": 0.1, "a": [1, True, None], "c": float("inf")})
    assert s == '{"a":[1,true,null],"b":0.10000000000000001,"c":"inf"}\n'


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
    ],
)
def test_bad_input_exits_2_without_traceback(argv):
    # a real process, so an uncaught exception shows as a traceback and exit 1
    proc = subprocess.run(
        [sys.executable, "-m", "qfock", *argv],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


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


def test_conjugate_columns_match_library(capsys):
    # one pass of the series feeds every column; each must equal the library
    # function that computes it on its own
    ctx = make_context(2, 0.05, 3)
    code, out, _ = run(
        ["conjugate", "--n", "2", "--q", "0.05", "--level", "3", "--terms", "6"], capsys
    )
    assert code == 0
    header, *lines = out.strip().split("\r\n")
    rows = [dict(zip(header.split(","), map(float, ln.split(",")))) for ln in lines]
    assert [row["n"] for row in rows] == [1, 2, 3, 4, 5, 6]
    residuals = xi_inverse_neumann(ctx, 6).residuals
    cv = {j: conjugate_variable(j, 6, ctx, series=True)[1] for j in (1, 2)}
    for row in rows:
        n = int(row["n"])
        assert row["u_residual"] == pytest.approx(residuals[n - 1], rel=1e-12)
        assert row["fisher"] == pytest.approx(fisher_estimate(n, ctx), rel=1e-12)
        for j in (1, 2):
            assert row[f"cv_norm_{j}"] == pytest.approx(cv[j][n], rel=1e-12)
            for k in (1, 2):
                lip = lipschitz_diagnostic(j, k, n, ctx)["lr_op_norm"]
                assert row[f"lipschitz_{j}{k}"] == pytest.approx(lip, rel=1e-12)


def test_neumann_convergence_script():
    script = Path(__file__).resolve().parents[1] / "scripts" / "neumann_convergence.py"
    proc = subprocess.run(
        [sys.executable, str(script), "0.05", "2", "3", "4"],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().split("\n")
    assert header == "n,residual,cv_norm_1,cv_norm_2,fisher"
    assert [r.split(",")[0] for r in rows] == ["1", "2", "3", "4"]
    for name, args in [
        ("constants_sweep.py", ["3"]),
        ("splitting_chain_demo.py", ["4", "50", "1"]),
    ]:
        proc = subprocess.run(
            [sys.executable, str(script.with_name(name)), *args],
            capture_output=True, text=True, env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
