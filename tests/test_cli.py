import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfock
from qfock.cli import json_dumps_stable, main


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


def test_conjugate_warning_banner(capsys):
    code, out, err = run(
        ["conjugate", "--n", "2", "--q", "0.5", "--level", "3", "--terms", "1"],
        capsys,
    )
    assert code == 0
    assert out.startswith("# WARNING")
    assert "no convergence guarantee" in err


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
    ],
)
def test_bad_input_exits_2_without_traceback(argv):
    # a real process, so an uncaught exception shows as a traceback and exit 1
    env = dict(os.environ)
    src = str(Path(qfock.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qfock", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
