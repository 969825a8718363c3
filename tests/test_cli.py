import json
import math
import os
import subprocess
import sys

import pytest

from absarith.arakelov import ScaleValue
from absarith.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_witt_tau(capsys):
    result = run_json(capsys, "witt", "tau", "--endo", "[0,2,1]")
    assert result["outputs"] == {"2": 1}
    assert result["command"] == "witt tau"
    assert result["version"]


def test_witt_ghost(capsys):
    result = run_json(capsys, "witt", "ghost", "--elt", '{"3":1}', "--n", "6")
    assert result["outputs"] == {"ghost": 3}


def test_witt_mul(capsys):
    result = run_json(capsys, "witt", "mul", "--a", '{"2":1}', "--b", '{"3":1}')
    assert result["outputs"] == {"6": 1}


def test_witt_frob_versch_basis(capsys):
    assert run_json(capsys, "witt", "frob", "--n", "2", "--elt", '{"2":1}')["outputs"] == {"1": 2}
    assert run_json(capsys, "witt", "versch", "--n", "2", "--elt", '{"3":1}')["outputs"] == {"6": 1}
    assert run_json(capsys, "witt", "basis", "--elt", '{"2":1}')["outputs"] == {"1": 1, "2": 1}


def test_theta_h0_divisor(capsys):
    # divisor of degree zero up to linear equivalence: same h0 as --deg 0
    result = run_json(
        capsys, "theta", "h0", "--divisor", '{"finite":{"2":1},"arch":{"exact_exp":"1/2"}}'
    )
    byt = run_json(capsys, "theta", "h0", "--deg", "0")
    assert abs(result["outputs"]["h0"] - byt["outputs"]["h0"]) < 1e-12


def test_theta_verify(capsys):
    result = run_json(capsys, "theta", "verify", "--deg", "0", "--eps", "1e-12")
    assert result["outputs"]["abs_difference"] < 1e-10


def test_gspace_pi_float_divisor(capsys):
    result = run_json(
        capsys, "gspace", "pi", "--divisor", '{"finite":{},"arch":{"float":0.2}}', "--k", "2"
    )
    assert result["outputs"]["pi0"] == "trivial"  # 2 <= 2 exp(0.2)
    assert result["outputs"]["pi1_count"] == 5  # floor(e^0.2) = 1, ball count in Z^2
    assert result["outputs"]["pi_higher_trivial"] == []


def test_theta_rr(capsys):
    result = run_json(capsys, "theta", "rr", "--deg", "2")
    assert abs(result["outputs"]["defect"]) < 1e-9


def test_theta_mc_deterministic(capsys):
    argv = ("theta", "mc", "--deg", "0", "--samples", "50000", "--seed", "42")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    a, b = json.loads(first[1]), json.loads(second[1])
    a.pop("timing_ms"), b.pop("timing_ms")
    assert a == b
    assert a["seed"] == 42


def test_gspace_delannoy_csv(capsys):
    code, out, err = run(capsys, "gspace", "delannoy", "--n", "8", "--k", "8", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10  # header plus rows 0..8
    table = [[int(x) for x in line.split(",")[1:]] for line in lines[1:]]
    for n in range(9):
        for k in range(9):
            assert table[n][k] == table[k][n]
    assert table[2][2] == 13


def test_gspace_pi(capsys):
    result = run_json(
        capsys, "gspace", "pi", "--divisor", '{"finite":{},"arch":{"exact_exp":"1/3"}}', "--k", "1"
    )
    assert result["outputs"]["pi0"] == 2
    assert result["outputs"]["pi1_count"] == 1
    assert all(flag for _, flag in result["outputs"]["pi_higher_trivial"])


def test_gspace_pi_trivial_prints_one(capsys):
    result = run_json(
        capsys, "gspace", "pi", "--divisor", '{"finite":{},"arch":{"exact_exp":"1"}}', "--k", "1"
    )
    assert result["outputs"]["pi0"] == 1
    assert result["outputs"]["pi1_count"] == 3
    at_k3 = run_json(
        capsys, "gspace", "pi", "--divisor", '{"finite":{},"arch":{"exact_exp":"1"}}', "--k", "3"
    )
    assert at_k3["outputs"]["pi0"] == "nontrivial"


def test_global_csv_format_flag(capsys):
    code, out, err = run(capsys, "--format", "csv", "gspace", "delannoy", "--n", "2", "--k", "2")
    assert code == 0
    assert out.splitlines()[0] == "n/k,0,1,2"
    assert out.splitlines()[-1] == "2,1,5,13"


def test_dk_check(capsys):
    result = run_json(
        capsys, "dk", "check", "--hom", '{"domain":[2],"codomain":[4],"matrix":[[2]]}'
    )
    assert result["outputs"]["pi0"] == [2]
    assert result["outputs"]["pi1"] == []


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "witt", "tau", "--endo", "[1,2,1]")
    assert code == 3 and "error" in err
    code, out, err = run(capsys, "theta", "h0", "--divisor", '{"finite":{"4":1}}')
    assert code == 3
    code, out, err = run(capsys, "witt", "tau", "--endo", "not json")
    assert code == 3


def test_cap_error_exit_code(capsys):
    code, out, err = run(
        capsys,
        "dk",
        "check",
        "--hom",
        '{"domain":[16],"codomain":[16],"matrix":[[1]]}',
        "--cap",
        "10",
    )
    assert code == 4


def test_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["witt", "tau"])  # missing --endo
    assert exc.value.code == 2


def test_reruns_byte_identical(capsys):
    argv = ("gspace", "pi", "--divisor", '{"finite":{"2":1},"arch":{"exact_exp":"1/2"}}', "--k", "2")
    out1 = run(capsys, *argv)[1]
    out2 = run(capsys, *argv)[1]
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timing_ms"), b.pop("timing_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [
        ("theta", "h0", "--deg", "nan"),
        ("theta", "rr", "--deg", "nan"),
        ("theta", "h0", "--deg", "0", "--eps", "nan"),
        ("theta", "h0", "--deg", "0", "--eps", "inf"),
        ("theta", "mc", "--deg", "nan", "--seed", "1", "--samples", "10"),
        ("theta", "h0", "--deg", "1000"),
        ("gspace", "pi", "--divisor", "[1]", "--k", "1"),
        ("theta", "h0", "--divisor", '{"finite":[2]}'),
    ],
)
def test_malformed_or_extreme_input_is_a_domain_error(argv):
    # A fresh process with a timeout, so that a hang fails instead of stalling the suite.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "absarith.cli", *argv], capture_output=True, text=True, timeout=5, env=env
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_scale_from_log_rejects_non_finite(u):
    with pytest.raises(ValueError):
        ScaleValue.from_log(u)
