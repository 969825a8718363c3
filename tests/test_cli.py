import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absarith.arakelov import ArakelovDivisor, ScaleValue
from absarith.cli import main
from absarith.smith import cokernel_divisors, kernel_divisors

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
    assert result["outputs"]["pi_higher_trivial"] == [[2, True], [3, True]]


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


def test_dk_check(capsys):
    result = run_json(
        capsys, "dk", "check", "--hom", '{"domain":[2],"codomain":[4],"matrix":[[2]]}'
    )
    assert result["outputs"]["pi0"] == [2]
    assert result["outputs"]["pi1"] == []


def test_dk_check_prints_both_routes(capsys):
    hom = '{"domain":[2,4],"codomain":[2,4],"matrix":[[0,0],[0,0]]}'
    outputs = run_json(capsys, "dk", "check", "--hom", hom)["outputs"]
    assert outputs["pi0"] == outputs["cokernel_divisors"] == [2, 4]
    assert outputs["pi1"] == outputs["kernel_divisors"] == [2, 4]
    assert outputs["pi0_is_cokernel"] is True and outputs["pi1_is_kernel"] is True


def test_dk_check_routes_that_disagree_are_a_self_check_failure(capsys, monkeypatch):
    from absarith import dold_kan

    def wrong_pi0(hom, n_max, cap):
        return dold_kan.HomotopyGroups(pi0=(4,), pi1=(), higher_trivial=())

    monkeypatch.setattr(dold_kan, "homotopy_groups", wrong_pi0)
    code, out, err = run(capsys, "dk", "check", "--hom", '{"domain":[2],"codomain":[4],"matrix":[[2]]}')
    assert code == 5 and out == ""
    assert err == "error: self-check failed: brute-force pi0 [4] and pi1 [], Smith cokernel [2] and kernel []\n"


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
        ("gspace", "pi", "--divisor", "[1]", "--k", "1"),
        ("theta", "h0", "--divisor", '{"finite":[2]}'),
        ("witt", "tau", "--endo", "[0, 1.7]"),
        ("witt", "tau", "--endo", "[0, true]"),
        ("theta", "h0", "--divisor", '{"finite":{"2":1.5}}'),
        ("dk", "check", "--hom", '{"domain":[2.9],"codomain":[4],"matrix":[[2]]}'),
        ("witt", "ghost", "--elt", '{"3":1.9}', "--n", "3"),
        ("theta", "h0", "--divisor", '{"arch":{"exact_exp":"1/0"}}'),
        ("gspace", "pi", "--divisor", '{"arch":{"exact_exp":"1/0"}}', "--k", "1"),
        # Only object keys may be integer strings: a string value is neither
        # parsed nor read character by character as an array.
        ("dk", "check", "--hom", '{"domain":"23","codomain":[6],"matrix":[[3],[2]]}'),
        ("dk", "check", "--hom", '{"domain":"","codomain":"","matrix":""}'),
        ("dk", "check", "--hom", '{"domain":["2"],"codomain":[4],"matrix":[[2]]}'),
        ("dk", "check", "--hom", '{"domain":[2],"codomain":[4],"matrix":[["2"]]}'),
        ("dk", "check", "--hom", '{"domain":[2],"codomain":[4],"matrix":["2"]}'),
        ("witt", "tau", "--endo", '["0","1"]'),
        ("witt", "ghost", "--elt", '{"3":"1"}', "--n", "3"),
        ("witt", "mul", "--a", '{"2":"1"}', "--b", '{"3":1}'),
        ("theta", "h0", "--divisor", '{"finite":{"2":"1"}}'),
        # The archimedean exponent is a JSON number, not a string or a bool.
        ("theta", "h0", "--divisor", '{"arch":{"float":"1.5"}}'),
        ("gspace", "pi", "--divisor", '{"arch":{"float":true}}', "--k", "1"),
        # An integer key must read back as itself.
        ("theta", "h0", "--divisor", '{"finite":{"1_1":1}}'),
        ("witt", "ghost", "--elt", '{"+3":1}', "--n", "3"),
        ("theta", "h0", "--divisor", '{"finite":{" 2":1}}'),
        ("witt", "ghost", "--elt", '{"02":1}', "--n", "3"),
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


def test_huge_delannoy_table_is_a_cap_error():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "absarith.cli", "gspace", "delannoy", "--n", "100000", "--k", "100000"],
        capture_output=True,
        text=True,
        timeout=5,
        env=env,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: ")


def _run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-m", "absarith.cli", *argv], capture_output=True, text=True, timeout=5, env=env
    )


# An exact divisor whose exp-degree 10^200 squares far beyond the float range.
HUGE_EXACT = ("--divisor", '{"arch":{"exact_exp":"1e200"}}')


@pytest.mark.parametrize(
    "source, h0", [(("--deg", "20"), 20.0), (("--deg", "400"), 400.0), (HUGE_EXACT, 200 * math.log(10))]
)
def test_theta_h0_at_large_degree(source, h0):
    proc = _run_cli("theta", "h0", *source)
    assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(proc.stdout)["outputs"]["h0"] - h0) < 1e-9


@pytest.mark.parametrize("source, code", [(("--deg", "20"), 4), (("--deg", "400"), 3), (HUGE_EXACT, 3)])
def test_theta_verify_beyond_the_quadrature(source, code):
    # Degree 20 needs ~1.9e9 quadrature pieces (cap error); at 400 and beyond
    # the quadrature's t = exp(-2 deg) underflows to 0.0 (domain error).
    proc = _run_cli("theta", "verify", *source)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("command", ["h0", "rr", "verify"])
def test_theta_at_the_least_subnormal_eps(command):
    # eps / 2 rounds to 0.0 at 5e-324, so the theta sum ends where its tail
    # bound is 0.0; every term after it is 0.0, so the answer is the one at
    # 1e-300.  _run_cli bounds the call at 5 s.
    tiny = _run_cli("theta", command, "--deg", "0", "--eps", "5e-324")
    assert tiny.returncode == 0, tiny.stderr
    small = _run_cli("theta", command, "--deg", "0", "--eps", "1e-300")
    outputs = json.loads(tiny.stdout)["outputs"]
    assert outputs == json.loads(small.stdout)["outputs"]
    assert outputs.get("abs_difference", 0.0) < 1e-10


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_scale_from_log_rejects_non_finite(u):
    with pytest.raises(ValueError):
        ScaleValue.from_log(u)


# An exact divisor whose exp-degree 10^-200 squares far beyond the float range.
TINY_EXACT = ("--divisor", '{"arch":{"exact_exp":"1e-200"}}')


@pytest.mark.parametrize("source", [("--deg", "-400"), TINY_EXACT])
def test_theta_h0_far_below_degree_zero(source):
    # Every direct term underflows long before t = exp(-2 deg) overflows.
    proc = _run_cli("theta", "h0", *source)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outputs"]["h0"] == 0.0


def test_theta_rr_at_large_degree():
    proc = _run_cli("theta", "rr", "--deg", "400")
    assert proc.returncode == 0, proc.stderr
    outputs = json.loads(proc.stdout)["outputs"]
    assert outputs["h0_minus"] == 0.0 and outputs["h0_plus"] == 400.0
    assert outputs["defect"] == 0.0


def test_dk_check_zero_map_on_z64():
    proc = _run_cli("dk", "check", "--hom", '{"domain":[64],"codomain":[64],"matrix":[[0]]}', "--n-max", "1")
    assert proc.returncode == 0, proc.stderr
    outputs = json.loads(proc.stdout)["outputs"]
    assert outputs["pi0"] == [64] and outputs["pi1"] == [64]


@pytest.mark.parametrize(
    "hom, named",
    [
        ('{"domain":[4],"codomain":[4]}', "'matrix'"),
        ('{"codomain":[4],"matrix":[[1]]}', "'domain'"),
        ('{"domain":[4],"matrix":[[1]]}', "'codomain'"),
        ("[]", "JSON object"),
        ('"4"', "JSON object"),
    ],
)
def test_dk_check_names_what_the_hom_lacks(capsys, hom, named):
    code, out, err = run(capsys, "dk", "check", "--hom", hom)
    assert code == 3 and out == ""
    assert err.startswith("error: a homomorphism") and named in err


@pytest.mark.parametrize(
    "argv, named",
    [
        # A misspelt or misplaced key is refused rather than ignored for a
        # default, under which the first two would answer for the zero divisor.
        (("theta", "h0", "--divisor", '{"float": 40, "finit": {"2": 3}}'), "'float'"),
        (("gspace", "pi", "--divisor", '{"float":2.5}', "--k", "2"), "'float'"),
        (("theta", "h0", "--divisor", '{"arch":{"exact_exp":"1/2","float":0.5}}'), "exactly one"),
        (("theta", "h0", "--divisor", '{"arch":{"exact_exp":"1/2","flaot":0.5}}'), "'flaot'"),
        (("dk", "check", "--hom", '{"domain":[2],"codomain":[4],"matrix":[[2]],"n_max":1}'), "'n_max'"),
    ],
)
def test_unknown_or_conflicting_keys_are_a_domain_error(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


def test_dk_check_refuses_a_negative_n_max(capsys):
    hom = '{"domain":[4],"codomain":[4],"matrix":[[1]]}'
    code, out, err = run(capsys, "dk", "check", "--hom", hom, "--n-max", "-1")
    assert code == 3 and out == ""
    assert "n_max" in err


@pytest.mark.parametrize("divisor", ['{"finite":{},"arch":{"exact_exp":"1/3"}}', '{"finite":{},"arch":{"float":2.5}}'])
def test_gspace_pi_refuses_a_negative_n_max_as_dk_check_does(capsys, divisor):
    hom = '{"domain":[4],"codomain":[4],"matrix":[[1]]}'
    _, _, dk_err = run(capsys, "dk", "check", "--hom", hom, "--n-max", "-5")
    code, out, err = run(capsys, "gspace", "pi", "--divisor", divisor, "--k", "2", "--n-max", "-5")
    assert code == 3 and out == ""
    assert err == dk_err == "error: n_max must be nonnegative, got -5\n"


_ORDERS = st.lists(st.integers(0, 6), max_size=2)
_ENTRY = st.one_of(st.integers(-12, 12), st.floats(-3, 3), st.booleans(), st.text(max_size=2))


@st.composite
def _hom_json(draw):
    """A dk check --hom object: small (possibly invalid) orders, and a matrix
    of the right shape with integer entries, or of any shape and entries."""
    domain, codomain = draw(_ORDERS), draw(_ORDERS)
    if draw(st.booleans()):
        matrix = [[draw(st.integers(-12, 12)) for _ in codomain] for _ in domain]
    else:
        matrix = draw(st.lists(st.lists(_ENTRY, max_size=3), max_size=3))
    return {"domain": domain, "codomain": codomain, "matrix": matrix}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(hom=_hom_json(), n_max=st.integers(0, 2), cap=st.sampled_from([None, 10, 1000]))
def test_dk_check_fuzz(hom, n_max, cap):
    argv = ["dk", "check", "--hom", json.dumps(hom), "--n-max", str(n_max)]
    if cap is not None:
        argv += ["--cap", str(cap)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3, 4), err.getvalue()
    if code == 0:
        outputs = json.loads(out.getvalue())["outputs"]
        matrix = tuple(tuple(row) for row in hom["matrix"])
        assert outputs["pi0"] == cokernel_divisors(tuple(hom["codomain"]), matrix)
        assert outputs["pi1"] == kernel_divisors(tuple(hom["domain"]), tuple(hom["codomain"]), matrix)


def test_gspace_pi_beyond_the_recursion_limit():
    # With --n-max 1 no certificate runs, so the certificate cap does not apply.
    proc = _run_cli(
        "gspace", "pi", "--divisor", '{"finite":{},"arch":{"exact_exp":"1/3"}}', "--k", "2000", "--n-max", "1"
    )
    assert proc.returncode == 0, proc.stderr
    outputs = json.loads(proc.stdout)["outputs"]
    assert outputs["pi1_count"] == 1 and outputs["pi_higher_trivial"] == []


def test_gspace_pi_certificate_work_does_not_grow_with_the_level(capsys):
    divisor = '{"finite":{},"arch":{"exact_exp":"1/3"}}'
    result = run_json(capsys, "gspace", "pi", "--divisor", divisor, "--k", str(10**9))
    assert result["outputs"]["pi_higher_trivial"] == [[2, True], [3, True]]
    assert result["timing_ms"] < 100
    for k in ("1", "1000"):
        outputs = run_json(capsys, "gspace", "pi", "--divisor", divisor, "--k", k, "--n-max", "1000")["outputs"]
        assert outputs["pi_higher_trivial"] == [[n, True] for n in range(2, 1001)]
        code, out, err = run(capsys, "gspace", "pi", "--divisor", divisor, "--k", k, "--n-max", "1001")
        assert code == 4 and out == ""
        assert err == "error: the certificates up to degree 1001 read 1001000 face rows, above the cap of 1000000\n"


def test_gspace_delannoy_routes_that_disagree_are_a_failed_self_check(capsys, monkeypatch):
    from absarith import combinat

    closed_form = combinat.delannoy
    monkeypatch.setattr(combinat, "delannoy", lambda n, k: closed_form(n, k) + 1)
    code, out, err = run(capsys, "gspace", "delannoy", "--n", "2", "--k", "2")
    assert code == 5 and out == ""
    assert err.startswith("error: self-check failed: ") and err.count("\n") == 1


def test_theta_mc_where_exp_h0_overflows_is_a_domain_error(capsys):
    code, out, err = run(capsys, "theta", "mc", "--deg", "710", "--seed", "1", "--samples", "1")
    assert code == 3 and out == ""
    assert err == "error: exp(h0) at h0 = 710.0 is above the largest float\n"


def test_witt_mul_whose_answer_is_too_long_to_print_is_a_cap_error(capsys):
    # 10^2999 squared has 5,999 digits, above the interpreter's limit on
    # converting one integer to a string.
    a = '{"1": 1%s}' % ("0" * 2999)
    code, out, err = run(capsys, "witt", "mul", "--a", a, "--b", a)
    assert code == 4 and out == ""
    limit = sys.get_int_max_str_digits()
    assert err == f"error: the answer holds an integer of more than {limit} digits, the limit on printing one\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("theta", "mc", "--deg", "0", "--samples", str(10**12), "--seed", "1"),
        ("gspace", "pi", "--divisor", '{"finite":{},"arch":{"exact_exp":"1/3"}}', "--k", "1", "--n-max", str(10**9)),
        ("gspace", "pi", "--divisor", '{"arch":{"exact_exp":"1e20"}}', "--k", "300", "--n-max", "1"),
        ("witt", "mul", "--a", '{"1": %s}' % ("9" * 2200), "--b", '{"1": %s}' % ("9" * 2200)),
        ("theta", "h0", "--divisor", '{"finite":{"3":10000000}}'),
        ("gspace", "pi", "--divisor", '{"arch":{"exact_exp":"1e20"}}', "--k", "3000", "--n-max", "1"),
        ("gspace", "pi", "--k", "1", "--divisor", '{"finite":{"2":400000,"3":-252000}}'),
        ("gspace", "pi", "--divisor", '{"arch":{"exact_exp":"1e200"}}', "--k", "10000", "--n-max", "1"),
        ("dk", "check", "--hom", '{"domain":[],"codomain":[2],"matrix":[]}', "--n-max", "400"),
    ],
)
def test_unbounded_work_is_a_cap_error(argv):
    proc = _run_cli(*argv)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("source", [("--deg", "-800"), ("--divisor", '{"finite":{"2":-1200},"arch":{"float":0}}')])
def test_theta_h0_where_a_float_exp_degree_underflows(capsys, source):
    assert run_json(capsys, "theta", "h0", *source)["outputs"]["h0"] == 0.0


@pytest.mark.parametrize("source", [("--deg", "1000"), ("--divisor", '{"arch":{"float":1000}}')])
def test_theta_h0_where_a_float_exp_degree_overflows(capsys, source):
    assert run_json(capsys, "theta", "h0", *source)["outputs"]["h0"] == 1000.0


def test_theta_h0_and_rr_agree_on_a_float_degree(capsys):
    h0 = run_json(capsys, "theta", "h0", "--deg", "-0.98")["outputs"]["h0"]
    assert run_json(capsys, "theta", "rr", "--deg", "-0.98")["outputs"]["h0_plus"] == h0


@pytest.mark.parametrize(
    "deg, cause",
    [
        ("700", "is not certified: exp(deg) is within 30-digit rounding of an integer"),
        ("1000", "is above the largest float"),
    ],
)
def test_gspace_pi_past_a_float_scales_precision_is_a_domain_error(capsys, deg, cause):
    divisor = '{"finite":{},"arch":{"float":%s}}' % deg
    for k in ("1", "2"):
        code, out, err = run(capsys, "gspace", "pi", "--divisor", divisor, "--k", k)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and cause in err, err


@pytest.mark.parametrize(
    "deg, count",
    [
        ("0", 3),
        ("1", 5),
        ("32.347", 2 * 111718116751215 + 1),
        ("36.7", 2 * 8681754200535380 + 1),
        ("40", 2 * 235385266837019985 + 1),
    ],
)
def test_gspace_pi_k1_on_a_float_scale_is_the_certified_floor(capsys, deg, count):
    # At 32.347 the float exp(deg) rounds up to 111718116751216.0, onto the
    # integer that e^32.347 = 111718116751215.99... stays below.
    divisor = '{"finite":{},"arch":{"float":%s}}' % deg
    outputs = run_json(capsys, "gspace", "pi", "--divisor", divisor, "--k", "1")["outputs"]
    assert outputs["pi1_count"] == count


def test_gspace_pi_k1_where_a_float_exp_degree_underflows(capsys):
    code, out, err = run(capsys, "gspace", "pi", "--divisor", '{"finite":{},"arch":{"float":-800}}', "--k", "1")
    assert code == 3 and err.startswith("error: ")


# Library modules (beside absarith.errors) that each command family loads:
# a command pays to import and compile only its own layer.
_DIVISOR_1_3 = '{"finite":{},"arch":{"exact_exp":"1/3"}}'
_LOADED = [
    ((), set()),
    (("witt", "tau", "--endo", "[0,2,1]"), {"witt", "gamma_core", "numth", "combinat"}),
    (("witt", "mul", "--a", '{"2":1}', "--b", '{"3":1}'), {"witt", "gamma_core", "numth", "combinat"}),
    (("theta", "h0", "--deg", "1"), {"arakelov", "numth", "combinat"}),
    (("theta", "rr", "--deg", "2"), {"arakelov", "numth", "combinat"}),
    (("gspace", "delannoy", "--n", "3", "--k", "3"), {"combinat"}),
    (("gspace", "pi", "--divisor", _DIVISOR_1_3, "--k", "1"), {"arakelov", "gamma_space", "numth", "combinat"}),
    (("dk", "check", "--hom", '{"domain":[2],"codomain":[4],"matrix":[[2]]}'), {"dold_kan", "smith", "numth"}),
]
_REPORT_LOADED = """
import contextlib, io, json, sys
from absarith.cli import main
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv) if argv else 0
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("absarith."))
print(json.dumps({"code": code, "loaded": loaded, "dataclasses": "dataclasses" in sys.modules}))
"""


@pytest.mark.parametrize("argv, layer", _LOADED)
def test_each_command_loads_only_its_layer(argv, layer):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_LOADED, json.dumps(argv)], capture_output=True, text=True, timeout=5, env=env
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    assert set(report["loaded"]) == layer | {"cli", "errors"}
    if argv[:2] == ("gspace", "delannoy"):
        assert not report["dataclasses"]


@pytest.mark.parametrize("exp_deg, k, count", [("1", 9999, 19_999), ("1/3", 10**8, 1)])
def test_gspace_pi_at_a_huge_level_skips_the_enumeration(exp_deg, k, count):
    # The default cross-check is bounded by the coordinates it would build
    # (count times k), so these answer from the closed form alone.
    divisor = json.dumps({"finite": {}, "arch": {"exact_exp": exp_deg}})
    proc = _run_cli("gspace", "pi", "--divisor", divisor, "--k", str(k), "--n-max", "1")
    assert proc.returncode == 0, proc.stderr
    outputs = json.loads(proc.stdout)["outputs"]
    assert outputs["pi1_count"] == count and outputs["pi_higher_trivial"] == []


_REPORT_STDLIB = """
import contextlib, io, json, sys
from absarith.cli import main
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv) if argv else 0
print(json.dumps({"code": code, "loaded": sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)}))
"""


@pytest.mark.parametrize("argv", [argv for argv, _ in _LOADED])
def test_no_command_loads_dataclasses_or_inspect(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_STDLIB, json.dumps(argv)], capture_output=True, text=True, timeout=5, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": 0, "loaded": []}


_REPORT_NUMPY = """
import contextlib, io, json, sys
from absarith.cli import main
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv)
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("deg, numpy_loaded", [("0", False), ("11.85", False), ("12", True)])
def test_theta_verify_loads_numpy_only_for_long_quadratures(deg, numpy_loaded):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = ["theta", "verify", "--deg", deg]
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_NUMPY, json.dumps(argv)], capture_output=True, text=True, timeout=10, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": 0, "numpy": numpy_loaded}


def test_cold_theta_verify_sums_by_chunks_to_the_per_piece_loops_integral():
    # A fresh process imports numpy for the 592,451 pieces of degree 12 and
    # must print the float that the per-piece loop adds up in process.
    from test_arakelov import _quadrature_per_piece

    proc = _run_cli("theta", "verify", "--deg", "12")
    assert proc.returncode == 0, proc.stderr
    integral = json.loads(proc.stdout)["outputs"]["integral"]
    assert repr(integral) == repr(_quadrature_per_piece(ArakelovDivisor.of_degree(12.0), 1e-12))


@pytest.mark.parametrize(
    "divisor, radius",
    [('{"finite":{},"arch":{"float":32.347}}', 111718116751215), (_DIVISOR_1_3, 0)],
)
def test_gspace_pi_reports_the_radius_it_counts_with(capsys, divisor, radius):
    # At 32.347 the echoed float exp_degree rounds up to 111718116751216.0;
    # the certified floor is one less, and pi1_count = 2 radius + 1 at k = 1.
    outputs = run_json(capsys, "gspace", "pi", "--divisor", divisor, "--k", "1")["outputs"]
    assert outputs["pi1_radius"] == radius
    assert outputs["pi1_count"] == 2 * radius + 1


@pytest.mark.parametrize(
    "divisor, k, pi0",
    [
        # 2 exp(deg) = 3.99999999999999990... < 4, where the float exp(deg) is 2.0
        ('{"arch":{"float":0.6931471805599453}}', "4", "nontrivial"),
        # exp(-deg) = 3.00000000000000027..., where the float exp(deg) is 1/3 rounded
        ('{"arch":{"float":-1.0986122886681098}}', "1", 3),
    ],
)
def test_gspace_pi0_on_a_float_scale_is_decided_on_the_certified_bracket(capsys, divisor, k, pi0):
    assert run_json(capsys, "gspace", "pi", "--divisor", divisor, "--k", k)["outputs"]["pi0"] == pi0


@pytest.mark.parametrize(
    "argv",
    [
        ("--format", "csv", "gspace", "delannoy", "--n", "2", "--k", "2"),
        ("theta", "mc", "--deg", "0", "--seed", "1", "--threads", "2"),
    ],
)
def test_options_that_change_no_answer_are_not_accepted(argv):
    proc = _run_cli(*argv)
    assert proc.returncode == 2 and proc.stdout == "" and proc.stderr.startswith("usage: absarith")


@pytest.mark.parametrize(
    "divisor, cause",
    [
        # exp(deg) = e^-1800 2^-1500 underflows to 0.0 (degree about -760)
        ('{"finite":{"2":1500},"arch":{"float":-1800}}', "sigma / c"),
        # exp(h0) = e^1000 overflows
        ('{"finite":{},"arch":{"float":1000}}', "exp(h0)"),
        # sigma and c are floats, but samples overflow to inf on the way
        ('{"finite":{"2":-10},"arch":{"float":709.7}}', "is inf"),
    ],
)
def test_theta_mc_out_of_a_floats_range_is_one_domain_error(divisor, cause):
    proc = _run_cli("theta", "mc", "--divisor", divisor, "--seed", "1", "--samples", "100000")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and cause in lines[0], proc.stderr


def test_theta_mc_answers_where_one_factor_alone_leaves_a_floats_range(capsys):
    # sigma = e^1000 overflows at degree about -39.7, where theta h0 is 0.0.
    argv = ("theta", "mc", "--divisor", '{"finite":{"2":-1500},"arch":{"float":1000}}', "--seed", "1", "--samples", "10")
    outputs = run_json(capsys, *argv)["outputs"]
    assert outputs == {"mean": 1.0, "stderr": 0.0, "exp_h0": 1.0, "abs_difference": 0.0}


def test_a_non_finite_answer_is_named_and_never_printed(capsys):
    # Three samples near the largest float: their mean is finite, but the
    # sum of their squares, and so the standard error, is not.
    argv = ("theta", "mc", "--divisor", '{"finite":{"2":-10},"arch":{"float":709.7}}', "--seed", "1", "--samples", "3")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error: the answer's outputs.stderr is nan, not a finite number\n"


def _without_timing(stdout):
    if not stdout:
        return stdout
    answer = json.loads(stdout)
    answer.pop("timing_ms")
    return answer


@pytest.mark.parametrize(
    "argv, same_as",
    [
        (("theta", "h0", "--deg", "-1e3"), ("theta", "h0", "--deg=-1e3")),
        (("theta", "h0", "--deg", "-1E2"), ("theta", "h0", "--deg", "-100")),
        (("theta", "h0", "--deg", "-2.5e1"), ("theta", "h0", "--deg", "-25")),
        (("theta", "h0", "--deg", "-.5e+1"), ("theta", "h0", "--deg", "-5")),
        (("theta", "rr", "--deg", "-1e1"), ("theta", "rr", "--deg", "-10")),
        (("theta", "verify", "--deg", "-5e-1"), ("theta", "verify", "--deg", "-0.5")),
        (("theta", "mc", "--deg", "-1e1", "--seed", "1", "--samples", "10"), ("theta", "mc", "--deg=-1e1", "--seed", "1", "--samples", "10")),
        (("theta", "h0", "--deg", "0", "--eps", "-1e-3"), ("theta", "h0", "--deg", "0", "--eps=-1e-3")),
        (("theta", "h0", "--deg", "-inf"), ("theta", "h0", "--deg=-inf")),
        (("theta", "h0", "--deg", "-1."), ("theta", "h0", "--deg=-1.")),
        (("theta", "h0", "--deg", "-1_000"), ("theta", "h0", "--deg=-1000")),
        (("theta", "h0", "--deg", "-nan"), ("theta", "h0", "--deg=-nan")),
    ],
)
def test_negative_exponent_notation_is_an_option_value(argv, same_as):
    got, expected = _run_cli(*argv), _run_cli(*same_as)
    assert got.returncode == expected.returncode and got.returncode in (0, 3), got.stderr
    assert _without_timing(got.stdout) == _without_timing(expected.stdout)


@pytest.mark.parametrize(
    "argv",
    [
        ("theta", "h0", "--deg", "-e3"),
        ("theta", "h0", "--deg", "-1e"),
        ("gspace", "delannoy", "--n", "-1e2", "--k", "2"),
    ],
)
def test_what_is_not_a_negative_number_stays_a_usage_error(argv):
    proc = _run_cli(*argv)
    assert proc.returncode == 2 and proc.stdout == ""


def _run_cli_in_512_mb(*argv, timeout):
    """_run_cli in a child whose address space is capped at 512 MB, so that an
    unbounded allocation is a MemoryError there rather than a killed run."""
    resource = pytest.importorskip("resource")
    limit = 512 * 2**20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "absarith.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        preexec_fn=cap_memory,
    )
    return proc, time.perf_counter() - started


@pytest.mark.parametrize("order", [20_000, 100_000])
def test_addition_tables_past_their_budget_are_a_cap_error_within_a_second(order):
    hom = json.dumps({"domain": [], "codomain": [order], "matrix": []})
    proc, elapsed = _run_cli_in_512_mb("dk", "check", "--hom", hom, "--n-max", "1", timeout=5)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error: ") and "addition tables" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert elapsed < 1.0


def test_addition_tables_within_their_budget_answer_in_512_mb():
    # Z/2000 takes 4 10^6 table cells, under the budget of 10^7.
    hom = json.dumps({"domain": [], "codomain": [2000], "matrix": []})
    proc, _ = _run_cli_in_512_mb("dk", "check", "--hom", hom, "--n-max", "1", timeout=60)
    assert proc.returncode == 0, proc.stderr
    outputs = json.loads(proc.stdout)["outputs"]
    assert outputs["pi0"] == [16, 125] and outputs["pi1"] == []


PI_COMMAND = ("gspace", "pi", "--divisor", '{"finite":{},"arch":{"exact_exp":"7/2"}}', "--k", "2")


def test_a_failed_self_check_is_exit_5_on_one_error_line(capsys, monkeypatch):
    from absarith import gamma_space

    closed_form = gamma_space.delannoy
    monkeypatch.setattr(gamma_space, "delannoy", lambda n, k: closed_form(n, k) + 1)
    code, out, err = run(capsys, *PI_COMMAND)
    assert code == 5 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "closed form gives 26, its enumeration 25" in err


def test_a_self_check_runs_under_python_O():
    script = (
        "import sys\n"
        "from absarith import gamma_space\n"
        "from absarith.cli import main\n"
        "closed_form = gamma_space.delannoy\n"
        "gamma_space.delannoy = lambda n, k: closed_form(n, k) + 1\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, *PI_COMMAND], capture_output=True, text=True, timeout=10, env=env
    )
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


def test_the_package_has_no_assert_statement():
    # python -O strips assert statements, so a self-check written as one
    # would stop running there; the package raises SelfCheckFailed instead.
    package = os.path.join(ROOT, "src", "absarith")
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                tree = ast.parse(f.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_factoring_past_its_budget_is_a_cap_error():
    # Two 21-digit prime factors: rho would need about 10^10 steps, and
    # factor_steps stops it within about a second.
    n = 100000000000000000039 * 100000000000000000129
    proc = _run_cli("witt", "basis", "--elt", json.dumps({str(n): 1}))
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == "error: factoring or proving a prime takes more than 2000000 modular steps\n"


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (
            ("witt", "basis", "--elt", '{"1000000016000000063":1}'),
            {"1": 1, "1000000007": 1, "1000000009": 1, "1000000016000000063": 1},
        ),
        (("theta", "h0", "--divisor", '{"finite":{"10000000000000000000000013":1}}'), {"h0": 57.564627324851145}),
    ],
)
def test_large_primes_answer_in_a_fresh_process(argv, outputs):
    # 1000000016000000063 = 1000000007 * 1000000009, split by rho; 10^25 + 13
    # is proven prime by its n - 1 = 4 * 11 * 23 * 9881422924901185770751.
    proc = _run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outputs"] == outputs
