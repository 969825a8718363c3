"""Command-line front end.

One binary, four families of subcommands (witt, theta, gspace, dk), JSON on
stdout and diagnostics on stderr.  Every run is deterministic given its flags
(stochastic commands require a seed and echo it); re-running a command gives
byte-identical JSON apart from the timing field.

Exit codes: 0 success, 2 usage or parse error, 3 domain error, 4 a budget of
errors.BUDGETS exceeded, 5 a failed self-check (two routes to one answer
disagree, a fault in absarith rather than in the input).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import TYPE_CHECKING

from . import __version__
from .errors import DEFAULT_CAP, CapExceeded, SelfCheckFailed, check_budget, json_array, json_int

# Each handler imports the library modules of its own layer, so that a
# command loads (and, without cached bytecode, compiles) only those.  All of
# them together take about 27 ms to compile and import on a 2.1 GHz Xeon
# core, or 8 ms from cached bytecode; numpy, which only `theta mc` and a
# `theta verify` from about degree 11.88 load, takes about 150 ms more.  The
# quadrature sums in numpy from about degree 3.0 when numpy is already
# loaded, which in a fresh command process it never is, so no command loads
# numpy below degree 11.88.
if TYPE_CHECKING:
    from .arakelov import ArakelovDivisor
    from .witt import WittElement

USAGE_ERROR, DOMAIN_ERROR, CAP_ERROR, SELF_CHECK_ERROR = 2, 3, 4, 5


def _parse_witt(text: str) -> WittElement:
    from .witt import WittElement

    return WittElement.from_json(text)


def _parse_divisor(args) -> ArakelovDivisor:
    from .arakelov import ArakelovDivisor

    if getattr(args, "divisor", None):
        return ArakelovDivisor.from_json_dict(json.loads(args.divisor))
    if getattr(args, "deg", None) is not None:
        return ArakelovDivisor.of_degree(args.deg)
    raise ValueError("provide --divisor JSON or --deg")


def _fraction_json(value) -> str:
    """json.dumps' hook for the one non-JSON type in an answer: a Fraction,
    written "n/d"."""
    return f"{value.numerator}/{value.denominator}"


def _non_finite(value, path: str = "") -> tuple[str, float] | None:
    """The key path and value of the first NaN or infinity in an answer, or
    None: JSON has no such number."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (path, value)
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            found = _non_finite(item, f"{path}.{key}" if path else str(key))
            if found is not None:
                return found
    return None


def _witt_json(w: WittElement) -> dict:
    return {str(k): c for k, c in w.items}


# --- handlers: each returns (inputs, outputs), or the CSV text -------------


def _cmd_witt_tau(args):
    from .gamma_core import PointedEndo
    from .witt import tau

    endo = PointedEndo(tuple(json_int(x) for x in json_array(json.loads(args.endo))))
    return {"endo": list(endo.images)}, _witt_json(tau(endo))


def _cmd_witt_ghost(args):
    from .witt import ghost

    w = _parse_witt(args.elt)
    return {"elt": _witt_json(w), "n": args.n}, {"ghost": ghost(w, args.n)}


def _cmd_witt_mul(args):
    a, b = _parse_witt(args.a), _parse_witt(args.b)
    return {"a": _witt_json(a), "b": _witt_json(b)}, _witt_json(a * b)


def _cmd_witt_frob_versch(args):
    from .witt import frobenius, verschiebung

    w = _parse_witt(args.elt)
    operator = frobenius if args.op == "frob" else verschiebung
    return {"elt": _witt_json(w), "n": args.n}, _witt_json(operator(args.n, w))


def _cmd_witt_basis(args):
    from .witt import to_primitive_basis

    w = _parse_witt(args.elt)
    prim = to_primitive_basis(w)
    return {"elt": _witt_json(w)}, {str(k): c for k, c in prim.items()}


def _divisor_inputs(args, d: ArakelovDivisor) -> dict:
    return {"divisor": d.to_json_dict(), "eps": getattr(args, "eps", None)}


def _cmd_theta_h0(args):
    from .arakelov import theta_h0

    d = _parse_divisor(args)
    h0 = theta_h0(d, args.eps)
    return _divisor_inputs(args, d), {"h0": h0}


def _cmd_theta_verify(args):
    from .arakelov import gaussian_avg_quadrature, theta_h0

    d = _parse_divisor(args)
    h0 = theta_h0(d, args.eps)
    integral = gaussian_avg_quadrature(d, args.eps)
    return (
        _divisor_inputs(args, d),
        {
            "h0": h0,
            "exp_h0": math.exp(h0),
            "integral": integral,
            "abs_difference": abs(math.exp(h0) - integral),
        },
    )


def _cmd_theta_rr(args):
    from .arakelov import riemann_roch_defect, theta_h0_of_degree

    defect = riemann_roch_defect(args.deg, args.eps)
    return (
        {"deg": args.deg, "eps": args.eps},
        {
            "h0_plus": theta_h0_of_degree(args.deg, args.eps),
            "h0_minus": theta_h0_of_degree(-args.deg, args.eps),
            "defect": defect,
        },
    )


def _cmd_theta_mc(args):
    from .arakelov import gaussian_avg_mc, theta_h0

    check_budget("mc_samples", args.samples)
    d = _parse_divisor(args)
    h0 = theta_h0(d, 1e-12)
    try:
        expected = math.exp(h0)
    except OverflowError:
        raise ValueError(f"exp(h0) at h0 = {h0!r} is above the largest float") from None
    result = gaussian_avg_mc(d, args.samples, args.seed)
    return (
        {"divisor": d.to_json_dict(), "samples": args.samples},
        {
            "mean": result.mean,
            "stderr": result.stderr,
            "exp_h0": expected,
            "abs_difference": abs(result.mean - expected),
        },
    )


def _cmd_gspace_delannoy(args):
    from .combinat import delannoy, delannoy_table

    cells = max(args.n + 1, 0) * max(args.k + 1, 0)
    check_budget("delannoy_cells", cells)
    table = delannoy_table(args.n, args.k)
    closed = [[delannoy(n, k) for k in range(args.k + 1)] for n in range(args.n + 1)]
    if table != closed:
        raise SelfCheckFailed("the Delannoy closed form and recurrence disagree")
    if args.csv:
        lines = ["n/k," + ",".join(str(k) for k in range(args.k + 1))]
        for n in range(args.n + 1):
            lines.append(str(n) + "," + ",".join(str(x) for x in table[n]))
        return "\n".join(lines) + "\n"
    return {"n": args.n, "k": args.k}, {"table": table}


def _cmd_gspace_pi(args):
    from .arakelov import exp_degree
    from .combinat import delannoy_digits
    from .gamma_space import GSConfig, higher_pi_trivial, pi0_cardinality_k1, pi0_trivial_predicate
    from .gamma_space import pi1_count, pi1_radius

    if args.n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {args.n_max}")
    d = _parse_divisor(args)
    # Faces 0 and 2 have n - 1 rows each at degree n: n_max (n_max - 1) for 2..n_max.
    check_budget("certificate_rows", args.n_max * (args.n_max - 1), n_max=args.n_max)
    # pi1_count is D(r, k) with radius r = floor(exp deg): a lower bound on its
    # digits is checked before D is built.
    radius = pi1_radius(d)
    digits = delannoy_digits(radius, args.k)
    check_budget("printed_digits", digits, sys.get_int_max_str_digits() or math.inf, k=args.k)
    if args.k == 1:
        pi0 = pi0_cardinality_k1(d)
        if pi0 == "trivial":
            pi0 = 1
    else:
        pi0 = "trivial" if pi0_trivial_predicate(d, args.k) else "nontrivial"
    count = pi1_count(d, args.k)
    cfg = GSConfig.from_divisor(d)
    higher = [[n, higher_pi_trivial(n, cfg, args.k, samples=0).verified] for n in range(2, args.n_max + 1)]
    outputs = {"pi0": pi0, "pi1_count": count, "pi1_radius": radius, "pi_higher_trivial": higher}
    inputs = {"divisor": d.to_json_dict(), "k": args.k, "exp_degree": exp_degree(d)}
    return inputs, outputs


def _cmd_dk_check(args):
    from .dold_kan import GroupHom, homotopy_groups
    from .smith import cokernel_divisors, kernel_divisors

    hom = GroupHom.from_json_dict(json.loads(args.hom))
    groups = homotopy_groups(hom, n_max=args.n_max, cap=args.cap)
    # The closed-form route, by Smith normal form, which the brute-force
    # route above never takes: the two must agree.
    pi0, pi1 = list(groups.pi0), list(groups.pi1)
    coker = cokernel_divisors(hom.codomain.orders, hom.matrix)
    ker = kernel_divisors(hom.domain.orders, hom.codomain.orders, hom.matrix)
    if pi0 != coker or pi1 != ker:
        raise SelfCheckFailed(f"brute-force pi0 {pi0} and pi1 {pi1}, Smith cokernel {coker} and kernel {ker}")
    outputs = {
        "pi0": pi0,
        "pi1": pi1,
        "pi_higher_trivial": [[n, flag] for n, flag in groups.higher_trivial],
        "cokernel_divisors": coker,
        "kernel_divisors": ker,
        "pi0_is_cokernel": pi0 == coker,
        "pi1_is_kernel": pi1 == ker,
    }
    return {"hom": hom.to_json_dict()}, outputs


# --- parser ------------------------------------------------------------------


class _NegativeFloat:
    """The negative-number matcher of _Parser (argparse calls only match()):
    an argument is a value when it starts with "-" and float() reads it."""

    @staticmethod
    def match(arg: str) -> bool:
        try:
            float(arg)
        except ValueError:
            return False
        return arg.startswith("-")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the subparsers it makes, that read every
    negative float spelling ("-1e3", "-1.", "-1_000", "-inf") as a value,
    where argparse's own pattern differs between versions and misses some."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeFloat


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="absarith")
    sub = parser.add_subparsers(dest="family", required=True)

    witt = sub.add_parser("witt", help="Witt ring computations").add_subparsers(
        dest="op", required=True
    )
    p = witt.add_parser("tau")
    p.add_argument("--endo", required=True)
    p.set_defaults(handler=_cmd_witt_tau)
    p = witt.add_parser("ghost")
    p.add_argument("--elt", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_witt_ghost)
    p = witt.add_parser("mul")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=_cmd_witt_mul)
    for name in ("frob", "versch"):
        p = witt.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--elt", required=True)
        p.set_defaults(handler=_cmd_witt_frob_versch)
    p = witt.add_parser("basis")
    p.add_argument("--elt", required=True)
    p.set_defaults(handler=_cmd_witt_basis)

    theta = sub.add_parser("theta", help="theta invariants of divisors").add_subparsers(
        dest="op", required=True
    )
    for name, handler in (("h0", _cmd_theta_h0), ("verify", _cmd_theta_verify)):
        p = theta.add_parser(name)
        p.add_argument("--divisor")
        p.add_argument("--deg", type=float)
        p.add_argument("--eps", type=float, default=1e-12)
        p.set_defaults(handler=handler)
    p = theta.add_parser("rr")
    p.add_argument("--deg", type=float, required=True)
    p.add_argument("--eps", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_theta_rr)
    p = theta.add_parser("mc")
    p.add_argument("--divisor")
    p.add_argument("--deg", type=float)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_theta_mc)

    gspace = sub.add_parser("gspace", help="divisor space homotopy").add_subparsers(
        dest="op", required=True
    )
    p = gspace.add_parser("delannoy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_gspace_delannoy)
    p = gspace.add_parser("pi")
    p.add_argument("--divisor", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, default=3)
    p.set_defaults(handler=_cmd_gspace_pi)

    dk = sub.add_parser("dk", help="finite Dold-Kan engine").add_subparsers(
        dest="op", required=True
    )
    p = dk.add_parser("check")
    p.add_argument("--hom", required=True)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(handler=_cmd_dk_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        answer = args.handler(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_ERROR
    except SelfCheckFailed as exc:
        print(f"error: self-check failed: {exc}", file=sys.stderr)
        return SELF_CHECK_ERROR
    except (ValueError, KeyError, TypeError, ArithmeticError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    if isinstance(answer, str):
        sys.stdout.write(answer)
        return 0

    inputs, outputs = answer
    result = {
        "command": f"{args.family} {args.op}",
        "inputs": inputs,
        "outputs": outputs,
        "timing_ms": elapsed_ms,
        "version": __version__,
    }
    if getattr(args, "seed", None) is not None:
        result["seed"] = args.seed
    try:
        text = json.dumps(result, sort_keys=True, default=_fraction_json, allow_nan=False)
    except ValueError:  # a NaN or infinity, or an int longer than the interpreter prints as a string
        bad = _non_finite(result)
        if bad is not None:
            print(f"error: the answer's {bad[0]} is {bad[1]!r}, not a finite number", file=sys.stderr)
            return DOMAIN_ERROR
        print(
            f"error: the answer holds an integer of more than {sys.get_int_max_str_digits()} digits, "
            "the limit on printing one",
            file=sys.stderr,
        )
        return CAP_ERROR
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
