"""Command-line front end.

One binary, four families of subcommands (witt, theta, gspace, dk), JSON on
stdout and diagnostics on stderr.  Every run is deterministic given its flags
(stochastic commands require a seed and echo it); re-running a command gives
byte-identical JSON apart from the timing field.

Exit codes: 0 success, 2 usage or parse error, 3 domain error, 4 resource cap.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING

from . import __version__
from .errors import DEFAULT_CAP, CapExceeded, json_int

# Each handler imports the library modules of its own layer, so that a
# command loads (and, without cached bytecode, compiles) only those.  All of
# them together take about 27 ms to compile and import on a 2.1 GHz Xeon
# core, or 8 ms from cached bytecode; numpy, which only `theta mc` and a
# `theta verify` from about degree 11.88 load, takes about 150 ms more.  The
# quadrature sums in numpy from about degree 8.45 when numpy is already
# loaded, which in a fresh command process it never is, so no command loads
# numpy below degree 11.88.
if TYPE_CHECKING:
    from .arakelov import ArakelovDivisor
    from .gamma_core import PointedEndo
    from .witt import WittElement

USAGE_ERROR, DOMAIN_ERROR, CAP_ERROR = 2, 3, 4
# Largest (n+1)(k+1) that `gspace delannoy` accepts.  The closed form costs
# about cells * min(n, k) big-integer steps; the 100 x 100 table takes 0.5 s.
DELANNOY_MAX_CELLS = 10_000
# Largest work of the `gspace pi` certificates for degrees n = 2..n-max at
# level k: per degree, (n+1) (samples k + n^2) cells, the coordinates of the
# sampled members plus about as many as the face equations eliminated hold.
# The largest accepted commands, level 342 at the default n-max 3 and n-max 24
# at level 1, each take about 0.25 s on a 2.1 GHz Xeon core with the
# interpreter's start (a bare start with site packages is about 0.09 s there).
# The certificates in them take about 55 and 25 ms: the sampled members are
# checked on integer indices, so their `randint` draws are most of it, and the
# face equations of each degree are eliminated once, on their distinct rows.
CERTIFICATE_SAMPLES = 50
CERTIFICATE_MAX_CELLS = 120_000
# Largest `theta mc --samples`: about 0.13 s on one such core, with the
# interpreter's start and numpy's import.
MC_MAX_SAMPLES = 6_000_000


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("ABSARITH_THREADS", "1")))
    except ValueError:
        return 1


def _parse_endo(text: str) -> PointedEndo:
    from .gamma_core import PointedEndo

    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("an endomorphism is a JSON array of images, index 0 first")
    return PointedEndo(tuple(json_int(x) for x in data))


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
    from .witt import tau

    endo = _parse_endo(args.endo)
    return {"endo": list(endo.images)}, _witt_json(tau(endo))


def _cmd_witt_ghost(args):
    from .witt import ghost

    w = _parse_witt(args.elt)
    return {"elt": _witt_json(w), "n": args.n}, {"ghost": ghost(w, args.n)}


def _cmd_witt_mul(args):
    a, b = _parse_witt(args.a), _parse_witt(args.b)
    return {"a": _witt_json(a), "b": _witt_json(b)}, _witt_json(a * b)


def _cmd_witt_frob(args):
    from .witt import frobenius

    w = _parse_witt(args.elt)
    return {"elt": _witt_json(w), "n": args.n}, _witt_json(frobenius(args.n, w))


def _cmd_witt_versch(args):
    from .witt import verschiebung

    w = _parse_witt(args.elt)
    return {"elt": _witt_json(w), "n": args.n}, _witt_json(verschiebung(args.n, w))


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

    if args.samples > MC_MAX_SAMPLES:
        raise CapExceeded(f"{args.samples} Monte Carlo samples are above the cap of {MC_MAX_SAMPLES}")
    d = _parse_divisor(args)
    h0 = theta_h0(d, 1e-12)
    try:
        expected = math.exp(h0)
    except OverflowError:
        raise ValueError(f"exp(h0) at h0 = {h0!r} is above the largest float") from None
    result = gaussian_avg_mc(d, args.samples, args.seed, threads=args.threads)
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

    cells = (args.n + 1) * (args.k + 1)
    if args.n >= 0 and args.k >= 0 and cells > DELANNOY_MAX_CELLS:
        raise CapExceeded(f"a delannoy table of {cells} cells is above the cap of {DELANNOY_MAX_CELLS}")
    table = delannoy_table(args.n, args.k)
    closed = [[delannoy(n, k) for k in range(args.k + 1)] for n in range(args.n + 1)]
    if table != closed:
        raise ValueError("closed form and recurrence disagree")
    if args.csv or args.format == "csv":
        lines = ["n/k," + ",".join(str(k) for k in range(args.k + 1))]
        for n in range(args.n + 1):
            lines.append(str(n) + "," + ",".join(str(x) for x in table[n]))
        return "\n".join(lines) + "\n"
    return {"n": args.n, "k": args.k}, {"table": table}


def _cmd_gspace_pi(args):
    from .arakelov import exp_degree
    from .gamma_space import GSConfig, higher_pi_trivial, pi0_cardinality_k1, pi0_trivial_predicate
    from .gamma_space import pi1_count, pi1_radius

    d = _parse_divisor(args)
    if d.arch.is_exact:
        cells = 0
        for n in range(2, args.n_max + 1):
            cells += (n + 1) * (CERTIFICATE_SAMPLES * args.k + n * n)
            if cells > CERTIFICATE_MAX_CELLS:
                raise CapExceeded(
                    f"the certificates up to degree {args.n_max} at level {args.k} are above the cap of "
                    f"{CERTIFICATE_MAX_CELLS} cells"
                )
    # pi1_count is D(r, k) >= 2^m C(r, m) C(k, m) >= (2 max(r, k) / m)^m with
    # radius r = floor(exp deg) and m = min(r, k).  When that bound alone has
    # more digits than the interpreter prints (a limit of 0 is none), refuse
    # before computing D; the one digit of slack covers the rounding of the logs.
    radius = pi1_radius(d)
    m, limit = min(radius, args.k), sys.get_int_max_str_digits()
    if limit and m > 0 and m * (math.log10(2 * max(radius, args.k)) - math.log10(m)) > limit + 1:
        raise CapExceeded(
            f"pi1_count at level {args.k} has more than {limit} digits, the limit on printing one integer"
        )
    if args.k == 1:
        pi0 = pi0_cardinality_k1(d)
        if pi0 == "trivial":
            pi0 = 1
    else:
        pi0 = "trivial" if pi0_trivial_predicate(d, args.k) else "nontrivial"
    count = pi1_count(d, args.k)
    higher = []
    if d.arch.is_exact:
        cfg = GSConfig.from_divisor(d)
        for n in range(2, args.n_max + 1):
            cert = higher_pi_trivial(n, cfg, args.k, samples=CERTIFICATE_SAMPLES, seed=0)
            higher.append([n, cert.verified])
    outputs = {"pi0": pi0, "pi1_count": count, "pi1_radius": radius, "pi_higher_trivial": higher}
    inputs = {"divisor": d.to_json_dict(), "k": args.k, "exp_degree": exp_degree(d)}
    return inputs, outputs


def _cmd_dk_check(args):
    from .dold_kan import GroupHom, homotopy_groups

    hom = GroupHom.from_json_dict(json.loads(args.hom))
    groups = homotopy_groups(hom, n_max=args.n_max, cap=args.cap)
    outputs = {
        "pi0": list(groups.pi0),
        "pi1": list(groups.pi1),
        "pi_higher_trivial": [[n, flag] for n, flag in groups.higher_trivial],
    }
    return {"hom": hom.to_json_dict()}, outputs


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="absarith")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
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
    p = witt.add_parser("frob")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--elt", required=True)
    p.set_defaults(handler=_cmd_witt_frob)
    p = witt.add_parser("versch")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--elt", required=True)
    p.set_defaults(handler=_cmd_witt_versch)
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
    p.add_argument("--threads", type=int, default=_default_threads())
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
