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
from fractions import Fraction

from . import __version__
from .arakelov import (
    ArakelovDivisor,
    exp_degree,
    gaussian_avg_mc,
    gaussian_avg_quadrature,
    riemann_roch_defect,
    theta_h0,
    theta_h0_of_degree,
)
from .combinat import delannoy, delannoy_table
from .dold_kan import GroupHom, homotopy_groups
from .errors import CapExceeded
from .gamma_core import PointedEndo
from .gamma_space import (
    GSConfig,
    higher_pi_trivial,
    pi0_cardinality_k1,
    pi0_trivial_predicate,
    pi1_count,
)
from .witt import WittElement, frobenius, ghost, tau, to_primitive_basis, verschiebung

USAGE_ERROR, DOMAIN_ERROR, CAP_ERROR = 2, 3, 4


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("ABSARITH_THREADS", "1")))
    except ValueError:
        return 1


def _parse_endo(text: str) -> PointedEndo:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("an endomorphism is a JSON array of images, index 0 first")
    return PointedEndo(tuple(int(x) for x in data))


def _parse_witt(text: str) -> WittElement:
    return WittElement.from_json(text)


def _parse_divisor(args) -> ArakelovDivisor:
    if getattr(args, "divisor", None):
        return ArakelovDivisor.from_json_dict(json.loads(args.divisor))
    if getattr(args, "deg", None) is not None:
        return ArakelovDivisor.of_degree(args.deg)
    raise ValueError("provide --divisor JSON or --deg")


def _witt_json(w: WittElement) -> dict:
    return {str(k): c for k, c in w.items}


# --- handlers: each returns (inputs, outputs, seed, csv_text) ---------------


def _cmd_witt_tau(args):
    endo = _parse_endo(args.endo)
    return {"endo": list(endo.images)}, _witt_json(tau(endo)), None, None


def _cmd_witt_ghost(args):
    w = _parse_witt(args.elt)
    return {"elt": _witt_json(w), "n": args.n}, {"ghost": ghost(w, args.n)}, None, None


def _cmd_witt_mul(args):
    a, b = _parse_witt(args.a), _parse_witt(args.b)
    return {"a": _witt_json(a), "b": _witt_json(b)}, _witt_json(a * b), None, None


def _cmd_witt_frob(args):
    w = _parse_witt(args.elt)
    return {"elt": _witt_json(w), "n": args.n}, _witt_json(frobenius(args.n, w)), None, None


def _cmd_witt_versch(args):
    w = _parse_witt(args.elt)
    return {"elt": _witt_json(w), "n": args.n}, _witt_json(verschiebung(args.n, w)), None, None


def _cmd_witt_basis(args):
    w = _parse_witt(args.elt)
    prim = to_primitive_basis(w)
    return {"elt": _witt_json(w)}, {str(k): c for k, c in prim.items()}, None, None


def _divisor_inputs(args, d: ArakelovDivisor) -> dict:
    return {"divisor": d.to_json_dict(), "eps": getattr(args, "eps", None)}


def _cmd_theta_h0(args):
    d = _parse_divisor(args)
    h0 = theta_h0(d, args.eps)
    return _divisor_inputs(args, d), {"h0": h0}, None, None


def _cmd_theta_verify(args):
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
        None,
        None,
    )


def _cmd_theta_rr(args):
    defect = riemann_roch_defect(args.deg, args.eps)
    return (
        {"deg": args.deg, "eps": args.eps},
        {
            "h0_plus": theta_h0_of_degree(args.deg, args.eps),
            "h0_minus": theta_h0_of_degree(-args.deg, args.eps),
            "defect": defect,
        },
        None,
        None,
    )


def _cmd_theta_mc(args):
    d = _parse_divisor(args)
    result = gaussian_avg_mc(d, args.samples, args.seed, threads=args.threads)
    expected = math.exp(theta_h0(d, 1e-12))
    return (
        {"divisor": d.to_json_dict(), "samples": args.samples},
        {
            "mean": result.mean,
            "stderr": result.stderr,
            "exp_h0": expected,
            "abs_difference": abs(result.mean - expected),
        },
        args.seed,
        None,
    )


def _cmd_gspace_delannoy(args):
    table = delannoy_table(args.n, args.k)
    closed = [[delannoy(n, k) for k in range(args.k + 1)] for n in range(args.n + 1)]
    if table != closed:
        raise ValueError("closed form and recurrence disagree")
    csv_text = None
    if args.csv or args.format == "csv":
        lines = ["n/k," + ",".join(str(k) for k in range(args.k + 1))]
        for n in range(args.n + 1):
            lines.append(str(n) + "," + ",".join(str(x) for x in table[n]))
        csv_text = "\n".join(lines) + "\n"
    return {"n": args.n, "k": args.k}, {"table": table}, None, csv_text


def _cmd_gspace_pi(args):
    d = _parse_divisor(args)
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
            cert = higher_pi_trivial(n, cfg, args.k, samples=50, seed=0)
            higher.append([n, cert.verified])
    outputs = {"pi0": pi0, "pi1_count": count, "pi_higher_trivial": higher}
    ed = exp_degree(d)
    inputs = {
        "divisor": d.to_json_dict(),
        "k": args.k,
        "exp_degree": f"{ed.numerator}/{ed.denominator}" if isinstance(ed, Fraction) else ed,
    }
    return inputs, outputs, None, None


def _cmd_dk_check(args):
    hom = GroupHom.from_json_dict(json.loads(args.hom))
    groups = homotopy_groups(hom, n_max=args.n_max, cap=args.cap)
    outputs = {
        "pi0": list(groups.pi0),
        "pi1": list(groups.pi1),
        "pi_higher_trivial": [[n, flag] for n, flag in groups.higher_trivial],
    }
    return {"hom": hom.to_json_dict()}, outputs, None, None


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
    p.add_argument("--cap", type=int, default=1_000_000)
    p.set_defaults(handler=_cmd_dk_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        inputs, outputs, seed, csv_text = args.handler(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_ERROR
    except (ValueError, KeyError, TypeError, OverflowError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    if csv_text is not None:
        sys.stdout.write(csv_text)
        return 0

    result = {
        "command": f"{args.family} {args.op}",
        "inputs": inputs,
        "outputs": outputs,
        "timing_ms": elapsed_ms,
        "version": __version__,
    }
    if seed is not None:
        result["seed"] = seed
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
