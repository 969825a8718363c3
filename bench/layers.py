"""The layers of absarith as the traced run sees them, and their metrics.

A layer is a module of the package; arakelov is split into its theta sum,
quadrature and Monte Carlo parts because they are separate algorithms, and
the rest of arakelov (divisor arithmetic, lattices) stays as `arakelov`.
`cli` is the command line, timed around each subprocess from the benchmark.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from absarith import arakelov, combinat, dold_kan, gamma_core, gamma_space, group_ring, numth, packing, smith, witt
from absarith.arakelov import ArakelovDivisor, exp_degree, gaussian_avg_mc, gaussian_avg_quadrature
from absarith.arakelov import riemann_roch_defect, theta_h0
from absarith.dold_kan import GroupHom, homotopy_groups
from absarith.gamma_core import PointedEndo, PointedMap, smash
from absarith.gamma_space import GSConfig, higher_pi_trivial, pi1_count
from absarith.group_ring import GroupRingElt, groupring_to_witt, witt_to_groupring
from absarith.packing import circle_distance, packing_number
from absarith.smith import cokernel_divisors
from absarith.witt import WittElement, from_ghost, ghost_vector, tau

from spans import self_times

LIBRARY_MODULES = (gamma_core, witt, group_ring, numth, smith, dold_kan, arakelov, gamma_space, combinat, packing)
LAYERS = (
    "gamma_core",
    "witt",
    "group_ring",
    "numth",
    "smith",
    "dold_kan",
    "arakelov",
    "arakelov.theta",
    "arakelov.quadrature",
    "arakelov.mc",
    "gamma_space",
    "combinat",
    "packing",
    "cli",
)
_ARAKELOV_PARTS = {
    "theta_h0": "arakelov.theta",
    "theta_h0_of_degree": "arakelov.theta",
    "riemann_roch_defect": "arakelov.theta",
    "gaussian_avg_quadrature": "arakelov.quadrature",
    "gaussian_avg_mc": "arakelov.mc",
}
# Extra work counts per layer: (metric suffix, span attribute summed).
_COUNTS = {
    "gamma_core": ("points", "points"),
    "witt": ("terms", "terms"),
    "group_ring": ("terms", "terms"),
    "smith": ("matrix_cells", "cells"),
    "dold_kan": ("elements", "elements"),
    "gamma_space": ("points", "points"),
}


def layer_of(fn) -> str | None:
    module = fn.__module__
    if not module.startswith("absarith."):
        return None
    short = module.split(".", 1)[1]
    if short == "arakelov":
        return _ARAKELOV_PARTS.get(fn.__name__, "arakelov")
    return short if short in LAYERS else None


def namespaces() -> list:
    """Every namespace whose references to other layers get wrapped: the
    library modules themselves and the benchmark's own calling modules."""
    return [*LIBRARY_MODULES, sys.modules["workloads"], sys.modules[__name__]]


def _arg(args, kwargs, i: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[i] if len(args) > i else default


def _smith_cells(fn: str, args) -> int:
    """Cells of the presentations a call of smith builds, from its inputs (the
    functions other layers and the benchmark call)."""
    if fn == "group_divisors_from_table":
        m = len(list(args[0]))
        return m * m * m  # m^2 relations on m generators
    if fn == "cokernel_divisors":
        t = len(args[0])
        return (t + len(args[1])) * t
    if fn == "kernel_divisors":
        s, t = len(args[0]), len(args[1])
        return (s + t) * t + s * s
    return 0


def span_attrs(name: str, args, kwargs, result) -> dict:
    """Input-size attributes of one library call, computed from its inputs
    (and, for counts the library returns, from its result)."""
    module, fn = name.split(".", 1)
    values = [*args, *kwargs.values()]
    attrs: dict = {}
    points = sum(v.domain_size for v in values if isinstance(v, PointedMap))
    if points:
        attrs["points" if module == "gamma_core" else "N"] = points
    terms = sum(len(v.items) for v in values if isinstance(v, (WittElement, GroupRingElt)))
    if terms:
        attrs["terms"] = terms
    if module == "smith":
        attrs["cells"] = _smith_cells(fn, args)
    elif fn == "homotopy_groups":
        hom, n_max = args[0], _arg(args, kwargs, 1, "n_max", 3)
        a, b = hom.domain.order, hom.codomain.order
        attrs.update(A=a, B=b, n_max=n_max, elements=sum(b * a**n for n in range(max(n_max, 2) + 1)))
    elif fn == "gaussian_avg_mc":
        attrs.update(samples=_arg(args, kwargs, 1, "samples"), threads=_arg(args, kwargs, 3, "threads", 1))
    elif fn in ("pi1_count", "pi1_spherical_enumerate") and result is not None:
        attrs["points"] = result if isinstance(result, int) else len(result)
    elif fn == "higher_pi_trivial":
        attrs["points"] = _arg(args, kwargs, 3, "samples", 1000)
    elif fn == "packing_number":
        attrs["points"] = len(args[0])
        if result is not None:
            attrs["exact"] = result.exact
    return attrs


def layer_metrics(spans, weight) -> dict[str, tuple[float, str]]:
    """Per-layer self time, calls, errors and work counts.

    weight(span) scales each span's contribution, so that spans of repeated
    identical passes can be reported per pass.
    """
    selfs = self_times(spans)
    acc = {layer: {"self_s": 0.0, "calls": 0.0, "errors": 0.0} for layer in LAYERS}
    for layer, (suffix, _) in _COUNTS.items():
        acc[layer][suffix] = 0.0
    mc = {1: [0.0, 0.0], 2: [0.0, 0.0]}
    packing_exact = [0.0, 0.0]
    for s in spans:
        if s.layer not in acc:
            continue
        w = weight(s)
        a = acc[s.layer]
        a["self_s"] += w * selfs[s.sid]
        a["calls"] += w
        a["errors"] += w * s.error
        if s.layer in _COUNTS:
            suffix, key = _COUNTS[s.layer]
            a[suffix] += w * s.attrs.get(key, 0)
        if s.layer == "arakelov.mc" and s.attrs.get("threads") in mc:
            slot = mc[s.attrs["threads"]]
            slot[0] += w * s.attrs["samples"]
            slot[1] += w * selfs[s.sid]
        if s.name == "packing.packing_number" and "exact" in s.attrs:
            packing_exact[0] += w * s.attrs["exact"]
            packing_exact[1] += w
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        for key, value in acc[layer].items():
            out[f"{layer}.{key}"] = (value, "s" if key == "self_s" else "count")
    rate1 = mc[1][0] / mc[1][1] if mc[1][1] else 0.0
    rate2 = mc[2][0] / mc[2][1] if mc[2][1] else 0.0
    out["arakelov.mc.samples_per_s_1t"] = (rate1, "1/s")
    out["arakelov.mc.samples_per_s_2t"] = (rate2, "1/s")
    out["arakelov.mc.speedup_2t"] = (rate2 / rate1 if rate1 else 0.0, "ratio")
    out["packing.exact_ratio"] = (packing_exact[0] / packing_exact[1] if packing_exact[1] else 0.0, "ratio")
    return out


def calibrate(run_cli_call) -> None:
    """One small fixed call into every layer, identical in every workload, so
    that each layer reports a measured, nonzero time in every traced run."""
    t = PointedEndo((0, 2, 3, 1, 0, 5, 4))
    w = tau(t)
    smash(t, t)
    from_ghost(ghost_vector(WittElement.from_coeffs({1: 2, 6: 1}), 12))
    groupring_to_witt(witt_to_groupring(w))
    cokernel_divisors((4,), ((2,),))
    homotopy_groups(GroupHom.from_json_dict({"domain": [2], "codomain": [4], "matrix": [[2]]}), n_max=2)
    d = ArakelovDivisor.from_json_dict({"finite": {"2": 1, "1000003": -1}, "arch": {"exact_exp": "1/3"}})
    theta_h0(d)
    gaussian_avg_quadrature(d)
    riemann_roch_defect(1.5)
    exp_degree(d)
    gaussian_avg_mc(d, 1 << 17, 7, threads=1)
    gaussian_avg_mc(d, 1 << 17, 7, threads=2)
    pi1_count(d, 2)
    higher_pi_trivial(2, GSConfig.from_divisor(ArakelovDivisor.from_json_dict({"arch": {"exact_exp": "3/2"}})), 1, samples=20)
    packing_number([Fraction(j, 12) for j in range(12)], Fraction(1, 5), metric=circle_distance)
    packing_number([Fraction(j, 60) for j in range(60)], Fraction(1, 5), metric=circle_distance)
    run_cli_call(("witt", "tau", "--endo", "[0,2,1]"))
