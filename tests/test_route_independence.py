"""Identities of the paper checked by two routes that share no code.

Acceptance criterion 1 compares ghost(tau(t), n) with the trace of the
permutation that eventual_image returns, and tau goes through eventual_image
too, so a fault there would pass unseen.  Here the second route is
trace(t, n) on t itself: it counts the fixed points of t.power(n), and every
fixed point of T^n lies in the eventual image.
"""

import random

from absarith import gamma_core
from absarith.gamma_core import PointedEndo, trace
from absarith.witt import ghost, tau
from helpers import random_endo

N_MAX = 12


def _seeded_maps(count: int = 500) -> list[PointedEndo]:
    rng = random.Random(1001)
    return [random_endo(rng, 7) for _ in range(count)]


def _mismatches(maps, ghosts) -> int:
    return sum(ghost(w, n) != trace(t, n) for t, w in zip(maps, ghosts) for n in range(1, N_MAX + 1))


def test_ghost_of_tau_is_the_trace_of_the_map_itself(monkeypatch):
    maps = _seeded_maps()
    ghosts = [tau(t) for t in maps]

    def poisoned(t):
        raise AssertionError("the trace route called eventual_image")

    monkeypatch.setattr(gamma_core, "eventual_image", poisoned)
    assert _mismatches(maps, ghosts) == 0


def test_the_trace_route_catches_an_eventual_image_of_fixed_points_only(monkeypatch):
    def fixed_points_only(t):
        subset = tuple(x for x in t.points() if t(x) == x)
        return subset, PointedEndo.identity(len(subset) - 1)

    monkeypatch.setattr(gamma_core, "eventual_image", fixed_points_only)
    maps = _seeded_maps()
    assert _mismatches(maps, [tau(t) for t in maps]) > 0
