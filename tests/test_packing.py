import random
from fractions import Fraction

from absarith import packing
from absarith.packing import BNB_MAX_POINTS, PackingResult, circle_distance, packing_number


def test_radius_at_least_diameter():
    points = [0.0, 0.3, 0.7, 1.4]
    assert packing_number(points, 1.4) == PackingResult(1, True)


def test_equally_spaced_circle():
    # n points at spacing 1/n stay independent for any radius below 1/n
    for n in (3, 5, 8):
        points = [Fraction(j, n) for j in range(n)]
        radius = Fraction(1, n) - Fraction(1, 10 * n)
        result = packing_number(points, radius, metric=circle_distance)
        assert result == PackingResult(n, True)
        at_spacing = packing_number(points, Fraction(1, n), metric=circle_distance)
        assert at_spacing.size < n


def test_empty_and_single():
    assert packing_number([], 1).size == 0
    assert packing_number([2.0], 1) == PackingResult(1, True)


def test_the_point_count_picks_the_route():
    # Points 1/10 apart with radius 1/20 all fit: branch and bound says so
    # exactly up to 40 points, and greedy reports the same size as a bound past it.
    assert BNB_MAX_POINTS == 40
    for n, exact in ((40, True), (41, False)):
        points = [Fraction(j, 10) for j in range(n)]
        assert packing_number(points, Fraction(1, 20)) == PackingResult(n, exact)


def test_greedy_is_lower_bound():
    rng = random.Random(105)
    for _ in range(40):
        points = sorted(rng.uniform(0, 1) for _ in range(rng.randint(1, 18)))
        radius = rng.uniform(0.05, 0.4)
        exact = packing_number(points, radius)
        assert exact.exact
        assert packing._greedy(points, radius, packing._default_metric) <= exact.size


def test_both_routes_past_the_branch_and_bound_limit():
    points = [Fraction(j, 50) for j in range(50)]
    radius = Fraction(1, 10)
    # gaps must exceed 5 grid steps, so at most floor(50/6) = 8 points fit
    assert packing._branch_and_bound(points, radius, circle_distance) == 8
    bound = packing_number(points, radius, metric=circle_distance)
    assert not bound.exact  # 50 points exceeds the branch and bound limit
    assert bound.size <= 8
