import random
from fractions import Fraction

import pytest

from absarith.gamma_core import (
    NormedVectorConfig,
    PointedEndo,
    PointedMap,
    cycle_type,
    eventual_image,
    norm_filtered_member,
    push_forward,
    smash,
    trace,
    wedge,
)
import gamma_core_oracles
from gamma_core_oracles import collapse
from helpers import random_endo


def test_pointed_map_validation():
    with pytest.raises(ValueError):
        PointedMap((1, 0), 1)  # base point not preserved
    with pytest.raises(ValueError):
        PointedMap((0, 5), 2)  # image out of range
    with pytest.raises(ValueError):
        PointedMap((0, 1, -1), 2)  # image out of range


def test_argument_checks():
    with pytest.raises(ValueError, match="^composition size mismatch$"):
        PointedEndo.identity(2).compose(PointedEndo.identity(3))
    with pytest.raises(ValueError, match="^cyclic permutation needs order >= 1$"):
        PointedEndo.cyclic(0)
    with pytest.raises(ValueError, match="^negative iterate of a non-invertible map$"):
        PointedEndo.cyclic(2).power(-1)
    with pytest.raises(ValueError, match="^trace requires n >= 1$"):
        trace(PointedEndo.cyclic(2), 0)

def test_wedge_identities():
    one = PointedEndo.identity(1)
    assert wedge(one, one) == PointedEndo.identity(2)
    w = wedge(PointedEndo.cyclic(2), PointedEndo.cyclic(3))
    assert cycle_type(w) == {2: 1, 3: 1}


def test_smash_cycle_types():
    assert cycle_type(smash(PointedEndo.cyclic(2), PointedEndo.cyclic(3))) == {6: 1}
    assert cycle_type(smash(PointedEndo.cyclic(2), PointedEndo.cyclic(2))) == {2: 2}


def test_smash_unit():
    rng = random.Random(7)
    for _ in range(20):
        t = random_endo(rng, 6)
        assert smash(t, PointedEndo.identity(1)) == t


def test_smash_wedge_compatibilities():
    # associativity/commutativity of smash, associativity of wedge, and
    # distributivity, all up to canonical bijection (compared by cycle type).
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (random_endo(rng, 6) for _ in range(3))
        assert cycle_type(smash(a, b)) == cycle_type(smash(b, a))
        assert cycle_type(smash(smash(a, b), c)) == cycle_type(smash(a, smash(b, c)))
        assert cycle_type(wedge(wedge(a, b), c)) == cycle_type(wedge(a, wedge(b, c)))
        assert cycle_type(smash(a, wedge(b, c))) == cycle_type(wedge(smash(a, b), smash(a, c)))


def test_smash_matches_the_double_loop():
    # sizes 0 to 40 on either side, with maps that send every point to 0,
    # identities, and random maps that send some points to 0
    rng = random.Random(13)
    maps = [PointedEndo((0,) * (n + 1)) for n in (0, 1, 5, 40)] + [PointedEndo.identity(n) for n in (1, 7)]
    maps += [random_endo(rng, 40) for _ in range(40)]
    for s in maps:
        for t in rng.sample(maps, 12) + [maps[0], maps[3]]:
            assert repr(smash(s, t)) == repr(gamma_core_oracles.smash(s, t))
    assert smash(maps[3], maps[-1]).images == (0,) * (40 * maps[-1].domain_size + 1)


def test_eventual_image_null_and_permutation():
    subset, perm = eventual_image(PointedEndo((0,) * 4))
    assert subset == (0,)
    assert perm == PointedEndo.identity(0)
    t = PointedEndo.cyclic(4)
    subset, perm = eventual_image(t)
    assert subset == (0, 1, 2, 3, 4)
    assert perm == t


def test_eventual_image_example():
    t = PointedEndo((0, 2, 3, 2))
    subset, perm = eventual_image(t)
    assert subset == (0, 2, 3)
    assert perm == PointedEndo((0, 2, 1))
    assert cycle_type(t) == {2: 1}


def test_eventual_image_is_bijective_and_stable():
    rng = random.Random(3)
    for _ in range(100):
        t = random_endo(rng, 8)
        subset, perm = eventual_image(t)
        assert sorted(set(perm.images)) == sorted(perm.images)  # bijection
        assert 0 in subset
        # stability: applying t maps the subset onto itself
        assert {t(x) for x in subset} == set(subset)
        # the image chain stabilizes within domain_size steps
        n = t.domain_size
        chain = set(t.points())
        for _ in range(n):
            chain = {t(x) for x in chain}
        assert chain == set(subset)


def test_trace_examples():
    assert trace(PointedEndo.identity(5), 3) == 5
    assert trace(PointedEndo.cyclic(3), 3) == 3
    assert trace(PointedEndo.cyclic(3), 2) == 0
    assert trace(wedge(PointedEndo.cyclic(4), PointedEndo.cyclic(6)), 12) == 10


def test_trace_multiplicative_under_smash():
    rng = random.Random(23)
    for _ in range(30):
        s, t = random_endo(rng, 6), random_endo(rng, 6)
        for n in range(1, 13):
            assert trace(smash(s, t), n) == trace(s, n) * trace(t, n)


def test_cycle_type_examples():
    assert cycle_type(PointedEndo.cyclic(5)) == {5: 1}
    assert cycle_type(PointedEndo((0,) * 5)) == {}


def test_cycle_type_mass():
    rng = random.Random(5)
    for _ in range(100):
        t = random_endo(rng, 8)
        subset, _ = eventual_image(t)
        ct = cycle_type(t)
        assert sum(k * c for k, c in ct.items()) == len(subset) - 1


def test_collapse_examples():
    assert collapse(3, {0}) == PointedMap((0, 1, 2, 3), 3)
    assert collapse(3, {0, 2}) == PointedMap((0, 1, 0, 2), 2)
    with pytest.raises(ValueError):
        collapse(3, {2})


def test_collapse_functoriality():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 8)
        y = {0} | {rng.randint(1, n) for _ in range(rng.randint(0, n))}
        z = {0} | {rng.randint(1, n) for _ in range(rng.randint(0, n))}
        q1 = collapse(n, y)
        q2 = collapse(q1.codomain_size, {q1(i) for i in z | y})
        assert q2.compose(q1) == collapse(n, y | z)


def test_norm_member_trivial_cases():
    cfg = NormedVectorConfig(alpha=1, lam=Fraction(1))
    assert norm_filtered_member((0, 0, 0), cfg)
    assert not norm_filtered_member((0.6, 0.5), NormedVectorConfig(alpha=1, lam=1))
    assert norm_filtered_member((0.6, 0.5), NormedVectorConfig(alpha=1, lam=1.1))
    assert norm_filtered_member((Fraction(6, 10), Fraction(5, 10)), NormedVectorConfig(alpha=1, lam=Fraction(11, 10)))


def test_config_rejects_bad_alpha():
    with pytest.raises(ValueError):
        NormedVectorConfig(alpha=0, lam=1)
    with pytest.raises(ValueError):
        NormedVectorConfig(alpha=2, lam=1)
    NormedVectorConfig(alpha=2, lam=1, allow_expanding=True)


def test_push_forward_identity_and_fold():
    f = PointedMap((0, 1, 2), 2)
    assert push_forward((3, 4), f) == (3, 4)
    fold = PointedMap((0, 1, 1), 1)
    assert push_forward((3, 4), fold) == (7,)
    with pytest.raises(ValueError):
        push_forward((1, 2, 3), fold)


def test_push_forward_drops_base_mass():
    f = PointedMap((0, 0, 1), 1)
    assert push_forward((5, 7), f) == (7,)


def test_alpha_two_counterexample():
    # two unit masses folded onto one point: 2^2 = 4 exceeds 1^2 + 1^2 = 2
    cfg = NormedVectorConfig(alpha=2, lam=2, allow_expanding=True)
    phi = (1, 1)
    fold = PointedMap((0, 1, 1), 1)
    assert norm_filtered_member(phi, cfg)
    assert not norm_filtered_member(push_forward(phi, fold), cfg)


def _random_pointed_map(rng, n, m):
    return PointedMap((0,) + tuple(rng.randint(0, m) for _ in range(n)), m)


def test_push_forward_closure_property():
    # for alpha in (0, 1], membership is preserved by push-forward
    rng = random.Random(101)
    for _ in range(1000):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        f = _random_pointed_map(rng, n, m)
        alpha = rng.choice([1, rng.uniform(0.1, 1.0)])
        phi = tuple(rng.uniform(-2, 2) for _ in range(n))
        lam = sum(abs(v) ** float(alpha) for v in phi) * rng.uniform(1.0, 1.5)
        cfg = NormedVectorConfig(alpha=alpha, lam=lam)
        assert norm_filtered_member(phi, cfg)
        assert norm_filtered_member(push_forward(phi, f), cfg)


def test_push_forward_closure_exact_mode():
    rng = random.Random(103)
    for _ in range(500):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        f = _random_pointed_map(rng, n, m)
        phi = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(n))
        lam = sum(abs(v) for v in phi)
        cfg = NormedVectorConfig(alpha=1, lam=lam)
        assert norm_filtered_member(phi, cfg)
        assert norm_filtered_member(push_forward(phi, f), cfg)
