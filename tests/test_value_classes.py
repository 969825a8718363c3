"""Every value class made by `absarith.errors.frozen` against a frozen dataclass twin.

The twin is the same class body under `dataclasses.dataclass(frozen=True)`.
Both are built from the same arguments and must agree on repr, equality,
hash, defaults, immutability and the ValueErrors of __post_init__.

Needs no pytest: `PYTHONPATH=src python tests/test_value_classes.py` runs the
same checks as a plain script, for interpreters without pytest installed.
"""

import dataclasses
from fractions import Fraction

from absarith import arakelov, dold_kan, gamma_core, gamma_space, group_ring, packing, witt

_GENERATED = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__", "__dict__", "__weakref__"}


def dataclass_twin(cls):
    body = {k: v for k, v in cls.__dict__.items() if k not in _GENERATED}
    body["__qualname__"] = cls.__qualname__
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, cls.__bases__, body))


def _error(make):
    try:
        make()
    except ValueError as exc:
        return str(exc)
    raise AssertionError("expected a ValueError")


def _cases():
    """(class, list of valid argument tuples, list of invalid ones); the valid
    ones are pairwise unequal."""
    z2, z4 = dold_kan.FiniteAbelianGroup((2,)), dold_kan.FiniteAbelianGroup((4,))
    hom = dold_kan.GroupHom(z2, z4, ((2,),))
    p0, p1 = dold_kan.simplex_pair(0), dold_kan.simplex_pair(1)
    unmarked = dold_kan.PairOfPointedSets(1, frozenset({0}))
    exact, inexact = arakelov.ScaleValue.exact_exp(Fraction(1, 3)), arakelov.ScaleValue.from_log(0.25)
    lattice = arakelov.Lattice1(Fraction(2, 5))
    half = Fraction(1, 2)
    return [
        (gamma_core.PointedMap, [((0, 2, 1), 2), ((0, 0), 3)], [((1,), 0), ((0, 3), 1)]),
        (
            gamma_core.NormedVectorConfig,
            [(), (half,), (1, 2), (2, 1, True)],
            [(0,), (2,), (1, -1)],
        ),
        (packing.PackingResult, [(3, True), (3, False)], []),
        (witt.WittElement, [(((1, 2), (6, -1)),), ((),)], []),
        (group_ring.GroupRingElt, [((((0, 1), 1), ((1, 2), -2)),), ((),)], []),
        (arakelov.ScaleValue, [(Fraction(1, 3), -1.0986122886681098), (None, 0.25)], []),
        (arakelov.Lattice1, [(Fraction(2, 5),), (Fraction(7),)], [(Fraction(0),), (Fraction(-1, 2),)]),
        (arakelov.ArakelovDivisor, [(((2, 1), (3, -2)), exact), ((), inexact)], []),
        (arakelov.McResult, [(1.5, 0.01), (1.5, 0.02)], []),
        (dold_kan.FiniteAbelianGroup, [((2, 3),), ((),)], [((1,),), ((4, 0),)]),
        (
            dold_kan.GroupHom,
            [(z2, z4, ((2,),)), (z2, z4, ((0,),))],
            [(z2, z4, ()), (z2, z4, ((2, 0),)), (z2, z4, ((1,),))],
        ),
        (dold_kan.PairOfPointedSets, [(2, frozenset({0, 2})), (1, frozenset({0}))], [(2, frozenset({2})), (1, frozenset({0, 3}))]),
        (
            dold_kan.PairMap,
            [(p1, p0, (0, 0, 1)), (p1, p0, (0, 1, 1))],
            [(p1, p0, (0, 1)), (p1, p0, (1, 0, 1)), (p1, p0, (0, 2, 1)), (p1, unmarked, (0, 1, 1))],
        ),
        (
            dold_kan.HPhiElement,
            [(hom, p1, ((1,), (3,))), (hom, p0, ((2,),))],
            [(hom, p1, ((1,),)), (hom, p1, ((1,), (3, 0)))],
        ),
        (dold_kan.LevelDescriptor, [(hom, 1), (hom, 2)], []),
        (dold_kan.HomotopyGroups, [((2,), (), ((2, True),)), ((), (2,), ())], []),
        (gamma_space.GSConfig, [(lattice, exact), (lattice, inexact)], []),
        (
            gamma_space.GSElement,
            [(2, ((half, 0),), (0, 0)), (1, (), (Fraction(1, 5),))],
            [(0, (), ()), (2, ((half,),), (0, 0)), (2, (), (0,))],
        ),
        (
            gamma_space.TrivialityCertificate,
            [(3, 1, 3, True, 50, True), (2, 1, 2, True, 0, False)],
            [],
        ),
    ]


def check_value_class(cls, valid, invalid):
    twin = dataclass_twin(cls)
    names = [f.name for f in dataclasses.fields(twin)]
    assert names == list(cls.__annotations__), cls
    objs, twins = [cls(*args) for args in valid], [twin(*args) for args in valid]
    for args, obj, ref in zip(valid, objs, twins):
        assert repr(obj) == repr(ref)
        assert hash(obj) == hash(ref)
        assert obj == cls(*args) and not obj != cls(*args)
        assert obj == cls(**dict(zip(names, args)))
        assert obj.__eq__(ref) is NotImplemented and ref.__eq__(obj) is NotImplemented
        assert obj != ref and obj != object()
        for name in names + ["other"]:
            for target in (obj, ref):
                try:
                    setattr(target, name, 0)
                except AttributeError:
                    pass
                else:
                    raise AssertionError(f"{cls.__name__}.{name} could be assigned")
                try:
                    delattr(target, name)
                except AttributeError:
                    pass
                else:
                    raise AssertionError(f"{cls.__name__}.{name} could be deleted")
        assert repr(obj) == repr(ref)
    for i, obj in enumerate(objs):
        for j, other in enumerate(objs):
            assert (obj == other) == (i == j) == (twins[i] == twins[j])
    for args in invalid:
        assert _error(lambda: cls(*args)) == _error(lambda: twin(*args))


def check_all_value_classes():
    cases = _cases()
    made = {cls for cls, _, _ in cases}
    for module in (arakelov, dold_kan, gamma_core, gamma_space, group_ring, packing, witt):
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__ and value.__setattr__ is not object.__setattr__:
                assert value in made or value is gamma_core.PointedEndo, f"{value.__name__} has no oracle case"
    for case in cases:
        check_value_class(*case)
    return len(cases)


def test_value_classes_match_frozen_dataclasses():
    assert check_all_value_classes() == 19


def test_pointed_endo_reprs_and_compares_as_its_own_class():
    endo = gamma_core.PointedEndo((0, 2, 1))
    assert repr(endo) == "PointedEndo(images=(0, 2, 1), codomain_size=2)"
    assert endo == gamma_core.PointedEndo([0, 2, 1]) and hash(endo) == hash(((0, 2, 1), 2))
    assert endo != gamma_core.PointedMap((0, 2, 1), 2)


if __name__ == "__main__":
    print(f"{check_all_value_classes()} value classes match their frozen dataclass twins")
