"""Shared exception types, BUDGETS (each limit past which absarith raises
CapExceeded) and check_budget, the readers of integers, numbers, arrays and
objects in JSON input, and the `frozen` decorator that makes the immutable
value classes.

Every command loads this module, so `frozen` lives here rather than in a
module of its own.  It stands in for `dataclasses.dataclass(frozen=True)`,
whose import (with `inspect`) and per-class code generation cost more than
any small command's own work.
"""

from collections.abc import Mapping


class CapExceeded(RuntimeError):
    """Work or output above one of the limits in BUDGETS."""


class SelfCheckFailed(AssertionError):
    """Two routes to one answer disagree: a fault in absarith, not in its
    input.  It is raised explicitly rather than by `assert`, so that the
    check survives `python -O`, and it is an AssertionError, so that callers
    catching those still catch it."""


def json_int(x) -> int:
    """x for a JSON integer; anything else, a float, a bool or a string
    included, raises ValueError instead of being truncated or parsed."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def json_key(k) -> int:
    """int(k) for a JSON object key, which is a string such as "2" or "-5" (or
    an int, from a library caller's dict).  The string must read back as
    itself, so "1_1", "+3", " 2" and "02" raise ValueError, as do a float and
    a bool."""
    if not isinstance(k, str):
        return json_int(k)
    value = int(k)
    if str(value) != k:
        raise ValueError(f"expected an integer key written as one, got {k!r}")
    return value


def json_number(x) -> int | float:
    """x for a JSON number, an int or a float; a bool or a string raises
    ValueError instead of being read as one."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"expected a number, got {x!r}")
    return x


def json_array(x) -> list:
    """x for a JSON array; a string, whose characters would otherwise be read
    one by one, or any other value raises ValueError."""
    if not isinstance(x, list):
        raise ValueError(f"expected a JSON array, got {x!r}")
    return x


def json_object(x, keys: tuple[str, ...], what: str) -> Mapping:
    """x for a JSON object with no key outside keys, where a misspelt key would
    be ignored for a default; anything else raises ValueError naming what."""
    if not isinstance(x, Mapping):
        raise ValueError(f"{what} must be a JSON object")
    unknown = [key for key in x if key not in keys]
    if unknown:
        raise ValueError(f"{what} takes only the keys {', '.join(map(repr, keys))}, not {unknown[0]!r}")
    return x


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls):
    """An immutable value class with the methods of a frozen dataclass.

    The fields are the class's own annotations, in order; a class attribute
    of the same name is that field's default.  __init__ sets each field with
    object.__setattr__ and then calls __post_init__ when the class has one.
    __eq__ compares the field tuples of two instances of the same class (and
    returns NotImplemented otherwise), __hash__ hashes the field tuple,
    __repr__ reads Name(a=1, b=2), and assigning or deleting an attribute
    raises AttributeError.  The four methods come from one exec per class, so
    they run as fast as hand-written ones.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {f"_dflt_{name}": cls.__dict__[name] for name in names if name in cls.__dict__}
    params = [f"{name}=_dflt_{name}" if f"_dflt_{name}" in defaults else name for name in names]
    body = [f"  _setattr(self, {name!r}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    own = "".join(f"self.{name}," for name in names)
    other = "".join(f"other.{name}," for name in names)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    source = "\n".join(
        [
            f"def __init__(self, {', '.join(params)}):",
            *body,
            "def __eq__(self, other):",
            "  if other.__class__ is self.__class__:",
            f"    return ({own}) == ({other})",
            "  return NotImplemented",
            "def __hash__(self):",
            f"  return hash(({own}))",
            "def __repr__(self):",
            f"  return f'{{self.__class__.__qualname__}}({shown})'",
        ]
    )
    namespace = {"_setattr": object.__setattr__, **defaults}
    exec(source, namespace)
    for method in ("__init__", "__eq__", "__hash__", "__repr__"):
        fn = namespace[method]
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, fn)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


# The cap on count_E_xi's lattice points, and on a Dold-Kan level's elements
# and face work unless homotopy_groups is given another (`dk check --cap`).
DEFAULT_CAP = 1_000_000

# Each budget's name, then its limit and the message that reports it exceeded.
BUDGETS = {
    # The elements |B| |A|^n of a Dold-Kan level (not the tuples visited), for
    # every level homotopy_groups searches, 0..max(2, n_max).
    "level_elements": (DEFAULT_CAP, "level {n} has {amount} elements, above the cap of {limit}"),
    # The face work of the flags above degree 2, n (n + 1)^2 column passes at
    # each level n = 3..n_max (n (n + 1) face slots over up to n + 1 columns),
    # which alone grows when A is trivial.
    "face_passes": (DEFAULT_CAP, "the faces of levels 3..{n} take {amount} column passes, above the cap of {limit}"),
    # The cells |A|^2 + |B|^2 of the addition tables homotopy_groups builds
    # before it searches any level: Z/2000 (4 10^6 cells) answers in about
    # 1 s on a 2.1 GHz Xeon core, while Z/20000 would take 4 10^8 cells,
    # gigabytes of lists, though its levels are far under the level cap.
    "table_cells": (10_000_000, "the addition tables of A and B take {amount} cells, above the cap of {limit}"),
    "lattice_points": (DEFAULT_CAP, "enumeration of {amount} lattice points exceeds cap {limit}"),
    # The sum over p of |a_p| log2 p, the bits of the finite part's N and D
    # (prod p^(a_p) = N/D) together, and a lower bound on the bits of an
    # exact scale given as a string with a decimal exponent, read from its
    # digits and exponent before Fraction builds 10^|e|.  The normalising
    # Fractions of degree_scale and lattice_of cost a quadratic-time gcd each
    # once N and D are both large: the largest accepted `theta h0`, on
    # 2^400000 / 3^252000, takes about 0.3 s on a 2-core Xeon VM with the
    # interpreter's start, and on 3^504000 about 0.2 s.
    "divisor_bits": (
        800_000,
        "the divisor's prime powers, sum of |a_p| log2 p, or its exact scale are above the cap of {limit} bits",
    ),
    # The work of one factorization or primality proof past the deterministic
    # Miller-Rabin tiers: Pollard-Brent rho steps and certificate squarings,
    # each weighted by 1 + (bits / 256)^2 (numth._spend), about its cost
    # relative to one below 256 bits, which takes 0.4-0.8 us on a 2-core Xeon
    # VM: the cap is about 1-1.5 s.  Rho found a prime factor p in 0.1 to 4.2
    # sqrt(p) steps in seeded trials, so factors below about 10^11 fit.
    "factor_steps": (2_000_000, "factoring or proving a prime takes more than {limit} modular steps"),
    # The pieces of gaussian_avg_quadrature, reached near degree 13.2 at eps 1e-12.
    "quadrature_pieces": (2_000_000, "the quadrature at t = {t!r} needs more than {limit} pieces"),
    # The (n+1)(k+1) cells of a `gspace delannoy` table.  The closed form costs
    # about cells * min(n, k) big-integer steps; the 100 x 100 table takes 0.5 s.
    "delannoy_cells": (10_000, "a delannoy table of {amount} cells is above the cap of {limit}"),
    # A lower bound on the digits of one delannoy(n, k) (combinat.delannoy_digits),
    # checked before its sum, whose min(n, k) steps each cost about the
    # result's length: delannoy(22000, 22000), 16,840 digits, is accepted and
    # takes about 0.5 s on a 2-core Xeon VM, where delannoy(10^200, 3000),
    # about 590,000 digits, took 5.3 s.
    "delannoy_digits": (10_000, "a delannoy number of at least {amount:.0f} digits is above the cap of {limit}"),
    # The face rows the `gspace pi` certificates read, n - 1 of face 0 and as
    # many of face 2 at each degree n = 2..n-max, n-max (n-max - 1) in all,
    # the same at every level and scale; the answer grows with them.  The
    # largest accepted, n-max 1000, takes about 0.26 s and 16 MB on a 2-core
    # Xeon VM with the interpreter's start, and n-max 200 about 0.11 s; 1001
    # is refused.
    "certificate_rows": (
        1_000_000, "the certificates up to degree {n_max} read {amount} face rows, above the cap of {limit}"
    ),
    # `theta mc --samples`: about 0.13 s on one such core, with the
    # interpreter's start and numpy's import.
    "mc_samples": (6_000_000, "{amount} Monte Carlo samples are above the cap of {limit}"),
    # The digits of one printed integer, sys.get_int_max_str_digits(), passed by the caller.
    "printed_digits": (None, "pi1_count at level {k} has more than {limit} digits, the limit on printing one integer"),
}


def check_budget(name: str, amount, limit=None, **context) -> None:
    """Raise CapExceeded with BUDGETS[name]'s message when amount, or a lower bound on it, exceeds limit."""
    default, message = BUDGETS[name]
    limit = default if limit is None else limit
    if amount > limit:
        raise CapExceeded(message.format(amount=amount, limit=limit, **context))
