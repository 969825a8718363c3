"""Shared exception types, the readers of integers, numbers and arrays in JSON
input, and the `frozen` decorator that makes the library's immutable value classes.

Every command loads this module, so `frozen` lives here rather than in a
module of its own.  It stands in for `dataclasses.dataclass(frozen=True)`,
whose import (with `inspect`) and per-class code generation cost more than
any small command's own work.
"""


class CapExceeded(RuntimeError):
    """An enumeration would produce more elements than the configured cap."""


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
