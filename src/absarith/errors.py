"""Shared exception types, and the one integer reader for JSON input."""


class CapExceeded(RuntimeError):
    """An enumeration would produce more elements than the configured cap."""


def json_int(x) -> int:
    """int(x) for an int or an integer string such as a JSON key; a float or
    a bool raises ValueError instead of being truncated to an int."""
    if isinstance(x, (bool, float)):
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)
