"""Verification toolkit for jet-level identities of maps, gauge fields,
and continuum models: truncated Taylor lifts with exact derivatives, plus
check suites that hold named identities to stated tolerances."""

__version__ = "0.1.0"


def kernel_name() -> str:
    return "pure"


class _Frozen:
    """Base of the package's immutable records that validate or cache.

    A subclass names its fields in __slots__ and sets each once, in
    __init__, through _init; a slot whose name starts with "_" is a cache,
    left out of ==, hash and repr.  No field can be reassigned.  Records
    with neither validation nor a cache are NamedTuples; neither kind is a
    dataclass, whose code generation costs a cold CLI run about a
    millisecond per class.
    """

    __slots__ = ()

    def _init(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _field_names(self) -> list[str]:
        return [name for name in self.__slots__ if name[0] != "_"]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._field_names())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._field_names())
        return f"{type(self).__qualname__}({shown})"


__all__ = [
    "__version__",
    "kernel_name",     # perfbench/probe.py records it on every run
]
