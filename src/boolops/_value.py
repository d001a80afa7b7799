"""Base class of the package's immutable value classes."""

from __future__ import annotations


class Value:
    """Immutable record whose fields are its ``__match_args__``.

    A subclass declares ``__slots__ = __match_args__ = (field, ...)`` and
    an ``__init__`` that validates its arguments and stores them with
    ``object.__setattr__``.  Equality, hashing and ``repr`` go field by
    field, as for a frozen dataclass: instances are equal only to
    instances of the same class, ``hash`` is the hash of the field tuple
    and ``repr`` reads ``Name(field=value, ...)``.  Assignment and
    deletion raise ``AttributeError``; copies and pickles are rebuilt
    through ``__init__`` from the field values.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__match_args__
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple()
