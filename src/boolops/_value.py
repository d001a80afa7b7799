"""Base class of the package's immutable value classes."""

from __future__ import annotations

_set = object.__setattr__


class Value:
    """Immutable record whose fields are its ``__match_args__``.

    A subclass declares ``__slots__ = __match_args__ = (field, ...)``; a
    field may instead be a property computed from the slots, such as
    ``TruthVector.bits``.  ``Value.__init__`` stores one argument per slot,
    in slot order, and is the only code that writes a slot.  A subclass
    ``__init__`` checks and converts its arguments, then calls
    ``Value.__init__(self, ...)`` directly, which builds a formula node
    faster than ``super()``; a subclass with nothing to check has none.

    ``cls._of(...)`` stores the same slot values without the subclass's
    ``__init__``, for values the program has just computed and knows to be
    valid; outside input, copies and pickles use the public constructor.

    Equality, hashing and ``repr`` go field by field, as for a frozen
    dataclass; assignment and deletion raise ``AttributeError``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *fields):
        slots = self.__slots__
        if len(fields) != len(slots):
            raise TypeError(f"{type(self).__name__} takes the fields {slots}")
        i = 0  # a counter costs a formula node less than zip
        for name in slots:
            _set(self, name, fields[i])
            i += 1

    @classmethod
    def _of(cls, *fields):
        value = object.__new__(cls)
        Value.__init__(value, *fields)
        return value

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
