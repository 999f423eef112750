"""Read-only records, written out by hand instead of generated at import.

A record class names its fields in ``__slots__``, in constructor order,
and its ``__init__`` stores them through ``Record.__init__``, then
validates them.  Every record refuses attribute assignment with
``AttributeError`` and shows its fields in ``repr``.  A ``Value`` record
also compares and hashes by its fields; the others, which hold arrays,
compare and hash by identity.
"""


class Record:
    """Read-only fields from ``__slots__``, set once by ``__init__``."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a read-only record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a read-only record")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    # Rebuilt through __init__, so copies and pickles are validated like
    # any other construction and never assign to a read-only field.
    def __reduce__(self):
        return type(self), self._values()


class Value(Record):
    """A record that compares and hashes by its fields."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
