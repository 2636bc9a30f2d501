"""The base of the package's immutable records.

A record is a plain class whose ``__slots__`` name its fields in
constructor order, then any private ``_`` slots holding what the constructor
derives from them, with an explicit ``__init__`` that checks its arguments
and stores each slot with :data:`setfield`. :class:`Record` derives equality,
hashing, a ``Name(field=value, ...)`` repr, immutability, and copy and pickle
support from the fields alone, never the private slots. Nothing is generated
at import: a record class costs what any class costs.

A field is stored only when no other field determines it. A verdict, such
as a coherence report's ``coherent``, is a read-only property computed from
the fields, so no record can hold a verdict that its own fields contradict.
A constructor argument that the derived structure determines, such as a
taxonomy's ``edges``, is read, not stored: a read-only property. Its class
then names its fields in its own ``_fields``, in place of its public slots,
so the property still counts in equality, hashing, repr, copy and pickle.
"""

from __future__ import annotations

from types import MappingProxyType

# Stores a field from ``__init__``, past Record.__setattr__.
setfield = object.__setattr__

# The default of a mapping field. Constructors copy what they are given, so
# every instance still gets a dict of its own.
EMPTY_MAPPING = MappingProxyType({})


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if "_fields" not in vars(cls):  # named by a class that reads a field from the others
            cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        # A mapping field makes this raise, as a mapping is unhashable.
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle refuses a mappingproxy; every constructor copies its mappings.
        return type(self), tuple([dict(value) if type(value) is MappingProxyType else value
                                  for value in self._values()])
