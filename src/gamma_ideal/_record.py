"""Immutable records: the base of the package's small value types.

A record class names its constructor's fields in ``_fields``, lists them
(and any slot it derives from them) in ``__slots__``, and sets each one in
an explicit ``__init__`` with ``setfield``.  Pickling and copying pass only
the fields to ``__init__``, so a copy derives its other slots again.
``_compared`` names the fields that equality and hashing read; by default
all of ``_fields``.
"""

#: Sets a field of a record under construction, past ``Record.__setattr__``.
setfield = object.__setattr__


class Record:
    """An immutable value with named fields.

    Records are equal when they have the same type and equal compared
    fields, so a ``Sum`` and a ``Product`` with the same parts are unequal;
    the hash reads the same fields.
    ``repr`` lists every field, and pickling and copying rebuild a record
    from its fields through ``__init__``.
    """

    __slots__ = ()
    _fields: tuple = ()
    _compared: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_compared" not in cls.__dict__:
            cls._compared = cls._fields

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Field by field, so that comparing nested records nests one
        # comparison less per record than comparing key tuples would.
        for name in self._compared:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is not theirs and mine != theirs:
                return False
        return True

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = []
        for name in self._fields:  # a loop, not a generator: one frame less per nested record
            fields.append(f"{name}={getattr(self, name)!r}")
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])
