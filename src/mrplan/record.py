"""Value records: plain classes with ``__slots__`` and a hand-written ``__init__``.

A record lists its fields in ``__slots__``, in constructor order, and its
``__init__`` sets them and runs its checks. ``Record`` gives it equality,
hashing and a ``repr`` keyed on its fields: two records are equal when they
are of the same class and their fields are, and a record hashes as the tuple
of its fields. A slot whose name starts with an underscore is not a field:
``__init__`` derives it from the fields, so it takes no part in equality,
hashing or ``repr``. ``replace`` copies a record with some fields changed;
the copy runs ``__init__``, so its checks too, and derives its own
underscore slots. Nothing assigns to a record's slots after ``__init__``.
"""
from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        get = attrgetter(*fields)
        # one field: attrgetter returns the value, not a 1-tuple
        cls._key = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, built by ``__init__``."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields},
                             **changes})
