"""Slotted records: the base classes of ratrecon's value types.

A record class lists its fields in `__slots__`, in the order its
`__init__` takes them, and writes that `__init__` itself.  `Record` gives
what `@dataclass` generates from such fields, from one copy of the code:
the repr `Name(field=value, ...)`, equality of the field tuples of two
instances of one class, no hash (a record is mutable), and pickling and
copying through `__init__`.  A `Frozen` record refuses assignment with
AttributeError and hashes its field tuple, as a frozen dataclass does.
Neither generates or compiles code when a class is defined, which is what
a dataclass costs at import.
"""


class Record:
    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
