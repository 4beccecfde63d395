"""Record: the immutable value base of IntMatrix, Lattice, Isometry, MukaiVector,
BField, TrialConfig, VerificationReport, E4Page, FGAbelianGroup,
CohomologySpec and the phi generator pool (verify._Pool).

It does what a frozen dataclass would, without importing dataclasses (and
with it inspect) at start-up. A subclass lists its constructor's arguments,
in order, in _fields, and sets each field once: through Record.__init__, or
through set_field where a constructor or a lazy cache writes its own slots.
Every record declares its slots (`__slots__ = _fields = (...)` where it
keeps nothing but its fields), so no instance has a __dict__ through which
a write could pass Record.__setattr__.
Equality and the hash read _key(), all fields by default; equality holds
only between instances of the same class. Pickle and copy rebuild a value
through its constructor from its field values, so a copy passes the same
checks as the original, and a slotted record pickles at every protocol.
require_int is the one int check of the constructors' counts and dimensions.
"""

# object.__setattr__, which writes a slot past Record.__setattr__.
set_field = object.__setattr__


def require_int(field: str, value) -> None:
    """Reject anything but an int for a count, a seed or a dimension; a bool is not one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{field} must be an int, got {type(value).__name__}")


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            set_field(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
