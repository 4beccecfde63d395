"""Record: the immutable value base of TrialConfig, VerificationReport, E4Page,
FGAbelianGroup and CohomologySpec.

It does what a frozen dataclass would, without importing dataclasses (and
with it inspect) at start-up. A subclass names its fields in _fields and
passes their values, in that order, to Record.__init__. Equality and the
hash read _key(), all fields by default; equality holds only between
instances of the same class. Fields live in the instance __dict__, so
pickle and copy restore them without going through __setattr__.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: {type(self).__name__} is immutable")

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
