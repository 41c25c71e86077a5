"""The one decorator that declares the package's record types.

A record is an immutable bundle of named values: a config section, an
evolution spec, a field, a fit, a verdict, a report.  @frozen declares
one as dataclass(frozen=True) would, and @frozen(eq=False) as
dataclass(frozen=True, eq=False) would, for records compared by identity.

On Python 3.11, dataclass compiles each generated method from source text
at every import: six for a frozen class (__init__, __repr__, __eq__,
__hash__, __setattr__ and __delattr__).  frozen asks dataclass for
__init__ alone, and attaches the other methods, written once here:

- __setattr__ lets __init__ set each declared field once; every other
  assignment raises dataclasses.FrozenInstanceError.  __post_init__ sets a
  value through object.__setattr__, as under frozen=True;
- __delattr__ always raises FrozenInstanceError;
- __repr__ prints ClassName(name=value, ...) over the repr fields;
- unless eq=False, __eq__ and __hash__ read the tuple of the compare
  fields, and __eq__ compares objects of the same class only.

fields, replace, astuple and __match_args__ work as on any dataclass.  No
subclassing is provided for: a record type's class is final.
"""

from dataclasses import FrozenInstanceError, dataclass, fields


def _setattr(self, name, value):
    if name in self.__dict__ or name not in self.__dataclass_fields__:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")
    self.__dict__[name] = value


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self):
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
    return f"{self.__class__.__qualname__}({shown})"


def _compared(obj):
    return tuple([getattr(obj, name) for name in obj._compare_names])


def _eq(self, other):
    if other is self:  # a tuple equals itself, whatever its items
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _compared(self) == _compared(other)


def _hash(self):
    return hash(_compared(self))


def frozen(cls=None, /, *, eq=True):
    """Declare cls a record type: @frozen, or @frozen(eq=False) for one
    that compares and hashes by identity."""
    if cls is None:
        return lambda cls: frozen(cls, eq=eq)
    cls = dataclass(cls, eq=False, repr=False)
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    if eq:
        cls._compare_names = tuple(f.name for f in fields(cls) if f.compare)
        cls.__eq__ = _eq
        cls.__hash__ = _hash
    return cls
