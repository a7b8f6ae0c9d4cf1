"""``record``: an immutable class of named fields, built without generating code.

``record`` reads the class's annotations (its fields, in order) and the
class attributes of the same names (their defaults) once, and installs
shared methods that read the fields through ``__match_args__``.  It
stands in for a frozen dataclass, whose decorator compiles an
``__init__``, ``__repr__``, ``__eq__`` and more per class at import.
Repr strings, equality, hash values and immutability are a frozen
dataclass's; ``dataclasses.fields``, ``replace`` and ``astuple`` do not
apply.  To build a variant, construct anew:
``type(r)(*(changes.get(f, getattr(r, f)) for f in r.__match_args__))``.
"""

from .exceptions import FrozenInstanceError


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__match_args__])


def _bind(cls, args, kwargs) -> list:
    """The field values of ``cls(*args, **kwargs)``, in field order."""
    names = cls.__match_args__
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments "
                        f"but {len(args)} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        values[name] = value
    values = {**cls._record_defaults, **values}
    missing = [name for name in names if name not in values]
    if missing:
        raise TypeError(f"{cls.__name__}() missing required arguments: {', '.join(missing)}")
    return [values[name] for name in names]


def _init(self, *args, **kwargs):
    cls = type(self)
    names = cls.__match_args__
    if kwargs or len(args) != len(names):
        args = _bind(cls, args, kwargs)
    # one object.__setattr__ per field in declaration order, as a dataclass
    # __init__ does: every instance keeps CPython's inline attribute values
    for name, value in zip(names, args):
        object.__setattr__(self, name, value)
    if cls._record_post:
        self.__post_init__()


def _repr(self) -> str:
    fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
    return f"{type(self).__qualname__}({fields})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` an immutable record of its annotated fields."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    cls.__match_args__ = names
    cls._record_defaults = defaults
    cls._record_post = hasattr(cls, "__post_init__")
    cls.__init__ = _init
    cls.__repr__ = _repr
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls
