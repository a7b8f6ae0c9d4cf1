"""``kept``: a value an object works out at its first read and keeps."""


class kept:
    """A method read as an attribute.  The first read computes the value
    and stores it on the instance under the method's name; from then on the
    instance attribute shadows this non-data descriptor.

    Not the cached property of ``functools``: that writes the instance
    ``__dict__``, which makes CPython 3.11 and later give up the object's
    inline attribute values, and every later read of any attribute on it
    then costs about three times as much.  ``object.__setattr__`` keeps
    the inline values, and it passes a record's frozen ``__setattr__``
    (``countgen._record``).
    """

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.compute(obj)
        object.__setattr__(obj, self.compute.__name__, value)
        return value
