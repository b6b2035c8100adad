"""The bases of the records that are not tuples.

Records that only hold fields are ``typing.NamedTuple``s.  A record whose
constructor converts or validates its arguments, or that is a container
or defines arithmetic, derives from ``Frozen``: its fields are its
``__slots__``, in constructor order, and its ``__init__`` sets them with
``set_field``.  A report that is filled in as a computation runs derives
from ``Mutable``: its fields are its instance attributes, which its
``__init__`` sets in constructor order.
"""

__all__ = ["Frozen", "Mutable", "set_field"]

# object's own __setattr__, which Frozen's does not block; a module name is
# looked up faster than the attribute of a builtin
set_field = object.__setattr__


def _repr(record, fields) -> str:
    return type(record).__name__ + "(" + ", ".join(
        f"{name}={value!r}" for name, value in fields) + ")"


class Frozen:
    """Fields that refuse assignment, value equality, hash and repr, and
    pickling that calls the constructor on the fields again."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return _repr(self, zip(self.__slots__, self._values()))

    def __reduce__(self):
        return type(self), self._values()


class Mutable:
    """Value equality and repr over the instance attributes; unhashable."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        return _repr(self, vars(self).items())
