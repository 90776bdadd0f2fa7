"""The shared base of the package's value records."""


class Record:
    """Equality, hashing and repr over the fields named in _fields, in order,
    against records of the same class only; repr then shows the derived
    fields of _extra.  A record refuses assignment and deletion once built:
    its __init__ sets the fields through vars(self).  These are plain
    methods, compiled once with this module, where a dataclass would exec
    generated ones at every import."""

    _fields = ()
    _extra = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields + self._extra)
        return f"{type(self).__name__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")
