"""How the package's frozen value types are built.

A value type is a ``dataclass(frozen=True, slots=True, init=False)`` whose
own ``__init__`` validates its arguments and stores them through
:func:`slot_setters`.  The ``__init__`` a frozen dataclass generates
stores every field through ``object.__setattr__``, which looks the slot up
again on each call and takes about twice as long.
"""

from dataclasses import FrozenInstanceError, dataclass, fields


def value_type(cls):
    """Make ``cls`` a frozen, slotted dataclass with its own ``__init__``.

    Assigning or deleting any attribute raises FrozenInstanceError.  The
    ``__setattr__`` that dataclass generates for a slotted class would
    raise TypeError for a name that is not a field (Python 3.10 and 3.11),
    so it is replaced.
    """
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def slot_setters(cls):
    """The ``__set__`` of each field's slot descriptor, in field order."""
    return tuple(getattr(cls, field.name).__set__ for field in fields(cls))
