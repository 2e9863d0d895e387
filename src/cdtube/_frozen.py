"""How the package's frozen value types are built.

A value type is a ``dataclass(frozen=True, slots=True, init=False)``.  A
class that defines no ``__init__`` gets one generated here, which stores
each argument through the ``__set__`` of its field's slot descriptor.  A
class that validates its arguments keeps its own ``__init__`` and stores
them through :func:`slot_setters` in the same way.  The ``__init__`` a
frozen dataclass generates stores every field through
``object.__setattr__``, which looks the slot up again on each call: for
a 7-field class that takes about 1.8 times as long (Python 3.11).
"""

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields


def value_type(cls):
    """Make ``cls`` a frozen, slotted dataclass with an ``__init__``.

    Without an ``__init__`` of its own, ``cls`` gets one that takes the
    fields in order, with their defaults (a ``default_factory`` is not
    supported).  Assigning or deleting any
    attribute raises FrozenInstanceError.  The ``__setattr__`` that
    dataclass generates for a slotted class would raise TypeError for a
    name that is not a field (Python 3.10 and 3.11), so it is replaced.
    """
    own_init = "__init__" in cls.__dict__
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    if not own_init:
        cls.__init__ = _storing_init(cls)
    return cls


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def slot_setters(cls):
    """The ``__set__`` of each field's slot descriptor, in field order."""
    return tuple(getattr(cls, field.name).__set__ for field in fields(cls))


def _storing_init(cls):
    """An ``__init__`` that stores each field through :func:`slot_setters`.

    The setters and defaults are the generated function's globals, so a
    call makes one ``__set__`` call per field and nothing else.
    """
    namespace, params, body = {}, [], []
    for field, setter in zip(fields(cls), slot_setters(cls)):
        name = field.name
        namespace[f"_set_{name}"] = setter
        if field.default is MISSING:
            params.append(name)
        else:
            namespace[f"_default_{name}"] = field.default
            params.append(f"{name}=_default_{name}")
        body.append(f"    _set_{name}(self, {name})\n")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "".join(body),
         namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
