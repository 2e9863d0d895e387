"""How the package's frozen value types are built.

:func:`value_type` gives a class of annotated fields the contract of a
``dataclass(frozen=True, slots=True)``: ``__init__``, ``__eq__``,
``__hash__``, ``__repr__``, ``__match_args__``, pickling, copying,
``FrozenInstanceError`` on assignment, and ``__replace__`` for
``copy.replace`` (Python 3.13).  It builds the class itself because
``dataclasses`` imports ``inspect``: ``python -X importtime -c "import
dataclasses"`` gives 5.4-6.3 ms cumulative (median 5.6 ms of 9 runs;
Python 3.11.7, ``PYTHONDONTWRITEBYTECODE=1``, 2 shared vCPUs), which
every process that imported the package would pay.
``dataclasses`` is imported on first use instead: the first read of
``__dataclass_fields__`` builds a shadow dataclass with the same fields,
so ``dataclasses.fields``, ``replace``, ``is_dataclass`` and ``asdict``
work, and ``replace`` validates through the class's own ``__init__``.

A class that defines no ``__init__`` gets one generated here, which stores
each argument through the ``__set__`` of its field's slot descriptor.  A
class that validates its arguments keeps its own ``__init__`` and stores
them through :func:`slot_setters` in the same way.  The ``__init__`` a
frozen dataclass generates stores every field through
``object.__setattr__``, which looks the slot up again on each call: for
a 7-field class that takes about 1.8 times as long (Python 3.11).
"""


def value_type(cls):
    """Make ``cls`` a frozen, slotted class with the dataclass contract.

    Each annotation in the class body is a field, in order, and a value
    assigned to it there is its default (a ``default_factory`` is not
    supported).  Without an ``__init__`` of its own, ``cls`` gets one
    that takes the fields in order, with their defaults.  Assigning or
    deleting any attribute raises FrozenInstanceError.
    """
    names = tuple(cls.__annotations__)
    body = dict(cls.__dict__)
    defaults = {name: body.pop(name) for name in names if name in body}
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    methods = {
        "__eq__": _eq, "__hash__": _hash, "__repr__": _repr,
        "__getstate__": _getstate, "__setstate__": _setstate,
        "__setattr__": _refuse_assignment, "__delattr__": _refuse_deletion,
        "__replace__": _replace,
        "__dataclass_fields__": _DataclassFields(defaults)}
    cls = type(cls)(cls.__name__, cls.__bases__, {
        **methods, **body, "__slots__": names, "__match_args__": names,
        "__qualname__": cls.__qualname__})
    if "__init__" not in body:
        cls.__init__ = _storing_init(cls, defaults)
    return cls


def slot_setters(cls):
    """The ``__set__`` of each field's slot descriptor, in field order."""
    return tuple(getattr(cls, name).__set__ for name in cls.__match_args__)


def _storing_init(cls, defaults):
    """An ``__init__`` that stores each field through :func:`slot_setters`.

    The setters and defaults are the generated function's globals, so a
    call makes one ``__set__`` call per field and nothing else.
    """
    namespace, params, body = {}, [], []
    for name, setter in zip(cls.__match_args__, slot_setters(cls)):
        namespace[f"_set_{name}"] = setter
        if name in defaults:
            namespace[f"_default_{name}"] = defaults[name]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        body.append(f"    _set_{name}(self, {name})\n")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "".join(body),
         namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _values(self):
    return tuple([getattr(self, name) for name in self.__match_args__])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self):
    return hash(_values(self))


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}"
                       for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def _getstate(self):
    return list(_values(self))


def _setstate(self, state):
    for setter, value in zip(slot_setters(self.__class__), state):
        setter(self, value)


def _refuse_assignment(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _replace(self, /, **changes):
    from dataclasses import replace
    return replace(self, **changes)


class _DataclassFields:
    """A value type's ``__dataclass_fields__``: the first read builds them
    on a shadow ``dataclass(frozen=True)`` and stores them on the class."""

    def __init__(self, defaults):
        self.defaults = defaults

    def __get__(self, instance, owner):
        from dataclasses import dataclass
        shadow = dataclass(frozen=True)(type(owner.__name__, (), {
            "__annotations__": owner.__annotations__,
            "__module__": owner.__module__, **self.defaults}))
        owner.__dataclass_fields__ = shadow.__dataclass_fields__
        return owner.__dataclass_fields__
