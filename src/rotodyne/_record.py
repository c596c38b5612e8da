"""Immutable records, the value types, without importing ``dataclasses``.

A ``Record`` subclass declares fields and defaults as a frozen dataclass
does (``Factory(make)``: a fresh default per instance) and gets the same
straight-line ``__init__`` (calling ``__post_init__``), the one method
written for each class. ``__eq__``, ``__hash__``, ``__repr__`` and
``_replace`` are the base's, over the field tuple ``_values()``;
assignment and deletion raise AttributeError. ``dataclasses.fields``,
``asdict``, ``replace`` and ``is_dataclass`` work through
``__dataclass_fields__``.

``__init__`` gives the instance its ``__dict__``, the fields in order, in
one ``object.__setattr__`` call, and ``_store`` and the post-init writes
replace items of it. Per-field ``object.__setattr__`` calls would fill the
same dict, because no class in the MRO holds a field name as a data
descriptor (an attribute with ``__set__``): a default is a plain value or
a ``Factory``, and a method or ``cached_property`` is no data descriptor.
So reads, ``==``, pickle and ``copy`` see the fields as before. A fresh
dict, not items written into ``self.__dict__``, because on CPython 3.11
reading ``__dict__`` first turns the instance's shared-key values into a
split dict, whose attribute reads the interpreter does not specialize
(about 25 ns a read against 7).

Every number a caller passes in is read here: ``_real`` (a float),
``_count`` (an int) and ``_cycles``, which refuse bools and text. The value
types store their scalar fields through ``_real`` once (``_store``).
"""

_MISSING = object()


def _real(value, name: str) -> float:
    """A real number as a Python float. An int past the float range, a bool
    and anything that is not a ``numbers.Real`` are a ValueError."""
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            pass
    else:
        import numbers

        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


def _count(value, name: str) -> int:
    """A whole number as an int. A Python int is kept exact, so a count past
    the float range meets its caller's range check."""
    if type(value) is int or _real(value, name).is_integer():
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _cycles(value, name: str):
    """A cycle count: an integer, numpy's too, as an exact int, else a float."""
    real = value if type(value) is int else _real(value, name)
    return int(value) if hasattr(value, "__index__") else real


def _store(record, read, *names: str) -> None:
    """Store each named field of ``record`` as ``read(value, name)`` reads it."""
    fields = record.__dict__
    for name in names:
        fields[name] = read(fields[name], name)


class Factory:
    """A field default made afresh by ``make()`` for each record."""

    def __init__(self, make):
        self.make = make


class _DataclassFields:
    """A record class's ``__dataclass_fields__``: a frozen dataclass twin's,
    made on first read from the ``dataclasses`` its reader has loaded."""

    def __get__(self, record, cls):
        import sys  # loaded with the interpreter

        dataclasses = sys.modules.get("dataclasses")
        if dataclasses is None:
            raise AttributeError("__dataclass_fields__: dataclasses is not loaded")
        spec = []
        for name in cls.__match_args__:
            default, keywords = cls.__dict__.get(name, _MISSING), {}
            if isinstance(default, Factory):
                keywords["default_factory"] = default.make
            elif default is not _MISSING:
                keywords["default"] = default
            spec.append((name, cls.__annotations__[name], dataclasses.field(**keywords)))
        twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True)
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        return cls.__dataclass_fields__


class Record:
    """Base of the value types; ``__match_args__`` names each one's fields."""

    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls):
        names = cls.__match_args__ = tuple(cls.__annotations__)
        scope, params, items = {"_MISSING": _MISSING, "_set": object.__setattr__}, [], []
        for name in names:
            default = scope[f"_default_{name}"] = cls.__dict__.get(name, _MISSING)
            value = name
            if isinstance(default, Factory):
                params.append(f"{name}=_MISSING")
                value = f"_default_{name}.make() if {name} is _MISSING else {name}"
            else:
                params.append(name if default is _MISSING else f"{name}=_default_{name}")
            items.append(f"{name!r}: {value}")
        body = f"    _set(self, '__dict__', {{{', '.join(items)}}})\n"
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        exec(f"def __init__(self, {', '.join(params)}):\n{body}", scope)
        cls.__init__ = scope["__init__"]

    def _values(self) -> tuple:
        """The fields' values, in the order of ``__match_args__``."""
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def _replace(self, **changes):
        """A copy with the given fields changed, validated again."""
        return self.__class__(**{**dict(zip(self.__match_args__, self._values())), **changes})

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
