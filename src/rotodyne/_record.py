"""Immutable records, the value types, without importing ``dataclasses``.

A ``Record`` subclass declares fields and defaults as a frozen dataclass
does (``Factory(make)``: a fresh default per instance) and gets the same
straight-line ``__init__`` (calling ``__post_init__``), ``__eq__`` and
``__hash__`` over the field tuple, the last two written on first use;
assignment and deletion raise AttributeError. ``dataclasses.fields``,
``asdict``, ``replace`` and ``is_dataclass`` work through
``__dataclass_fields__``.
"""

_set = object.__setattr__
_MISSING = object()


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


def _compare(cls) -> None:
    """Write the class's own ``__eq__`` and ``__hash__``, which few commands call."""
    mine, theirs = ("".join(f"{who}.{n}," for n in cls.__match_args__) for who in ("self", "other"))
    scope = {}
    exec(
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({mine}))\n",
        scope,
    )
    cls.__eq__, cls.__hash__ = scope["__eq__"], scope["__hash__"]


class Record:
    """Base of the value types; ``__match_args__`` names each one's fields."""

    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls):
        names = cls.__match_args__ = tuple(cls.__annotations__)
        scope, params, body = {"_set": _set, "_MISSING": _MISSING}, [], []
        for name in names:
            default = scope[f"_default_{name}"] = cls.__dict__.get(name, _MISSING)
            value = name
            if isinstance(default, Factory):
                params.append(f"{name}=_MISSING")
                value = f"_default_{name}.make() if {name} is _MISSING else {name}"
            else:
                params.append(name if default is _MISSING else f"{name}=_default_{name}")
            body.append(f"    _set(self, {name!r}, {value})\n")
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()\n")
        exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}", scope)
        cls.__init__ = scope["__init__"]
        cls.__eq__, cls.__hash__ = Record.__eq__, Record.__hash__  # each class gets its own

    def __eq__(self, other):
        _compare(self.__class__)
        return self.__eq__(other)

    def __hash__(self):
        _compare(self.__class__)
        return self.__hash__()

    def _replace(self, **changes):
        """A copy with the given fields changed, validated again."""
        return self.__class__(**{**{n: getattr(self, n) for n in self.__match_args__}, **changes})

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
