"""Cavity-modified decay and open-system geometric phase of a rotating
two-level emitter.

The package separates into layers that mirror the physics pipeline:

``kinematics``  circular-orbit relativistic factors
``cavity``      Lorentzian mode density of states
``rates``       emission/absorption rates (general + regime-expanded)
                and the generator ``EvolutionParams`` they define
``dynamics``    reduced-state propagation (closed form + ODE oracle)
``geophase``    mixed-state geometric-phase engines
``scenarios``   presets, sweeps, deterministic CSV/JSON output
``svgplot``     standalone SVG line panels
``cli``         the ``rotodyne`` command

Every name in the ``__all__`` of ``constants``, ``errors`` and the six
physics layers above ``svgplot`` is re-exported here, and nothing else
but ``__version__``.

Import rule: ``import rotodyne`` loads ``__version__`` and no layer, and
each command compiles only what it runs (``LOAD_STEPS`` in
``tests/module_sets.py``). ``cli`` imports the scenario core ``_scenario``,
and with it ``rates`` and the layers below, at its top; ``scenarios``,
``geophase``, ``svgplot``, numpy, ``json`` and ``numbers`` are imported by
the functions that call them, the phase kernel ``_kernel`` by the numeric
engines' first call. No module imports ``dynamics``, since the engines
read their generator from ``rates``: only the rule below loads it. Reading
a module's name here (a layer, ``svgplot`` or ``cli``) imports that module
alone; any other public name, or ``__all__``, imports every layer and the
kernel and binds all their public names, and an unbound private name
raises AttributeError, so ``from . import _x`` imports ``_x`` alone. The
value types are ``_record`` records (no ``dataclasses``); the CLI builds
one subparser.

All frequencies are angular (rad/s) throughout.
"""

from ._version import __version__

# the modules whose public names are re-exported, in the order of __all__
_LAYERS = (
    "constants", "errors", "kinematics", "cavity", "rates", "dynamics", "geophase", "scenarios"
)
_MODULES = ("svgplot", "cli")  # the other public modules, read by name


def __getattr__(name: str):
    """A module of the package by name, imported alone; a public name, or
    ``__all__``, after binding every layer's public names and ``__all__``,
    the kernel imported too, so that no engine call pays for it. The builtin
    ``__import__`` binds each module here and shows in ``-X importtime``."""
    if name in _LAYERS or name in _MODULES:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if not name.startswith("_") or name == "__all__":
        for layer in (*_LAYERS, "_kernel"):
            __import__(f"{__name__}.{layer}")
        public = {key: getattr(m, key) for m in map(globals().get, _LAYERS) for key in m.__all__}
        globals().update(public, __all__=[*public, "__version__"])
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
