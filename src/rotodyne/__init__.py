"""Cavity-modified decay and open-system geometric phase of a rotating
two-level emitter.

The package separates into layers that mirror the physics pipeline:

``kinematics``  circular-orbit relativistic factors
``cavity``      Lorentzian mode density of states
``rates``       emission/absorption rates (general + regime-expanded)
``dynamics``    reduced-state propagation (closed form + ODE oracle)
``geophase``    mixed-state geometric-phase engines
``scenarios``   presets, sweeps, deterministic CSV/JSON output
``svgplot``     standalone SVG line panels
``cli``         the ``rotodyne`` command

Every name in the ``__all__`` of ``constants``, ``errors`` and the six
physics layers above ``svgplot`` is re-exported here, and nothing else
but ``__version__``.

Import rule: ``import rotodyne`` loads ``__version__`` and no layer. What
some commands do not call (``geophase``, ``dynamics``, ``svgplot``, numpy,
``json``, ``csv``) is imported inside the function that calls it, so each
command loads only what it calls; ``scenarios`` imports ``rates`` and the
layers below it at its top, since every command but ``presets`` calls
them. Reading a module's name here (``rotodyne.scenarios``) imports that
module alone; reading any other public name, or ``__all__``, imports every
layer and binds all their public names at once. The value types are
``_record`` records (no ``dataclasses``); the CLI builds one subparser.

All frequencies are angular (rad/s) throughout.
"""

from ._version import __version__

# the modules whose public names are re-exported, in the order of __all__
_LAYERS = (
    "constants", "errors", "kinematics", "cavity", "rates", "dynamics", "geophase", "scenarios"
)


def __getattr__(name: str):
    """A module of the package by name, imported alone; any other name
    after binding every layer's public names and ``__all__``. The builtin
    ``__import__`` binds each module here and shows in ``-X importtime``."""
    if name in _LAYERS or name in ("svgplot", "cli"):
        __import__(f"{__name__}.{name}")
        return globals()[name]
    for layer in _LAYERS:
        __import__(f"{__name__}.{layer}")
    modules = [globals()[layer] for layer in _LAYERS]
    public = {key: getattr(module, key) for module in modules for key in module.__all__}
    globals().update(public, __all__=[*public, "__version__"])
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
