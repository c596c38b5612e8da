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

All frequencies are angular (rad/s) throughout.
"""

from . import cavity, constants, dynamics, errors, geophase, kinematics, rates, scenarios
from ._version import __version__
from .cavity import *  # noqa: F403
from .constants import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .geophase import *  # noqa: F403
from .kinematics import *  # noqa: F403
from .rates import *  # noqa: F403
from .scenarios import *  # noqa: F403

__all__ = [
    *constants.__all__,
    *errors.__all__,
    *kinematics.__all__,
    *cavity.__all__,
    *rates.__all__,
    *dynamics.__all__,
    *geophase.__all__,
    *scenarios.__all__,
    "__version__",
]
