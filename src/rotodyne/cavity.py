"""Lorentzian single-mode cavity density of states.

The field mode density seen by the emitter is an unnormalized Lorentzian
centered on the cavity frequency, with half width omega_c / Q:

    dos(w) = (omega_c/Q) / ((omega_c/Q)**2 + (w - omega_c)**2)   for w > 0,
    dos(w) = 0                                                   for w <= 0.

The peak value is Q / omega_c. No negative-frequency support: resonance
conditions that would sift a non-positive frequency contribute nothing.

Each formula is written once and run by one of two libraries, chosen by
the input: Python floats go through ``math`` when the frequency and the
cavity center are both scalars, and arrays go through numpy otherwise.
Both square through libm ``pow``, so the two give the same bits. Numpy is
imported only on that array branch: a ``CavitySpec`` stores its scalar
fields as floats (``_record._real`` reads them) and validates them by
comparisons, and float calls never load it; nor does a scalar frequency
of another type, which ``_real`` reads.
A cavity sweep in ``scenarios`` relies on both: where numpy is not loaded
and the grid is small it takes the float branch once per point, and its
rows are those of the array branch bit for bit.

One Lorentzian, ``_lorentzian``, takes the half width and the detuning:
``dos`` and ``dos_derivative`` form them from the frequency, and the
general family's rates (``rates._direct_sums``) pass detunings of their
own, kept exact, to read every channel through it. Where the plain
denominator leaves the float range (it overflows once the half width or
the detuning passes about 1e154 rad/s for the density and 1e77 for the
derivative), the same formula runs on the half width and the detuning
divided by the larger of the two. Every value inside the
plain form's range keeps its bits. Past it the result is finite, or
rounds to 0 or infinity where the true value is past the float range;
it is never NaN, and no OverflowError or numpy warning arises.
``CavitySpec`` rejects a linewidth that is not positive and finite,
which this relies on.
"""

from __future__ import annotations

import math
import sys

from ._record import Record, _real, _store

__all__ = ["CavitySpec", "dos", "dos_derivative"]


class CavitySpec(Record):
    """Cavity mode: center frequency (rad/s; a float, or a 1-d array for one
    mode per entry), quality factor, mode volume (m^3)."""

    omega_c: float | np.ndarray
    q_factor: float
    volume: float

    def __post_init__(self) -> None:
        # the all-float test first: a sweep builds one spec per grid point
        if not type(self.omega_c) is type(self.q_factor) is type(self.volume) is float:
            _store(self, _real, "q_factor", "volume")
            numpy = sys.modules.get("numpy")  # an array exists only once numpy is loaded
            if numpy is None or not isinstance(self.omega_c, numpy.ndarray):
                _store(self, _real, "omega_c")
        for name in ("omega_c", "q_factor", "volume"):
            if not _positive_finite(getattr(self, name)):
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if type(self.omega_c) is float:
            linewidth = self.linewidth  # a float quotient overflows to inf silently
        else:
            import numpy as np
            with np.errstate(over="ignore"):
                linewidth = self.linewidth
        if not _positive_finite(linewidth):
            raise ValueError(f"linewidth omega_c / q_factor must be positive and finite, got {linewidth}")

    @property
    def linewidth(self) -> float | np.ndarray:
        """Half width omega_c / Q, rad/s."""
        return self.omega_c / self.q_factor


def _positive_finite(value) -> bool:
    """Whether ``value``, a float or a numpy array of numbers (no bools) on at
    most one dimension, is positive and finite at every entry."""
    if type(value) is float:
        return 0.0 < value < math.inf
    entries_ok = value.dtype.kind in "fiu" and value.ndim <= 1
    return entries_ok and bool(((value > 0.0) & (value < math.inf)).all())


def _operands(cavity: CavitySpec, frequency):
    """(lib, w, omega_c, Q): the library and its operands. ``math`` and
    floats when the frequency and omega_c are both scalars (0-d arrays
    included); numpy and arrays otherwise. A frequency that is no array,
    list or tuple is read by ``_real``; an array's entries must be numbers,
    as ``_positive_finite`` requires of omega_c (no bools, no text)."""
    w, center, q = frequency, cavity.omega_c, cavity.q_factor
    # a type test first: np.asarray costs microseconds on every scalar call
    if not type(w) is type(center) is float:
        numpy = sys.modules.get("numpy")  # an array exists only once numpy is loaded
        array = isinstance(w, (list, tuple)) or numpy is not None and isinstance(w, numpy.ndarray)
        if not array:
            w = _real(w, "frequency")
            if type(center) is float:  # a scalar frequency loads no numpy
                return math, w, center, q
        import numpy as np
        w, center = np.asarray(w), np.asarray(center, dtype=float)
        if w.dtype.kind not in "fiu":
            raise ValueError(f"frequency must be a number, got {frequency!r}")
        if w.ndim or center.ndim:
            return np, w.astype(float, copy=False), center, q
        w, center = float(w), float(center)
    return math, w, center, q


def _term(x, y, s, power: int, pow_):
    """(numerator, denominator) of the Lorentzian term on the half width
    x * s and the detuning y * s: hw / (hw**2 + d**2) at power 1 and its
    slope -2 hw d / (hw**2 + d**2)**2 at power 2. Division by s = 1 is
    exact, so the plain form is the scaled one at s = 1."""
    # Both libraries square the detuning through libm pow. An array
    # ``x ** 2`` squares exactly, an ulp off pow for ~0.4 % of inputs, which
    # the cancelling non-inertial remainder amplifies to 1e-7 relative: one
    # rounding for floats and arrays keeps each table's bytes.
    total = x * x + pow_(y, 2)
    if power == 1:
        return x / s, total
    return -2.0 * x * y / s / s, pow_(total, 2)


def _lorentzian(hw, d, power: int, lib):
    """The ``_term`` at ``power`` from the half width hw and the detuning d
    where its denominator is a positive finite float, and from hw / s and
    d / s with s = max(hw, |d|) elsewhere. The scaled denominator lies in
    [1, 2**power], so the value neither overflows nor divides by zero; it
    rounds to 0 or to a signed infinity only where the true value is past
    the float range. ``lib`` is ``math`` for floats and numpy for arrays."""
    if lib is math:
        try:
            num, den = _term(hw, d, 1.0, power, math.pow)
        except OverflowError:  # where numpy's float_power returns inf
            den = math.inf
        if 0.0 < den < math.inf:
            return num / den
        s = max(hw, abs(d))
        num, den = _term(hw / s, d / s, s, power, math.pow)
        return num / den
    with lib.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num, den = _term(hw, d, 1.0, power, lib.float_power)
        fits = (den > 0.0) & (den < math.inf)
        if fits.all():
            return num / den
        s = lib.maximum(hw, abs(d))
        scaled_num, scaled_den = _term(hw / s, d / s, s, power, lib.float_power)
        return lib.where(fits, num / den, scaled_num / scaled_den)


def dos(cavity: CavitySpec, frequency):
    """Density-of-states weight at ``frequency`` (rad/s; scalar or array).

    ``frequency`` broadcasts against an array ``omega_c``; the result is a
    float when both are scalars. Non-positive frequencies return exactly
    0, and so do infinite or NaN ones.
    """
    lib, w, center, q = _operands(cavity, frequency)
    if lib is math:
        return _lorentzian(center / q, w - center, 1, math) if 0.0 < w < math.inf else 0.0
    with lib.errstate(over="ignore"):  # an unphysical w may overflow the detuning
        density = _lorentzian(center / q, w - center, 1, lib)
    return lib.where((w > 0.0) & (w < math.inf), density, 0.0)


def dos_derivative(cavity: CavitySpec, frequency):
    """Analytic d(dos)/dw at ``frequency`` (rad/s; scalar or array).

    Broadcasts like ``dos``. The derivative is only defined on the
    physical domain: any frequency that is not positive and finite raises
    ValueError.
    """
    lib, w, center, q = _operands(cavity, frequency)
    inside = (w > 0.0) & (w < math.inf)
    if not (inside if lib is math else inside.all()):
        raise ValueError("dos_derivative requires strictly positive, finite frequency")
    return _lorentzian(center / q, w - center, 2, lib)
