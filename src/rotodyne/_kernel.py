"""The non-unitary phase kernel of the two numeric engines.

``gp_tong_closed_form`` and ``gp_exact_integral`` (``geophase``) share
one kernel, K = the integral over [0, T] of cos theta0 - cos(angle) of
the decaying state: a power series in e = expm1(4 a tau) while e is well
inside its radius, and past it checked composite 16-point Gauss-Legendre
quadrature on panels graded toward the integrand's knee. ``_phase_kernel``
memoizes it per (generator, horizon); ``_decay_geometry`` forms the
state's geometry at each panel node, at ``tong``'s endpoint and in the
saturated tail. Everything runs on Python floats, and nothing here is
public.

``geophase`` imports this module on the first call of a numeric engine,
so that the quasi-cycle engines and the commands that run them never
load it.
"""

from __future__ import annotations

import functools
import math
import sys

from .errors import NumericsError

# e^{4 a tau} saturates the phase integrand long before overflow
SATURATION_EXPONENT = 300.0
# widest Gauss-Legendre panel in x = 4 a tau before relaxation
KERNEL_PANEL = 0.5
# gap allowed between a panel set and its halving, relative to the integral of |integrand|
KERNEL_REL_TOL = 1e-10
# further halvings of the panel set before the kernel gives up
MAX_HALVINGS = 4
# (generator, horizon) pairs whose kernel is kept: engines compared on one path share it
KERNEL_CACHE_SIZE = 8
# the kernel's series in e = expm1(4 a tau): its tail bound's share of the sum at which it
# stops, the terms it may take before the panels take over, and an |e| below which no
# singularity lies for any |b| <= a and theta0
SERIES_REL_TOL, SERIES_TERMS, SERIES_RADIUS = 2.0 ** -56, 40, math.sqrt(2.0) - 1.0


# positive nodes of the 16-point Gauss-Legendre rule on [-1, 1] and their weights,
# correctly rounded
_GL_HALF = (
    (0.09501250983763744, 0.1894506104550685),
    (0.2816035507792589, 0.18260341504492358),
    (0.45801677765722737, 0.16915651939500254),
    (0.6178762444026438, 0.14959598881657674),
    (0.755404408355003, 0.12462897125553388),
    (0.8656312023878318, 0.09515851168249279),
    (0.9445750230732326, 0.062253523938647894),
    (0.9894009349916499, 0.027152459411754096),
)
_GL = tuple((-x, w) for x, w in reversed(_GL_HALF)) + _GL_HALF
# (node, weight) of the rule on the unit panel [0, 1], and of the rule on each of its halves
_WHOLE_PANEL = tuple(((1.0 + x) / 2.0, w / 2.0) for x, w in _GL)
_HALF_PANELS = tuple(((mid + 0.5 * x) / 2.0, w / 4.0) for mid in (0.5, 1.5) for x, w in _GL)


def _decay_geometry(e: float, ratio: float, cos_t: float, sin2: float):
    """(g, R, cos theta0 - cos(angle)) at e = expm1(4 a tau): g = cos theta0
    - ratio e, R = sqrt((1 + e) sin^2 + g^2), cos(angle) = g / R. Where c g
    > 0, c = cos theta0, the drop is taken in the cancelled form s^2 e (c (c
    + 2 ratio) - ratio^2 e) / (R (c R + g)), elsewhere c - g / R adds two
    terms of one sign. The sign of c g is read from g's side of 0, so that
    the product cannot underflow. R = 0 raises ZeroDivisionError."""
    g = cos_t - ratio * e
    big_r2 = (1.0 + e) * sin2 + g * g
    big_r = math.sqrt(big_r2)
    if g > 0.0 if cos_t > 0.0 else g < 0.0:
        numer = e * (sin2 * cos_t * (cos_t + 2.0 * ratio) - (sin2 * ratio * ratio) * e)
        return g, big_r, numer / (cos_t * big_r2 + g * big_r)
    return g, big_r, cos_t - g / big_r


def _knee(ratio: float, cos_t: float, sin2: float) -> tuple[tuple[float, float], float]:
    """((x_0, x_k), delta) in x = 4 a tau from the integrand's
    singularities, where R^2 = 0, a quadratic in u = e^x. A complex pair
    lies at |u| = 1 + cos theta0 / ratio, the knee x_k = x_0 where g
    changes sign, a distance delta from the real axis; it nears the axis as
    sin theta0 -> 0. Otherwise the roots are negative reals, at distance
    pi, of log-moduli x_0 <= x_k: past x_0 the integrand relaxes toward cos
    theta0 and turns again only near x_k, which b = 0 puts at infinity."""
    q = ratio * (cos_t + ratio)
    if 4.0 * q > sin2:
        delta = math.atan2(math.sqrt(sin2 * (4.0 * q - sin2)), 2.0 * q - sin2)
        x_k = math.log1p(cos_t / ratio)
        # below a few ulps of x_k no panel edge can follow it
        return (x_k, x_k), max(delta, 1e-14 * max(1.0, x_k))
    if ratio == 0.0:
        return (math.log(cos_t * cos_t / sin2) if cos_t else -math.inf, math.inf), math.pi
    # the larger root: (b + sqrt(b^2 - 4 q^2)) / (2 ratio^2), b = sin^2 - 2 q; the
    # roots' product is (cos theta0 + ratio)^2 / ratio^2
    larger = (sin2 - 2.0 * q + math.sqrt(sin2 * (sin2 - 4.0 * q))) / 2.0
    x_k = math.log(larger) - 2.0 * math.log(abs(ratio))
    alpha = cos_t + ratio
    return (2.0 * math.log(abs(alpha)) - math.log(larger) if alpha else -math.inf, x_k), math.pi


def _kernel_panels(
    x_end: float, turns: tuple[float, float], delta: float
) -> list[tuple[float, float]]:
    """(left end, width) tuples of panels tiling [0, x_end], from ``_knee``'s
    turns (x_0, x_k) and delta: at most KERNEL_PANEL wide, shrinking
    geometrically toward a sharp knee x_k (delta < KERNEL_PANEL, a
    breakpoint) down to about delta; past x_0 or x_k at most as wide as
    the distance from it, and before x_k at most half the distance to it,
    so that they grow geometrically once the integrand has relaxed and
    shrink again toward its next turn. Each panel keeps the singularities
    a panel width away."""
    (x_0, x_k), panels, x = turns, [], 0.0
    while x < x_end:
        d = x - x_k
        if d < 0.0 and delta < KERNEL_PANEL:
            nxt = min(x + min(KERNEL_PANEL, 0.5 * math.hypot(d, delta)), x_k)
        else:
            nxt = x + min(max(KERNEL_PANEL, d, min(x - x_0, -0.5 * d)), math.hypot(d, delta))
        nxt = min(nxt, x_end)
        panels.append((x, nxt - x))
        x = nxt
    return panels


def _nonunitary_kernel(a4: float, x_end: float, ratio: float, cos_t: float, sin2: float):
    """Integral over tau in [0, x_end / a4] of cos theta0 - cos(angle),
    with x = a4 tau, by 16-point Gauss-Legendre on ``_kernel_panels``. The
    panel set and its halving are evaluated together; while their gap
    exceeds KERNEL_REL_TOL times the integral of |integrand| the panels
    are halved again, at most MAX_HALVINGS times, else NumericsError.
    Each estimate is the ``math.fsum`` of its nodes' shares, width times
    weight times integrand. Returns the halved set's integral, the gap,
    the halved set's panel count, the halvings taken and 0 series terms.
    The accepted pass evaluated the integrand 24 times per panel of the
    halved set: its own 16 nodes and half of the 16 of the panel it halves."""
    panels = _kernel_panels(x_end, *_knee(ratio, cos_t, sin2))

    def shares(rule):
        return [
            width * weight * _decay_geometry(math.expm1(left + width * node), ratio, cos_t, sin2)[2]
            for left, width in panels
            for node, weight in rule
        ]

    for halvings in range(1, MAX_HALVINGS + 2):
        # summed in x, where |integrand| <= 2 keeps every sum within 2 x_end, so that
        # math.fsum cannot overflow; only the division by a4 may, to an inf the caller reports
        fine_shares = shares(_HALF_PANELS)
        coarse, fine = math.fsum(shares(_WHOLE_PANEL)), math.fsum(fine_shares)
        gap = abs(fine - coarse)
        # |fine| bounds the integral of |integrand| from below, which is summed
        # only if needed; integrand values below the normal range carry no digits
        floor = max(KERNEL_REL_TOL * abs(fine), x_end * sys.float_info.min)
        if gap <= floor or gap <= KERNEL_REL_TOL * math.fsum(map(abs, fine_shares)):
            return fine / a4, gap / a4, 2 * len(panels), halvings, 0
        halves = [(left, 0.5 * width) for left, width in panels]
        panels = halves + [(left + half, half) for left, half in halves]
    raise NumericsError(
        f"phase quadrature did not converge: the last halving, to {len(panels)} panels, "
        f"moved the integral by {gap / a4:.3e}"
    )


def _kernel_series(a4: float, e_end: float, ratio: float, cos_t: float, sin2: float):
    """``_nonunitary_kernel`` up to e_end = expm1(x_end) as a power series in
    e = expm1(x): f = c - g / R has f(0) = 0 and f' = (s^2 / 2) (c + 2 ratio
    + ratio e) Q^(-3/2), Q = R^2 = 1 + p e + ratio^2 e^2, p = s^2 - 2 ratio
    c, whose factors s^2 and c + 2 ratio keep every coefficient free of
    cancellation. Q^(-3/2) = sum z_n e^n, n z_n = -p (n + 1/2) z_{n-1} -
    ratio^2 (n + 1) z_{n-2}; f / (1 + e) is integrated term by term, as d
    tau = de / (a4 (1 + e)). Returns ``_nonunitary_kernel``'s tuple with no
    panels and the tail bound for the gap: (last term + rho * the one
    before, lest one vanishing coefficient end the sum) * rho / (1 - rho),
    rho = e_end / SERIES_RADIUS; None if SERIES_TERMS terms leave the bound
    above SERIES_REL_TOL of the sum."""
    rho = e_end / SERIES_RADIUS
    if not rho < 1.0:
        return None
    p, q, bound = sin2 - 2.0 * ratio * cos_t, ratio * ratio, rho / (1.0 - rho)
    slope, half = cos_t + 2.0 * ratio, 0.5 * sin2
    z_prev, z, coeff, total, previous = 0.0, 1.0, 0.0, 0.0, math.inf
    power = e_end / a4  # divided first, so that a tiny e_end^2 cannot underflow
    for n in range(1, SERIES_TERMS + 1):
        coeff = half * (slope * z + ratio * z_prev) / n - coeff  # of e^n in f / (1 + e)
        power *= e_end
        term = coeff * power / (n + 1)
        total += term
        tail = (abs(term) + rho * abs(previous)) * bound
        if tail <= SERIES_REL_TOL * abs(total):
            return total, abs(tail), 0, 0, n  # abs: a horizon of -0.0 gives rho = -0.0
        previous = term
        z_prev, z = z, -(p * (n + 0.5) * z + q * (n + 1) * z_prev) / n
    return None


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _phase_kernel(p: EvolutionParams, total_time: float):
    """K = integral over [0, T] of cos theta0 - cos(angle), the non-unitary
    kernel of both numeric engines: ``_kernel_series``, or past it
    ``_nonunitary_kernel``, up to SATURATION_EXPONENT in x = 4 a tau plus
    the integrand there for the rest of the horizon; closed forms for a = 0
    and on-axis states (sin^2 theta0 subnormal); on a, b and T as Python
    floats, so that a memo hit across +-0.0 or numpy scalars returns what a
    fresh call would. Returns K, its error estimate, the panels, the
    halvings and the series terms. Raises NumericsError past the float range."""
    a, total_time = float(p.a_coeff), float(total_time)
    if a == 0.0:
        return 0.0, 0.0, 0, 0, 0  # pure precession: the angle never leaves theta0
    cos_t, sin_t = math.cos(p.theta0), math.sin(p.theta0)
    sin2 = sin_t * sin_t
    ratio, a4 = float(p.b_coeff) / a, 4.0 * a
    if sin2 < sys.float_info.min:
        # cos(angle) = sign(g) leaves cos theta0 = +-1 for -cos theta0 at the knee
        kernel, err, panels, halvings, terms = 0.0, 0.0, 0, 0, 0
        if ratio != 0.0 and cos_t / ratio > 0.0:
            kernel = 2.0 * cos_t * max(0.0, total_time - math.log1p(cos_t / ratio) / a4)
    else:
        four_a_t = float(p.relaxation_exponent(total_time))
        x_end = min(four_a_t, SATURATION_EXPONENT)
        e_end = math.expm1(x_end)
        kernel, err, panels, halvings, terms = _kernel_series(
            a4, e_end, ratio, cos_t, sin2
        ) or _nonunitary_kernel(a4, x_end, ratio, cos_t, sin2)
        if four_a_t > SATURATION_EXPONENT:
            saturated = _decay_geometry(e_end, ratio, cos_t, sin2)[2]
            kernel += saturated * (total_time - x_end / a4)
    if not math.isfinite(kernel):  # the integrand is at most 2: only T near the float range
        raise NumericsError(f"phase kernel over T = {total_time!r} is past the float range")
    return kernel, err, panels, halvings, terms


def _sweep(omega: float, total_time: float) -> float:
    """omega T, the azimuth the numeric engines precess through. Raises
    ValueError for a negative or non-finite horizon and NumericsError where
    omega T is not finite, before any kernel work: no phase survives that
    sweep."""
    if not 0.0 <= total_time < math.inf:
        raise ValueError(f"total_time must be non-negative and finite, got {total_time}")
    sweep = omega * total_time
    if not math.isfinite(sweep):
        raise NumericsError(f"precession angle omega T = {sweep} is not finite")
    return sweep
