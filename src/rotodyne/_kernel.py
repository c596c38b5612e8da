"""The non-unitary phase kernel of the two numeric engines.

``gp_tong_closed_form`` and ``gp_exact_integral`` (``geophase``) share
one kernel, K = the integral over [0, T] of cos theta0 - cos(angle) of
the decaying state: a power series in e = expm1(4 a tau) while e is well
inside its radius, and past it the elementary antiderivative in
``decimal``, rounded once to a float. ``_phase_kernel`` memoizes it on
the four floats it reads, a, b, theta0 and T, so that no engine call
hashes a record; ``_decay_geometry`` forms the state's geometry at
``tong``'s endpoint and in the saturated tail. Nothing here is public.

``geophase`` imports this module on the first call of a numeric engine,
so that the quasi-cycle engines and the commands that run them never
load it; ``decimal`` is imported only past the series.
"""

import functools
import math
import sys

from .errors import NumericsError

# e^{4 a tau} saturates the phase integrand long before overflow
SATURATION_EXPONENT = 300.0
# (a, b, theta0, T) keys whose kernel is kept: engines compared on one path share it
KERNEL_CACHE_SIZE = 8
# the kernel's series in e = expm1(4 a tau): its tail bound's share of the sum at which it
# stops, the terms it may take before the antiderivative takes over, and an |e| below
# which no singularity lies for any |b| <= a and theta0
SERIES_REL_TOL, SERIES_TERMS, SERIES_RADIUS = 2.0 ** -56, 40, math.sqrt(2.0) - 1.0


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


def _kernel_antiderivative(a4: float, x_end: float, ratio: float, cos_t: float, sin2: float):
    """Integral over tau in [0, x_end / a4] of cos theta0 - cos(angle), x =
    a4 tau, from its antiderivative in u = e^x. With c = cos theta0, s^2 =
    sin^2 theta0, r = ratio, alpha = c + r, B = s^2 - 2 r alpha, R(u) =
    sqrt(u s^2 + (c - r (u - 1))^2) and U = e^x_end:

        a4 K = c x_end + ln((P1(U) / (U P1(1)))^sgn(alpha) (P2(U) / P2(1))^sgn(r)),
        P1(u) = 2 alpha^2 + B u + 2 |alpha| R(u),  P2(u) = 2 |r| R(u) + 2 r^2 u + B.

    Each P = m + w, m its R term, is taken as (m^2 - w^2) / (m - w) where w
    < 0, m^2 - w^2 = s^2 (4 r alpha - s^2) times u^2 or 1 being positive
    there, so that neither form cancels; c x and the log cancel to the size
    of K, which ``decimal`` pays for in digits. (c, s^2) is first put on the
    unit circle, c / sqrt(c^2 + s^2) and s^2 / (c^2 + s^2), as R(1) = 1
    requires. A pass at 40 digits plus those that s^2 and the float c + r
    lose, which no comparison of passes reveals, is checked against one 20
    digits higher; unless the two agree to 20 digits, the precision rises by
    the digits lost (doubling when none agree) and both run again. Returns
    the higher pass rounded once to a float, half an ulp of it, and 0
    series terms."""
    import decimal

    def evaluate(prec):
        with decimal.localcontext(decimal.Context(prec=prec)):
            c, s2, r, x = map(decimal.Decimal, (cos_t, sin2, ratio, x_end))
            norm = c * c + s2
            c, s2 = c / norm.sqrt(), s2 / norm
            alpha, u = c + r, x.exp()
            big_b = s2 - 2 * r * alpha
            squares = s2 * (4 * r * alpha - s2)  # (m^2 - w^2) / lift of every P below
            root = (u * s2 + (c - r * (u - 1)) ** 2).sqrt()  # two squares: never negative

            def p(m, w, lift):
                return m + w if w >= 0 else lift * squares / (m - w)

            quotient = decimal.Decimal(1)  # of both logs, taken as one
            if alpha:
                m, w = 2 * abs(alpha), 2 * alpha * alpha
                q = p(m * root, w + big_b * u, u * u) / (u * p(m, w + big_b, 1))
                quotient = q if alpha > 0 else 1 / q
            if r:
                m, w = 2 * abs(r), 2 * r * r
                q = p(m * root, w * u + big_b, 1) / p(m, w + big_b, 1)
                quotient *= q if r > 0 else 1 / q
            return (c * x + quotient.ln()) / decimal.Decimal(a4)

    def exponent(v):
        return decimal.Decimal(v).adjusted()

    alpha = cos_t + ratio  # exact where it cancels; 0.0 leaves all of a double's 17 digits
    lost = exponent(max(abs(cos_t), abs(ratio))) - exponent(alpha) if alpha else 17
    prec = 40 + max(0, -exponent(sin2)) + lost
    while True:
        value, check = evaluate(prec), evaluate(prec + 20)
        gap = value - check
        agree = exponent(max(abs(value), abs(check))) - gap.adjusted() if gap else prec
        if agree >= 20:
            kernel = float(check)
            return kernel, 0.5 * math.ulp(kernel), 0
        prec += 40 - agree if agree > 0 else prec


def _kernel_series(a4: float, e_end: float, ratio: float, cos_t: float, sin2: float):
    """The kernel up to e_end = expm1(x_end) as a power series in
    e = expm1(x): f = c - g / R has f(0) = 0 and f' = (s^2 / 2) (c + 2 ratio
    + ratio e) Q^(-3/2), Q = R^2 = 1 + p e + ratio^2 e^2, p = s^2 - 2 ratio
    c, whose factors s^2 and c + 2 ratio keep every coefficient free of
    cancellation. Q^(-3/2) = sum z_n e^n, n z_n = -p (n + 1/2) z_{n-1} -
    ratio^2 (n + 1) z_{n-2}; f / (1 + e) is integrated term by term, as d
    tau = de / (a4 (1 + e)). Returns the sum, the tail bound as its error
    and the n series terms, the bound being (last term + rho * the one
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
            return total, abs(tail), n  # abs: a horizon of -0.0 gives rho = -0.0
        previous = term
        z_prev, z = z, -(p * (n + 0.5) * z + q * (n + 1) * z_prev) / n
    return None


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _phase_kernel(a: float, b: float, theta0: float, total_time: float):
    """K = integral over [0, T] of cos theta0 - cos(angle), the non-unitary
    kernel of both numeric engines: ``_kernel_series``, or past it
    ``_kernel_antiderivative``, up to SATURATION_EXPONENT in x = 4 a tau plus
    the integrand there for the rest of the horizon; closed forms for a = 0
    and on-axis states (sin^2 theta0 subnormal); on the Python floats a, b,
    theta0 and T, the memo's key, with 4 a T formed as 4 (a T). A hit across
    +-0.0 returns what a fresh call would. Returns K, its error estimate
    and the series terms. Raises NumericsError past the float range."""
    if a == 0.0:
        return 0.0, 0.0, 0  # pure precession: the angle never leaves theta0
    cos_t, sin_t = math.cos(theta0), math.sin(theta0)
    sin2 = sin_t * sin_t
    ratio, a4 = b / a, 4.0 * a
    if sin2 < sys.float_info.min:
        # cos(angle) = sign(g) leaves cos theta0 = +-1 for -cos theta0 at the knee
        kernel, err, terms = 0.0, 0.0, 0
        if ratio != 0.0 and cos_t / ratio > 0.0:
            kernel = 2.0 * cos_t * max(0.0, total_time - math.log1p(cos_t / ratio) / a4)
    else:
        four_a_t = 4.0 * (a * total_time)
        x_end = min(four_a_t, SATURATION_EXPONENT)
        e_end = math.expm1(x_end)
        kernel, err, terms = _kernel_series(
            a4, e_end, ratio, cos_t, sin2
        ) or _kernel_antiderivative(a4, x_end, ratio, cos_t, sin2)
        if four_a_t > SATURATION_EXPONENT:
            saturated = _decay_geometry(e_end, ratio, cos_t, sin2)[2]
            kernel += saturated * (total_time - x_end / a4)
    if not math.isfinite(kernel):  # the integrand is at most 2: only T near the float range
        raise NumericsError(f"phase kernel over T = {total_time!r} is past the float range")
    return kernel, err, terms


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
