"""Exception types shared across modules.

Input/contract violations raise plain ValueError; anything that fails
while the numbers are being produced raises NumericsError, so the CLI can
map it to its own exit code. That is, in the rates: a rate that is not
finite; in the phase engines: a precession angle omega T that is not
finite, a phase kernel that is not finite and a degenerate state (no
eigenbasis); in the ODE oracle: a failed eigendecomposition of the
generator, an eigenvector expansion past its growth guard and non-finite
states.
"""

from __future__ import annotations

__all__ = ["NumericsError"]


class NumericsError(RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""
