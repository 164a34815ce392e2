"""Special functions, unit conversions and adaptive quadrature.

Everything here is a pure function over plain floats; the rest of the
package builds on these primitives.
"""

from __future__ import annotations

import math

from scipy import special

# Euler-Mascheroni constant, 20 significant digits.
EULER_MASCHERONI = 0.57721566490153286061
# the one accuracy target of `integrate_adaptive`
_QUAD_RELATIVE_TOLERANCE = 1e-10
_QUAD_SUBDIVISIONS = 200


class IntegrationError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def upper_incomplete_gamma(s: float, x: float) -> float:
    """Unnormalized upper incomplete gamma Gamma(s, x), non-integer s allowed."""
    if s <= 0.0:
        raise ValueError(f"requires s > 0, got {s}")
    if x < 0.0:
        raise ValueError(f"requires x >= 0, got {x}")
    return float(special.gammaincc(s, x)) * math.exp(math.lgamma(s))


def digamma_integer(n: int) -> float:
    """psi(n) for integer n >= 1 via the harmonic-sum identity."""
    if n < 1 or int(n) != n:
        raise ValueError(f"digamma_integer requires an integer n >= 1, got {n}")
    return math.fsum(1.0 / k for k in range(1, int(n))) - EULER_MASCHERONI


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power level from dBm to watts."""
    if not math.isfinite(p_dbm):
        raise ValueError(f"dBm value must be finite, got {p_dbm}")
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def integrate_adaptive(f, a: float, b: float) -> float:
    """Definite integral of f on [a, b] to a relative `_QUAD_RELATIVE_TOLERANCE`."""
    if a > b:
        raise ValueError(f"requires a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0
    # imported here: scipy.integrate loads optimize, linalg and sparse, which
    # only the validation suites need
    from scipy import integrate

    value, _abserr, info, *rest = integrate.quad(
        f,
        a,
        b,
        epsabs=1e-300,
        epsrel=_QUAD_RELATIVE_TOLERANCE,
        limit=_QUAD_SUBDIVISIONS,
        full_output=1,
    )
    if rest:  # scipy appends a message (and possibly more) on failure
        raise IntegrationError(f"quadrature on [{a}, {b}] failed: {rest[0]}")
    return value
