"""Special functions, unit conversions and adaptive quadrature.

Everything here is a pure function: the special functions and conversions
take plain floats, and the quadrature evaluates its integrand on float
arrays. The rest of the package builds on these primitives.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

# Euler-Mascheroni constant, 20 significant digits.
EULER_MASCHERONI = 0.57721566490153286061
# the one accuracy target of `integrate_adaptive`
_QUAD_RELATIVE_TOLERANCE = 1e-10
_QUAD_SUBDIVISIONS = 200

# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (Piessens et al.,
# QUADPACK, Springer 1983), the rule `scipy.integrate.quad` runs on a finite
# interval: the 21 Kronrod nodes and weights, and the 10-point Gauss weights,
# which sit on every other node and are zero on the rest
_GK21_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
    -0.148874338981631210884826001129720, -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784, -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874, -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493, -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452, -0.995657163025808080735527280689003,
])
_GK21_KRONROD = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
    0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
    0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
    0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
    0.032558162307964727478818972459390, 0.011694638867371874278064396062192,
])
_GK21_GAUSS = np.zeros(21)
_GK21_GAUSS[1::2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
    0.295524224714752870173892994651338, 0.269266719309996355091226921569469,
    0.219086362515982043995534934228163, 0.149451349150580593145776339657697,
    0.066671344308688137593568809893332,
]


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
    if not -math.inf < p_dbm <= 3112.5:  # NaN too; 3112.5 dBm is 1.78e308 W
        raise ValueError(f"dBm value must be finite and at most 3112.5, got {p_dbm}")
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def _gk21(f, lo, hi):
    """Integral and error estimate of ``f`` on each ``[lo[i], hi[i]]``.

    ``f`` is called once, on the (intervals x 21) array of nodes. The error
    is QUADPACK's: ``resasc * min(1, (200 |K - G| / resasc)^1.5)``, where
    resasc integrates ``|f - mean|``, floored at ``50 eps`` times the integral
    of ``|f|``.
    """
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = centre[:, None] + half[:, None] * _GK21_NODES
    fx = np.broadcast_to(f(x), x.shape)
    kronrod = (fx * _GK21_KRONROD).sum(axis=1)
    gauss = (fx * _GK21_GAUSS).sum(axis=1)
    resabs = (np.abs(fx) * _GK21_KRONROD).sum(axis=1) * half
    resasc = (np.abs(fx - 0.5 * kronrod[:, None]) * _GK21_KRONROD).sum(axis=1) * half
    err = np.abs(kronrod - gauss) * half
    scale = (resasc != 0.0) & (err != 0.0)
    err[scale] = resasc[scale] * np.minimum(1.0, (200.0 * err[scale] / resasc[scale]) ** 1.5)
    return kronrod * half, np.maximum(err, 50.0 * np.finfo(float).eps * resabs)


def integrate_adaptive(f, a: float, b: float) -> float:
    """Definite integral of f on [a, b] to a relative `_QUAD_RELATIVE_TOLERANCE`.

    A globally adaptive 21-point Gauss-Kronrod rule: each round bisects the
    subintervals of largest error, fewest first, until the others' errors
    sum below the target, and evaluates ``f`` once on all their nodes. ``f``
    takes a float array and returns values that broadcast to its shape. It
    stops when the errors sum to at most ``max(1e-300, tol * |integral|)``,
    and raises `IntegrationError` if `_QUAD_SUBDIVISIONS` subintervals do
    not reach that.
    """
    if a > b:
        raise ValueError(f"requires a <= b, got a={a}, b={b}")
    if a == b:
        return 0.0
    lo, hi = np.array([float(a)]), np.array([float(b)])
    value, err = _gk21(f, lo, hi)
    while True:
        total, total_err = value.sum(), err.sum()
        target = max(1e-300, _QUAD_RELATIVE_TOLERANCE * abs(total))
        if total_err <= target:
            return float(total)
        room = _QUAD_SUBDIVISIONS - len(lo)
        if room == 0:
            raise IntegrationError(
                f"quadrature on [{a}, {b}] reached {_QUAD_SUBDIVISIONS} subintervals "
                f"with error {total_err:.3g} > {target:.3g}"
            )
        order = np.argsort(-err, kind="stable")
        left = total_err - np.cumsum(err[order])
        split = order[:min(np.count_nonzero(left > target) + 1, room)]
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_value, new_err = _gk21(f, new_lo, new_hi)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])
