"""Energy quadrature: an independent cross-check of the closed forms in
adelic.weights, on fixed nodes.  numpy's Gauss-Legendre nodes in the
radial variable, the periodic trapezoid rule in angle.  Each function
returns (value, error), the error being the gap between two rule sizes
plus tol/2: an estimate, not a certified bound.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from adelic.weights import Weight

TWO_PI = 2.0 * math.pi


def _nodes(n: int):
    """n-point Gauss-Legendre rule for [0, 1] after the substitution
    t = s^3 (10 - 15 s + 6 s^2), as arrays (t, 1 - t, weights).

    The substitution's derivative 30 s^2 (1 - s)^2 damps log
    singularities at both ends.  1 - t is the same polynomial in 1 - s,
    not a subtraction, so it keeps its relative precision near t = 1.
    """
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    s, sc = 0.5 * (1.0 + x), 0.5 * (1.0 - x)
    t, tc = (a ** 3 * (10.0 - 15.0 * a + 6.0 * a * a) for a in (s, sc))
    return t, tc, 15.0 * w * (s * sc) ** 2


def _refine(rule: Callable[[int], float], tol: float) -> tuple[float, float]:
    # double the rule size from 20 until two sizes agree within tol/2, or
    # up to 320; the error is their gap plus tol/2
    n, val = 20, rule(20)
    while True:
        n *= 2
        prev, val = val, rule(n)
        gap = abs(val - prev)
        if gap <= tol / 2.0 or n >= 320:
            return val, gap + tol / 2.0


def _circle_mean(fn: Callable[[object], float], radius: float, n: int) -> float:
    # periodic trapezoid rule: mean of fn at n equally spaced points on |z| = radius
    return math.fsum(fn(radius * cmath.exp(1j * TWO_PI * k / n)) for k in range(n)) / n


def _fs_angular_mean(hi, lo_c):
    # mean over angles of the log chordal distance between circles of
    # squared-radius parameters t and u (t = r^2/(1+r^2)), given
    # hi = max(t, u) and lo_c = 1 - min(t, u)
    return 0.5 * (np.log(hi) + np.log(lo_c))


def fs_kernel_energy(tol: float = 1e-9) -> tuple[float, float]:
    """Double integral of the log chordal kernel against Fubini-Study squared.

    The exact value is -1/2.  In t = r^2/(1+r^2) the measure is uniform
    on [0, 1]; the inner integral splits at its kink u = t.  The error is
    an estimate, not a bound.
    """

    def rule(n: int) -> float:
        t, tc, w = _nodes(n)
        T, TC = t[:, None], tc[:, None]
        # u = t x on [0, t], so 1 - u = (1 - t) + t (1 - x)
        low = T * _fs_angular_mean(T, TC + T * tc)
        # u = t + (1 - t) x on [t, 1], so 1 - u = (1 - t)(1 - x)
        high = TC * _fs_angular_mean(T + TC * t, TC)
        return float(w @ (low + high) @ w)

    return _refine(rule, tol)


def fs_average(fn: Callable[[object], float], tol: float = 1e-9) -> tuple[float, float]:
    """Mean of fn against the Fubini-Study measure.

    Gauss-Legendre in t = r^2/(1+r^2) on each side of the unit circle
    t = 1/2, where the std weight has its kink, and the periodic
    trapezoid rule in angle.  The error is an estimate, not a bound.
    """

    def rule(n: int) -> float:
        t, tc, w = _nodes(n)
        # r^2 = t/(1 - t) at t/2 on [0, 1/2] and at (1 + t)/2 on [1/2, 1]
        radii = np.sqrt(np.concatenate([t / (1.0 + tc), (1.0 + t) / tc]))
        return 0.5 * math.fsum(wi * _circle_mean(fn, r, n)
                               for r, wi in zip(radii.tolist(), 2 * w.tolist()))

    return _refine(rule, tol)


def circle_average(fn: Callable[[object], float], tol: float = 1e-9) -> tuple[float, float]:
    """Mean of fn over the unit circle, by the periodic trapezoid rule.

    The error is an estimate, not a bound.
    """
    return _refine(lambda n: _circle_mean(fn, 1.0, n), tol)


def circle_kernel_energy_quadrature(tol: float = 1e-9) -> tuple[float, float]:
    """Quadrature of the log chordal kernel on the circle; exactly -log 2.

    The error is an estimate, not a bound.
    """

    # mean over the circle pair reduces to the mean of log(2 sin(th/2))
    # over th = pi t in [0, pi], minus the metric correction log 2
    def rule(n: int) -> float:
        t, _, w = _nodes(n)
        return float(w @ np.log(2.0 * np.sin(0.5 * math.pi * t)))

    val, err = _refine(rule, tol)
    return val - math.log(2.0), err


def equilibrium_energy_quadrature(g: Weight, tol: float = 1e-9) -> tuple[float, float]:
    """Archimedean equilibrium energy with every term done by quadrature:
    the kernel's energy against the equilibrium measure, minus twice the
    weight's mean.  Cross-check of equilibrium_energy at ARCH."""
    if g.arch.measure == "unit_circle":
        kernel, kerr = circle_kernel_energy_quadrature(tol)
        avg, aerr = circle_average(g.arch, tol)
    else:
        kernel, kerr = fs_kernel_energy(tol)
        avg, aerr = fs_average(g.arch, tol)
    return kernel - 2.0 * avg, kerr + 2.0 * aerr
