"""Points of the Berkovich projective line at finite places, the Hsia kernel
in its canonical normalization, and the archimedean chordal metric.

Finite-place points are either classical (type I: a rational number or the
point at infinity) or closed disks D(a, r) with rational center and radius an
exact rational power of the residue prime.  The Gauss point is D(0, 1).
Kernel values at finite places are exact rational multiples of log p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import DomainError, LogValue, _rational, require_prime, val_p

__all__ = [
    "INF_POINT",
    "BerkPoint",
    "gauss_point",
    "chordal_arch",
    "hsia_kernel",
]


class _PointAtInfinity:
    """Singleton marker for the point at infinity on P^1."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF_POINT"


#: The point at infinity, shared by the archimedean and finite-place pictures.
INF_POINT = _PointAtInfinity()


@dataclass(frozen=True, eq=False)
class BerkPoint:
    """A point of the Berkovich projective line over Q_p.

    rad_exp is None for type I points (radius zero); otherwise the radius is
    p ** rad_exp, kept as an exact rational exponent.  center is None only
    for the type I point at infinity.
    """

    prime: int
    center: Fraction | None
    rad_exp: Fraction | None

    # -- constructors ----------------------------------------------------
    @staticmethod
    def type_i(p: int, value) -> "BerkPoint":
        p = require_prime(p)
        if value is INF_POINT:
            return BerkPoint(p, None, None)
        return BerkPoint(p, _rational(value), None)

    @staticmethod
    def disk(p: int, center, rad_exp) -> "BerkPoint":
        return BerkPoint(require_prime(p), _rational(center), _rational(rad_exp))

    # -- structure -------------------------------------------------------
    @property
    def is_infinity(self) -> bool:
        return self.center is None

    @property
    def is_type_i(self) -> bool:
        return self.rad_exp is None

    def log_abs_center(self) -> Fraction | float:
        """log_p |center|_p; -inf for center 0."""
        if self.center == 0:
            return -math.inf
        return Fraction(-val_p(self.center, self.prime))

    def log_sup_norm(self) -> Fraction | float:
        """log_p of sup |z| over the disk: max(|center|, radius)."""
        la = self.log_abs_center()
        if self.is_type_i:
            return la
        return max(la, self.rad_exp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BerkPoint):
            return NotImplemented
        if self.prime != other.prime:
            return False
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        if self.is_type_i != other.is_type_i:
            return False
        if self.is_type_i:
            return self.center == other.center
        if self.rad_exp != other.rad_exp:
            return False
        # disks with the same radius coincide iff the centers are within it
        diff = self.center - other.center
        if diff == 0:
            return True
        return Fraction(-val_p(diff, self.prime)) <= self.rad_exp

    def __hash__(self):
        return hash((self.prime, self.rad_exp, self.is_infinity))

    def __repr__(self):
        if self.is_infinity:
            return f"BerkPoint({self.prime}, inf)"
        if self.is_type_i:
            return f"BerkPoint({self.prime}, {self.center})"
        return f"BerkPoint({self.prime}, D({self.center}, {self.prime}^{self.rad_exp}))"


def gauss_point(p: int) -> BerkPoint:
    return BerkPoint.disk(p, 0, 0)


def chordal_arch(z, w) -> float:
    """Chordal distance on P^1(C): |z - w| / (sqrt(1+|z|^2) sqrt(1+|w|^2)),
    extended to the point at infinity.  Always in [0, 1]."""
    zi = z is INF_POINT
    wi = w is INF_POINT
    if zi and wi:
        return 0.0
    if zi or wi:
        u = complex(w if zi else z)
        return 1.0 / math.sqrt(1.0 + abs(u) ** 2)
    z = complex(z)
    w = complex(w)
    return abs(z - w) / (math.sqrt(1.0 + abs(z) ** 2) * math.sqrt(1.0 + abs(w) ** 2))


def _log_diff_norm(x: BerkPoint, y: BerkPoint) -> Fraction | float:
    """log_p max(|a - b|, r, s) for points D(a, r), D(b, s); -inf only when
    both are equal type I points."""
    diff = x.center - y.center
    vals = []
    if diff != 0:
        vals.append(Fraction(-val_p(diff, x.prime)))
    if not x.is_type_i:
        vals.append(x.rad_exp)
    if not y.is_type_i:
        vals.append(y.rad_exp)
    if not vals:
        return -math.inf
    return max(vals)


def hsia_kernel(p: int, x: BerkPoint, y: BerkPoint) -> LogValue:
    """log of the Hsia kernel normalized against the Gauss point.

    For disks D(a, r), D(b, s) this is
        log max(|a-b|, r, s) - log max(1, |a|, r) - log max(1, |b|, s),
    an exact rational multiple of log p; type I points are the r = 0 case and
    the point at infinity enters as the obvious limit.  Equal type I points
    give the minus-infinity marker.  The kernel of anything against the Gauss
    point is exactly 0, and restricted to type I points this is the log of
    the nonarchimedean chordal metric.
    """
    p = require_prime(p)
    if x.prime != p or y.prime != p:
        raise DomainError("points do not live over the requested prime")
    if x.is_infinity and y.is_infinity:
        return LogValue.minus_infinity()
    if x.is_infinity or y.is_infinity:
        fin = y if x.is_infinity else x
        # log [x, inf] = -log max(1, |a|, r)
        coeff = -max(Fraction(0), fin.log_sup_norm())
        return LogValue.exact_log(coeff, p)
    top = _log_diff_norm(x, y)
    if top == -math.inf:
        return LogValue.minus_infinity()
    cx = max(Fraction(0), x.log_sup_norm())
    cy = max(Fraction(0), y.log_sup_norm())
    return LogValue.exact_log(Fraction(top) - cx - cy, p)
