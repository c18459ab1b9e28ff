"""Weight families on the projective line over Q, one component per place.

A weight assigns a bounded potential function to every place: a real
function of a complex (or infinite) point at the archimedean place, and
an exact rational multiple of log p as a function of a Berkovich point
at each finite place.  Weights are plain data.  The archimedean
component is a pair (equilibrium measure, shift): minus the potential
of the measure plus a constant, so its bounds and its equilibrium
energy are closed forms.  A finite component is a clamped ramp
(FiniteWeight).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import ClassVar

from .berkovich import INF_POINT, BerkPoint, chordal_arch, hsia_kernel
from .exact import DomainError, LogValue, _arch_sum_err, require_prime
from .places import Place

__all__ = ["ArchWeight", "FiniteWeight", "Weight", "trivial_weight", "std_weight",
           "ex5_weight", "zero_weight", "weight_eval", "potential_kernel", "Radii", "radii",
           "equilibrium_energy", "normalize"]


@dataclass(frozen=True)
class ArchWeight:
    """Archimedean weight component: an equilibrium measure and a shift.

    measure "fubini_study": the weight is the constant shift (the
    Fubini-Study measure has constant chordal potential), with
    equilibrium energy -1/2 - 2 shift.  measure "unit_circle": the
    weight is log+|z| - (1/2) log(1 + |z|^2) + shift, with equilibrium
    measure uniform on the unit circle and energy -2 shift.  sup and inf
    bound the range and lip bounds |d g / dz| on C.
    """

    measure: str
    shift: float = 0.0

    def __post_init__(self):
        if self.measure not in ("fubini_study", "unit_circle"):
            raise DomainError("unknown equilibrium measure %r" % (self.measure,))

    def __call__(self, z) -> float:
        """Value at a complex number or INF_POINT."""
        if self.measure == "fubini_study" or z is INF_POINT:
            return self.shift
        r = abs(complex(z))
        if r > 1.0:
            r = 1.0 / r
        return self.shift - 0.5 * math.log1p(r * r)

    @property
    def sup(self) -> float:
        return self.shift

    @property
    def inf(self) -> float:
        if self.measure == "fubini_study":
            return self.shift
        return self.shift - 0.5 * math.log(2.0)

    @property
    def lip(self) -> float:
        return 0.0 if self.measure == "fubini_study" else 0.5

    @property
    def energy(self) -> float:
        """Equilibrium energy: the kernel's energy (-1/2 on the sphere,
        -log 2 on the circle) minus twice the weight's mean."""
        return (-0.5 if self.measure == "fubini_study" else 0.0) - 2.0 * self.shift


@dataclass(frozen=True)
class FiniteWeight:
    """Weight component at a finite place p, as plain data.

    The coefficient of log p at a Berkovich point whose sup-norm has
    log_p s is the ramp half + s clamped to [-half, half], plus shift
    (a constant when half = 0).  The equilibrium measure is the Dirac mass
    at the disk about 0 of radius p^(-2 half), the Gauss point if half = 0.
    """

    prime: int
    half: Fraction = Fraction(0)
    shift: Fraction = Fraction(0)

    def coeff_fn(self, s) -> Fraction:
        """Coefficient at log_p sup-norm s: a Fraction, or -inf at 0."""
        # clamp(half + s, -half, half) + shift; s = -inf gives -half, and
        # the flat top (s >= 0) needs no Fraction arithmetic
        h = self.half
        t = h if not h or s >= 0 else max(h + s, -h)
        return t + self.shift if self.shift else t

    @property
    def at_infinity(self) -> Fraction:
        return self.half + self.shift

    sup_coeff = at_infinity  # the ramp is highest at infinity

    @property
    def inf_coeff(self) -> Fraction:
        return self.shift - self.half

    @property
    def measure_point(self) -> BerkPoint:
        return BerkPoint.disk(self.prime, 0, -2 * self.half)

    def value_coeff(self, x: BerkPoint) -> Fraction:
        if x.is_infinity:
            return self.at_infinity
        return self.coeff_fn(x.log_sup_norm())


@dataclass(frozen=True)
class Weight:
    """A global weight: one archimedean component plus one per prime.

    overrides holds the components at single primes (set by hand or by
    normalize), at most one per prime.  Elsewhere, without branching
    every finite component is zero, so sums over primes truncate exactly.
    With branching the component at p is the ex5 ramp of half-width
    1/(2 m_p), m_p the least integer >= p^2 log p.
    """

    name: str
    arch: ArchWeight
    branching: bool = False
    overrides: tuple[FiniteWeight, ...] = ()

    # bench/tracer.py times finite() on primes missing from this; a
    # weight keeps no per-instance cache, so that is every call
    _finite_cache: ClassVar[tuple] = ()

    def finite(self, p: int) -> FiniteWeight:
        for comp in self.overrides:
            if comp.prime == p:
                return comp
        return _ramp(p) if self.branching else FiniteWeight(p)

    def _at(self, v: Place) -> FiniteWeight:
        # the component at finite place v, built only at a prime: at a base
        # place, whose primes are not listed one by one, the weight reads zero
        return FiniteWeight(v.prime) if v.base else self.finite(v.prime)

    def tail_sum_bound(self, prime_floor: int) -> float:
        """Certified bound on sum over primes p > prime_floor of sup |g_p|."""
        if not self.branching:
            return 0.0
        if prime_floor < 1:
            raise DomainError("prime_floor must be >= 1")
        # sup |g_p| <= (log p) / (2 m_p) <= 1 / (2 p^2), summed by integral
        return 1.0 / (2.0 * prime_floor)

    def prime_cutoff(self, bound: float) -> int:
        """Smallest P with tail_sum_bound(P) < bound."""
        if not self.branching:
            return 1
        if not bound > 0.0:  # NaN included
            raise DomainError(f"tail bound must be positive, got {bound!r}")
        cut = 1.0 / (2.0 * bound)
        if cut == math.inf:
            raise DomainError(f"tail bound {bound!r} is too small for a float cutoff")
        return max(math.floor(cut) + 1, 2)

    def sup_abs(self, v: Place) -> float:
        """Upper bound on |g_v| over the whole space of points at v."""
        if v.is_archimedean:
            return max(abs(self.arch.sup), abs(self.arch.inf))
        comp = self._at(v)
        c = max(abs(comp.sup_coeff), abs(comp.inf_coeff))
        return float(c) * math.log(v.prime)


def weight_eval(g: Weight, v: Place, x) -> LogValue:
    """Value of the weight at a point of the space at place v.

    At the archimedean place x is a complex number or INF_POINT and the
    result is a float-backed LogValue.  At a finite place x is a
    BerkPoint and the result is exact.
    """
    if v.is_archimedean:
        val = g.arch(x)
        return LogValue.real(val, _arch_sum_err(1.0 + g.sup_abs(v) + abs(val)))
    comp = g._at(v)
    if not isinstance(x, BerkPoint) or x.prime != v.prime:
        raise DomainError("point does not live at place %s" % v)
    return LogValue.exact_log(comp.value_coeff(x), v.prime)


def potential_kernel(g: Weight, v: Place, x, y) -> LogValue:
    """Weighted pairing log of distance minus the weight at each argument.

    Exact at finite places; float-backed with an error bound at the
    archimedean place.  Minus infinity exactly on the rigid diagonal.
    """
    if v.is_archimedean:
        dist = chordal_arch(x, y)
        if dist == 0.0:
            return LogValue.minus_infinity()
        val = math.log(dist) - g.arch(x) - g.arch(y)
        return LogValue.real(val, _arch_sum_err(1.0 + g.sup_abs(v) + abs(val)))
    base = hsia_kernel(v.prime, x, y)
    if base.is_minus_infinity:
        return base
    return base - weight_eval(g, v, x) - weight_eval(g, v, y)


@dataclass(frozen=True)
class Radii:
    """Outer and inner radii of the weight at one place.

    log_outer = -inf of the weight, log_inner = -sup, as natural logs.
    Exact LogValues at finite places.
    """

    place: Place
    log_outer: LogValue
    log_inner: LogValue

    @property
    def outer(self) -> float:
        return math.exp(self.log_outer.value)

    @property
    def inner(self) -> float:
        return math.exp(self.log_inner.value)


def radii(g: Weight, v: Place) -> Radii:
    if v.is_archimedean:
        # inf is g's value on the unit circle, sup the shift itself
        low = LogValue.real(g.arch.inf, _arch_sum_err(1.0 + g.sup_abs(v) + abs(g.arch.inf)))
        return Radii(place=v, log_outer=-low, log_inner=LogValue.real(-g.arch.sup))
    comp = g._at(v)
    return Radii(
        place=v,
        log_outer=LogValue.exact_log(-comp.inf_coeff, v.prime),
        log_inner=LogValue.exact_log(-comp.sup_coeff, v.prime),
    )


# ---------------------------------------------------------------------------
# weight families


def trivial_weight() -> Weight:
    """Zero at every finite place, constant -1/4 at the archimedean place.

    Normalized so the global pairing has no constant defect; the
    archimedean equilibrium measure is the Fubini-Study measure.
    """
    return Weight("trivial", ArchWeight("fubini_study", -0.25))


def std_weight() -> Weight:
    """log max(1,|z|) minus the round metric term at infinity, zero elsewhere.

    The archimedean equilibrium measure is uniform on the unit circle and
    the equilibrium energy vanishes, so heights against this weight agree
    with the classical logarithmic height of the divisor.
    """
    return Weight("std", ArchWeight("unit_circle"))


def _default_branch_count(p: int) -> int:
    # ceil(p^2 log p): below 2^26, p^2 is exact in float and the product is
    # within 2 ulp of the true value (one rounding of log, one of the
    # product), so its ceiling is right unless it lies within 8 ulp of an
    # integer; larger primes, and those near an integer, go to mpmath, at 20
    # digits beyond p^2's (40 at least), doubled while the product lies
    # within its working error of an integer
    if p < 2 ** 26:
        x = p * p * math.log(p)
        if abs(x - round(x)) > 8.0 * math.ulp(x):
            return math.ceil(x)
    import mpmath

    dps = max(40, len(str(p * p)) + 20)
    while True:
        with mpmath.workdps(dps):
            x = mpmath.mpf(p) ** 2 * mpmath.ln(p)
            if abs(x - mpmath.nint(x)) > x * mpmath.mpf(10) ** (2 - dps):
                return int(mpmath.ceil(x))
        dps *= 2


@functools.lru_cache(maxsize=None)
def _ramp(p: int) -> FiniteWeight:
    # the ex5 component at p, of half-width 1/(2 m_p)
    return FiniteWeight(p, Fraction(1, 2 * _default_branch_count(p)))


def ex5_weight() -> Weight:
    """Ramp-at-every-prime family with constant archimedean part.

    At each prime p the component is t/2 + log_p of the radius, clamped
    to [-t/2, t/2] with t = 1/m_p, where m_p is the least integer
    >= p^2 log p.  The p-component equilibrium measure is the Dirac mass
    at the disk of radius p^(-1/m_p) about 0, and the tail sum over
    primes beyond P is at most 1/(2P).
    """
    return Weight("ex5", ArchWeight("fubini_study", -0.25), True)


def zero_weight() -> Weight:
    """Identically zero at every place.  Not normalized at infinity."""
    return Weight("zero", ArchWeight("fubini_study"))


# ---------------------------------------------------------------------------
# equilibrium energies and normalization


def equilibrium_energy(g: Weight, v: Place) -> float:
    """Energy of the equilibrium measure of g at v under the weighted kernel.

    Exact (hence 0.0 exactly for the built-in families) at finite places;
    the closed form ArchWeight.energy at the archimedean place.
    """
    if v.is_archimedean:
        return g.arch.energy
    return float(equilibrium_coeff(g, v.prime)) * math.log(v.prime)


def equilibrium_coeff(g: Weight, p: int) -> Fraction:
    """Exact coefficient of log p in the equilibrium energy at p."""
    comp = g.finite(require_prime(p))
    point = comp.measure_point
    base = hsia_kernel(p, point, point)
    if base.is_minus_infinity:
        raise DomainError("equilibrium measure at p=%d sits at a rigid point" % p)
    return base.coeff - 2 * comp.value_coeff(point)


def normalize(g: Weight, v: Place) -> Weight:
    """Shift the component of g at v so its equilibrium energy vanishes.

    Adds half the current energy to the component at v; other places are
    untouched.  Exact at finite places, a closed form at the archimedean
    place.
    """
    name = g.name + "+norm"
    if v.is_archimedean:
        arch = replace(g.arch, shift=g.arch.shift + 0.5 * g.arch.energy)
        return replace(g, name=name, arch=arch)
    shift = equilibrium_coeff(g, v.prime) / 2
    comp = g.finite(v.prime)
    comp = replace(comp, shift=comp.shift + shift)
    others = tuple(c for c in g.overrides if c.prime != v.prime)
    return replace(g, name=name, overrides=others + (comp,))
