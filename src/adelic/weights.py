"""Weight families on the projective line over Q, one component per place.

A weight assigns a bounded potential function to every place: a real
function of a complex (or infinite) point at the archimedean place, and
an exact rational multiple of log p as a function of a Berkovich point
at each finite place.  Weights are plain data.  The archimedean
component is a pair (equilibrium measure, shift): minus the potential
of the measure plus a constant, so its bounds and its equilibrium
energy are closed forms.  A finite component is a clamped ramp
(FiniteWeight).  The quadrature functions at the end integrate the
energies independently, as a cross-check of the closed forms; they
import scipy on first use.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, ClassVar, Optional

import mpmath

from .berkovich import INF_POINT, BerkPoint, chordal_arch, hsia_kernel
from .exact import _EPS, DomainError, LogValue
from .places import Place

TWO_PI = 2.0 * math.pi


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

    With branch_count None every finite component is zero, so sums over
    primes truncate exactly (finitely_supported).  Otherwise the
    component at p is the ramp of half-width 1/(2 m_p), m_p =
    branch_count(p), which must be at least p^2 log p.  overrides holds
    components shifted by normalize, at most one per prime.
    """

    name: str
    arch: ArchWeight
    branch_count: Optional[Callable[[int], int]] = None
    overrides: tuple[FiniteWeight, ...] = ()

    # bench/tracer.py times finite() on primes missing from this; a
    # weight keeps no per-instance cache, so that is every call
    _finite_cache: ClassVar[tuple] = ()

    @property
    def finitely_supported(self) -> bool:
        return self.branch_count is None

    def finite(self, p: int) -> FiniteWeight:
        for comp in self.overrides:
            if comp.prime == p:
                return comp
        if self.branch_count is None:
            return FiniteWeight(p)
        return _ramp(self.branch_count, p)

    def tail_sum_bound(self, prime_floor: int) -> float:
        """Certified bound on sum over primes p > prime_floor of sup |g_p|."""
        if self.finitely_supported:
            return 0.0
        if prime_floor < 1:
            raise DomainError("prime_floor must be >= 1")
        # sup |g_p| <= (log p) / (2 m_p) <= 1 / (2 p^2), summed by integral
        return 1.0 / (2.0 * prime_floor)

    def prime_cutoff(self, bound: float) -> int:
        """Smallest P with tail_sum_bound(P) < bound."""
        if self.finitely_supported:
            return 1
        if bound <= 0.0:
            raise DomainError("tail bound must be positive")
        cut = math.floor(1.0 / (2.0 * bound)) + 1
        return max(cut, 2)

    def sup_abs(self, v: Place) -> float:
        """Upper bound on |g_v| over the whole space of points at v."""
        if v.is_archimedean:
            return max(abs(self.arch.sup), abs(self.arch.inf))
        comp = self.finite(v.prime)
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
        return LogValue.real(val, 4.0 * _EPS * (1.0 + abs(val)))
    comp = g.finite(v.prime)
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
        return LogValue.real(val, 4.0 * _EPS * (1.0 + abs(val)))
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
        return Radii(
            place=v,
            log_outer=LogValue.real(-g.arch.inf, 4.0 * _EPS * (1.0 + abs(g.arch.inf))),
            log_inner=LogValue.real(-g.arch.sup, 4.0 * _EPS * (1.0 + abs(g.arch.sup))),
        )
    comp = g.finite(v.prime)
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
    with mpmath.workdps(40):
        return int(mpmath.ceil(mpmath.mpf(p) ** 2 * mpmath.ln(p)))


@functools.lru_cache(maxsize=None)
def _ramp(branch_count: Callable[[int], int], p: int) -> FiniteWeight:
    # the ex5 component at p; a user-supplied count is checked against
    # its floor p^2 log p, the default meets it by construction
    m = int(branch_count(p))
    if branch_count is not _default_branch_count:
        with mpmath.workdps(40):
            if mpmath.mpf(m) < mpmath.mpf(p) ** 2 * mpmath.ln(p):
                raise DomainError("branch count %d at p=%d is below p^2 log p" % (m, p))
    return FiniteWeight(p, Fraction(1, 2 * m))


def ex5_weight(branch_count: Optional[Callable[[int], int]] = None) -> Weight:
    """Ramp-at-every-prime family with constant archimedean part.

    At each prime p the component is t/2 + log_p of the radius, clamped
    to [-t/2, t/2] with t = 1/m_p, where m_p is at least p^2 log p
    (default: the least such integer).  The p-component equilibrium
    measure is the Dirac mass at the disk of radius p^(-1/m_p) about 0,
    and the tail sum over primes beyond P is at most 1/(2P).
    """
    if branch_count is None:
        branch_count = _default_branch_count
    return Weight("ex5", ArchWeight("fubini_study", -0.25), branch_count)


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
    comp = g.finite(p)
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
    comp = g.finite(v.prime)
    comp = replace(comp, shift=comp.shift + equilibrium_coeff(g, v.prime) / 2)
    others = tuple(c for c in g.overrides if c.prime != v.prime)
    return replace(g, name=name, overrides=others + (comp,))


# ---------------------------------------------------------------------------
# quadrature: an independent cross-check of the closed forms above.  Each
# returns (value, error), the error being quad's estimate plus tol/2, not
# a certified bound.


def _fs_angular_mean(t: float, u: float) -> float:
    # mean over angles of the log chordal distance between circles of
    # squared-radius parameters t and u; t = r^2/(1+r^2)
    m = max(t, u)
    if m <= 0.0:
        return -math.inf
    return 0.5 * (math.log(m) - math.log1p(-m)) + 0.5 * math.log1p(-t) + 0.5 * math.log1p(-u)


@functools.lru_cache(maxsize=None)
def fs_kernel_energy(tol: float = 1e-9) -> tuple[float, float]:
    """Double integral of the log chordal kernel against Fubini-Study squared.

    The exact value is -1/2.
    """
    from scipy.integrate import quad

    def inner(t: float) -> float:
        val, _ = quad(
            lambda u: _fs_angular_mean(t, u),
            0.0,
            1.0,
            points=[t],
            limit=200,
            epsabs=tol / 4.0,
            epsrel=1e-12,
        )
        return val

    val, err = quad(inner, 0.0, 1.0, limit=200, epsabs=tol / 4.0, epsrel=1e-12)
    return val, err + tol / 2.0


def fs_average(fn: Callable[[object], float], tol: float = 1e-9) -> tuple[float, float]:
    """Mean of fn against the Fubini-Study measure, by nested quadrature."""
    from scipy.integrate import quad

    def radial(t: float) -> float:
        r = math.sqrt(t / (1.0 - t))
        val, _ = quad(
            lambda th: fn(r * cmath.exp(1j * th)),
            0.0,
            TWO_PI,
            limit=200,
            epsabs=tol * math.pi,
            epsrel=1e-12,
        )
        return val / TWO_PI

    val, err = quad(radial, 0.0, 1.0, limit=200, epsabs=tol / 2.0, epsrel=1e-12)
    return val, err + tol / 2.0


def circle_average(fn: Callable[[object], float], tol: float = 1e-9) -> tuple[float, float]:
    """Mean of fn over the unit circle."""
    from scipy.integrate import quad

    val, err = quad(
        lambda th: fn(cmath.exp(1j * th)),
        0.0,
        TWO_PI,
        limit=200,
        epsabs=tol * math.pi,
        epsrel=1e-12,
    )
    return val / TWO_PI, err / TWO_PI + tol / 2.0


@functools.lru_cache(maxsize=None)
def circle_kernel_energy_quadrature(tol: float = 1e-9) -> tuple[float, float]:
    """Quadrature of the log chordal kernel on the circle; exactly -log 2."""
    from scipy.integrate import quad

    # mean over the circle pair reduces to one angular integral of
    # log(2 sin(th/2)) minus the metric correction log 2
    val, err = quad(
        lambda th: math.log(2.0 * math.sin(0.5 * th)),
        0.0,
        math.pi,
        limit=200,
        epsabs=tol / 2.0,
        epsrel=1e-12,
    )
    return val / math.pi - math.log(2.0), err / math.pi + tol / 2.0


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
