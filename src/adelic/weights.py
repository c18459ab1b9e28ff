"""Weight families on the projective line over Q, one component per place.

A weight assigns a bounded potential function to every place: a real
function of a complex (or infinite) point at the archimedean place, and
an exact rational multiple of log p as a function of a Berkovich point
at each finite place.  Each component carries its equilibrium measure
in a form concrete enough to integrate against, together with sup/inf
bounds and a tail estimate over the omitted primes.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

import mpmath
from scipy.integrate import quad

from .berkovich import INF_POINT, BerkPoint, chordal_arch, hsia_kernel
from .exact import _EPS, DomainError, LogValue
from .places import Place

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class ArchWeight:
    """Archimedean weight component.

    fn maps a complex number or INF_POINT to a float.  sup and inf bound
    the range, lip bounds |d fn / dz| on C, and measure names the
    equilibrium measure ("fubini_study", "unit_circle", or "dirac").
    """

    fn: Callable[[object], float]
    sup: float
    inf: float
    lip: float
    measure: str

    def __call__(self, z) -> float:
        return self.fn(z)

    def shifted(self, delta: float) -> "ArchWeight":
        base = self.fn
        return ArchWeight(
            fn=lambda z: base(z) + delta,
            sup=self.sup + delta,
            inf=self.inf + delta,
            lip=self.lip,
            measure=self.measure,
        )


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


class Weight:
    """A global weight: one archimedean component plus one per prime.

    Finite components are built lazily through make_finite and cached.
    finitely_supported means every finite component is identically zero,
    so sums over primes truncate exactly.
    """

    def __init__(
        self,
        name: str,
        arch: ArchWeight,
        make_finite: Callable[[int], FiniteWeight],
        finitely_supported: bool,
    ):
        self.name = name
        self.arch = arch
        self._make_finite = make_finite
        self.finitely_supported = finitely_supported
        self._finite_cache: dict[int, FiniteWeight] = {}

    def finite(self, p: int) -> FiniteWeight:
        comp = self._finite_cache.get(p)
        if comp is None:
            comp = self._make_finite(p)
            self._finite_cache[p] = comp
        return comp

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

    def with_components(
        self,
        name: str,
        arch: Optional[ArchWeight] = None,
        finite_override: Optional[FiniteWeight] = None,
    ) -> "Weight":
        new = Weight(
            name=name,
            arch=arch if arch is not None else self.arch,
            make_finite=self._make_finite,
            finitely_supported=self.finitely_supported,
        )
        new._finite_cache.update(self._finite_cache)
        if finite_override is not None:
            new._finite_cache[finite_override.prime] = finite_override
        return new

    def __repr__(self):
        return f"Weight({self.name!r})"


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


def _const_arch(c: float, measure: str) -> ArchWeight:
    return ArchWeight(fn=lambda z: c, sup=c, inf=c, lip=0.0, measure=measure)


def trivial_weight() -> Weight:
    """Zero at every finite place, constant -1/4 at the archimedean place.

    Normalized so the global pairing has no constant defect; the
    archimedean equilibrium measure is the Fubini-Study measure.
    """
    return Weight(
        name="trivial",
        arch=_const_arch(-0.25, "fubini_study"),
        make_finite=FiniteWeight,
        finitely_supported=True,
    )


def _std_arch_value(z) -> float:
    if z is INF_POINT:
        return 0.0
    r = abs(complex(z))
    if r == 0.0:
        return 0.0
    if r <= 1.0:
        return -0.5 * math.log1p(r * r)
    inv = 1.0 / r
    return -0.5 * math.log1p(inv * inv)


def std_weight() -> Weight:
    """log max(1,|z|) minus the round metric term at infinity, zero elsewhere.

    The archimedean equilibrium measure is uniform on the unit circle and
    the equilibrium energy vanishes, so heights against this weight agree
    with the classical logarithmic height of the divisor.
    """
    arch = ArchWeight(
        fn=_std_arch_value,
        sup=0.0,
        inf=-0.5 * math.log(2.0),
        lip=0.5,
        measure="unit_circle",
    )
    return Weight(
        name="std",
        arch=arch,
        make_finite=FiniteWeight,
        finitely_supported=True,
    )


@functools.lru_cache(maxsize=None)
def _default_branch_count(p: int) -> int:
    with mpmath.workdps(40):
        return int(mpmath.ceil(mpmath.mpf(p) ** 2 * mpmath.ln(p)))


def ex5_weight(branch_count: Optional[Callable[[int], int]] = None) -> Weight:
    """Ramp-at-every-prime family with constant archimedean part.

    At each prime p the component is t/2 + log_p of the radius, clamped
    to [-t/2, t/2] with t = 1/m_p, where m_p is at least p^2 log p
    (default: the least such integer).  The p-component equilibrium
    measure is the Dirac mass at the disk of radius p^(-1/m_p) about 0,
    and the tail sum over primes beyond P is at most 1/(2P).
    """

    def make(p: int) -> FiniteWeight:
        if branch_count is None:
            m = _default_branch_count(p)
        else:
            m = int(branch_count(p))
            with mpmath.workdps(40):
                if mpmath.mpf(m) < mpmath.mpf(p) ** 2 * mpmath.ln(p):
                    raise DomainError(
                        "branch count %d at p=%d is below p^2 log p" % (m, p)
                    )
        return FiniteWeight(p, Fraction(1, 2 * m))

    return Weight(
        name="ex5",
        arch=_const_arch(-0.25, "fubini_study"),
        make_finite=make,
        finitely_supported=False,
    )


def zero_weight() -> Weight:
    """Identically zero at every place.  Not normalized at infinity."""
    return Weight(
        name="zero",
        arch=_const_arch(0.0, "fubini_study"),
        make_finite=FiniteWeight,
        finitely_supported=True,
    )


# ---------------------------------------------------------------------------
# equilibrium energies and normalization


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

    Returns (value, error estimate).  The exact value is -1/2.
    """

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


def equilibrium_energy(g: Weight, v: Place, quad_tol: float = 1e-7) -> float:
    """Energy of the equilibrium measure of g at v under the weighted kernel.

    Exact (hence 0.0 exactly for the built-in families) at finite places;
    closed forms plus quadrature of the weight at the archimedean place.
    """
    val, _ = equilibrium_energy_with_error(g, v, quad_tol)
    return val


def equilibrium_energy_with_error(
    g: Weight, v: Place, quad_tol: float = 1e-7
) -> tuple[float, float]:
    if not v.is_archimedean:
        return float(equilibrium_coeff(g, v.prime)) * math.log(v.prime), 0.0
    measure = g.arch.measure
    if measure == "unit_circle":
        kernel, kerr = -math.log(2.0), 0.0
        avg, aerr = circle_average(g.arch, quad_tol)
    elif measure == "fubini_study":
        kernel, kerr = fs_kernel_energy(min(quad_tol, 1e-9))
        avg, aerr = fs_average(g.arch, quad_tol)
    else:
        raise DomainError("no integration rule for measure %r" % measure)
    return kernel - 2.0 * avg, kerr + 2.0 * aerr


def circle_energy_quadrature(g: Weight, quad_tol: float = 1e-9) -> tuple[float, float]:
    """Archimedean energy with the kernel term itself done by quadrature.

    Cross-check companion to equilibrium_energy for circle-measure weights.
    """
    if g.arch.measure != "unit_circle":
        raise DomainError("quadrature cross-check requires the circle measure")
    kernel, kerr = circle_kernel_energy_quadrature(quad_tol)
    avg, aerr = circle_average(g.arch, quad_tol)
    return kernel - 2.0 * avg, kerr + 2.0 * aerr


def equilibrium_coeff(g: Weight, p: int) -> Fraction:
    """Exact coefficient of log p in the equilibrium energy at p."""
    comp = g.finite(p)
    point = comp.measure_point
    base = hsia_kernel(p, point, point)
    if base.is_minus_infinity:
        raise DomainError("equilibrium measure at p=%d sits at a rigid point" % p)
    return base.coeff - 2 * comp.value_coeff(point)


def normalize(g: Weight, v: Place, quad_tol: float = 1e-7) -> Weight:
    """Shift the component of g at v so its equilibrium energy vanishes.

    Adds half the current energy to the component at v; other places are
    untouched.  Exact at finite places, quadrature-accurate at the
    archimedean place.
    """
    name = g.name + "+norm"
    if v.is_archimedean:
        energy = equilibrium_energy(g, v, quad_tol)
        return g.with_components(name, arch=g.arch.shifted(0.5 * energy))
    coeff = equilibrium_coeff(g, v.prime)
    comp = g.finite(v.prime)
    comp = replace(comp, shift=comp.shift + coeff / 2)
    return g.with_components(name, finite_override=comp)
