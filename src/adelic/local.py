"""Local Mahler measures and pairwise energy sums of effective divisors.

At a finite place everything reduces to exact rational data: leading
coefficient valuations, Newton polygon slopes, and the valuation of the
pairwise difference product.  At the archimedean place the support is
located by certified root isolation and all float results carry
propagated error bounds.

The archimedean pairing is summed in numpy over blocks of at most _BLOCK
chordal distances, whole rows at a time: each row's distances to the later
support points, computed as chordal_arch does, are checked for separation,
charged their root radii, and multiplied per multiplicity as np.frexp
mantissas with an exact exponent sum, so one math.log per row and
multiplicity gives the row's logs; the weight terms are O(n) sums.
_arch_sum_err derives the error bound of that route.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .berkovich import INF_POINT
from .divisors import EffectiveDivisor
from .exact import DomainError, LogValue, _arch_sum_err, _val, newton_polygon
from .places import ARCH, Place
from .roots import _abs, arch_support
from .weights import Weight, zero_weight

__all__ = ["PlaceRow", "mahler_g", "mahler_sharp", "fekete_sum", "fekete_sum_arch_identity",
           "integral_against"]

#: Chordal distances per row block of the archimedean pair sum: rows are
#: taken together up to this many entries, so no temporary grows as n^2.
_BLOCK = 4096
_LOG2 = math.log(2.0)


def _lin(a: int, x, b: int, y, c: int = 0) -> Fraction:
    # a x + b y + c for integers a, b, c and rationals x, y, as one Fraction
    xd, yd = x.denominator, y.denominator
    return Fraction(a * x.numerator * yd + b * y.numerator * xd + c * xd * yd, xd * yd)


@dataclass(frozen=True)
class PlaceRow:
    """Per-place line of a global report.

    All four entries are LogValues: exact at finite places (at a base
    place b, a rational times log b, the sum of the rows of b's primes),
    error bounded floats at the archimedean place.
    """

    place: Place
    mahler_round: LogValue
    mahler_weighted: LogValue
    fekete: LogValue
    log_dstar: LogValue

    def to_json(self) -> dict:
        return {
            "place": str(self.place),
            "mahler_round": self.mahler_round.to_json(),
            "mahler_weighted": self.mahler_weighted.to_json(),
            "fekete": self.fekete.to_json(),
            "log_dstar": self.log_dstar.to_json(),
            "exact": self.fekete.is_exact,
        }


@dataclass
class LocalData:
    """A divisor's support at one place, found once, and every local
    quantity against one weight.

    round and weight sum the round-metric term (the log of the projective
    norm, zero at infinity) and the weight over the support, each point
    counted with its multiplicity m; diag_round and diag_weight put m^2 in
    place of m; log_dstar is log|d*|_v; mahler_weighted is round + weight
    and fekete the off-diagonal pairing.  Each is an exact LogValue at a
    finite place and a bounded float at ARCH, read from sums computed on
    first use: at ARCH the four moments are fsums over the support, which
    carries each point's weight.
    """

    Z: EffectiveDivisor
    g: Weight
    v: Place

    @property
    def unit_prime(self) -> bool:
        """Whether v is a finite place (a prime or a base place) not
        dividing Z.end_coeffs: every support point a unit or 0."""
        return not self.v.is_archimedean and self.Z.end_coeffs % self.v.prime != 0

    @cached_property
    def points(self) -> list:
        """The support, found once.  At the archimedean place (root, radius,
        multiplicity, weight) per certified root, then (INF_POINT, 0.0,
        inf_mult, weight) if inf_mult > 0; at p, (multiplicity, Newton
        polygon valuations) per factor."""
        if self.v.is_archimedean:
            pts, g = arch_support(self.Z), self.g.arch
            if self.Z.inf_mult:
                pts.append((INF_POINT, 0.0, self.Z.inf_mult))
            return [(w, rad, m, g(w)) for w, rad, m in pts]
        return [(m, newton_polygon(f, self.v.prime)) for f, m in self.Z.squarefree_factors]

    @cached_property
    def _rounds(self) -> tuple[int, int]:
        # (round, diag_round) over log p: 0 at a unit prime, else v_p(lc) per primitive factor
        if self.unit_prime:
            return 0, 0
        es = [(m, _val(f.lc, self.v.prime)) for f, m in self.Z.squarefree_factors]
        return sum(m * e for m, e in es), sum(m * m * e for m, e in es)

    @cached_property
    def _weights(self) -> tuple[Fraction, Fraction]:
        # (weight, diag_weight) over log p: at a unit prime the ramp is half +
        # shift at the units and infinity, shift - half at the zero roots, and
        # a flat one (half 0, as at a base place) is shift everywhere: one
        # Fraction from the root counts; else each factor's Newton polygon
        Z, comp, I = self.Z, self.g._at(self.v), self.Z.inf_mult
        if self.unit_prime or not comp.half:
            (u1, z1), (u2, z2) = Z.root_counts
            return (_lin(u1 + I - z1, comp.half, u1 + I + z1, comp.shift),
                    _lin(u2 + I * I - z2, comp.half, u2 + I * I + z2, comp.shift))
        cs = [(m, sum(comp.coeff_fn(-val) for val in vals)) for m, vals in self.points]
        return (sum(m * c for m, c in cs) + I * comp.at_infinity,
                sum(m * m * c for m, c in cs) + I * I * comp.at_infinity)

    @cached_property
    def _dstar(self) -> int:
        # log|d*|_p over log p
        return -_val(self.Z.d_star, self.v.prime)

    def row(self) -> tuple[PlaceRow, tuple[LogValue, LogValue]]:
        """The report row at v and the identity's diagonal terms
        (diag_weight, diag_round), each a read of this place's data."""
        row = PlaceRow(self.v, self.round, self.mahler_weighted, self.fekete, self.log_dstar)
        return row, (self.diag_weight, self.diag_round)

    @cached_property
    def _arch(self) -> tuple[tuple[float, float], ...]:
        # (value, error) of round, weight, diag_round, diag_weight at ARCH:
        # the round terms r (0 at infinity) and weights t times m and m^2;
        # radius times the slope, 1/2 for r and lip for t, bounds root error
        ws, rads, mults, ts = zip(*self.points)
        rounds = [0.0 if w is INF_POINT else 0.5 * math.log1p(abs(w) ** 2) for w in ws]
        lip, one_g, out = self.g.arch.lip, 1.0 + self.g.sup_abs(ARCH), []
        for ms in (mults, [m * m for m in mults]):
            mass, mrad = sum(ms), math.fsum(map(operator.mul, ms, rads))
            for xs, slope in ((rounds, 0.5), (ts, lip)):
                terms = list(map(operator.mul, ms, xs))
                size = math.fsum(map(abs, terms)) + one_g * mass
                out.append((math.fsum(terms), _arch_sum_err(size, slope * mrad, len(ws))))
        return tuple(out)

    def _log(self, coeff) -> LogValue:
        return LogValue.exact_log(coeff, self.v.prime)

    round = property(
        lambda s: LogValue.real(*s._arch[0]) if s.v.is_archimedean else s._log(s._rounds[0]))
    weight = property(
        lambda s: LogValue.real(*s._arch[1]) if s.v.is_archimedean else s._log(s._weights[0]))
    diag_round = property(
        lambda s: LogValue.real(*s._arch[2]) if s.v.is_archimedean else s._log(s._rounds[1]))
    diag_weight = property(
        lambda s: LogValue.real(*s._arch[3]) if s.v.is_archimedean else s._log(s._weights[1]))
    log_dstar = property(lambda s: LogValue._log(abs(s.Z.d_star))
                         if s.v.is_archimedean else s._log(s._dstar))
    # round + weight: one exact coefficient of log p at a finite place
    mahler_weighted = property(lambda s: s.round + s.weight if s.v.is_archimedean
                               else s._log(s._rounds[0] + s._weights[0]))

    @cached_property
    def fekete(self) -> LogValue:
        """Off-diagonal weighted pairing sum: at p one exact coefficient of
        log p from the moments (see pairing), at ARCH the sum over pairs of
        distinct support points, by row blocks.  Zero for a single support
        point."""
        if not self.v.is_archimedean:
            (r1, r2), (w1, w2), d = self._rounds, self._weights, self.Z.degree
            return self._log(_lin(2, w2, -2 * d, w1, self._dstar + 2 * (r2 - d * r1)))
        if len(self.points) <= 1:
            return LogValue.zero()
        return LogValue.real(*self._pair_sum())

    def _pair_sum(self) -> tuple[float, float]:
        # (value, err) of the sum over i < j of 2 m_i m_j (log [w_i, w_j] - g_i
        # - g_j) at ARCH, by row blocks: see the module docstring and
        # _arch_sum_err.  Infinity, if in the support, is the last column only
        ws, rads, mults, gs = zip(*self.points)
        n, inf = len(ws), ws[-1] is INF_POINT
        z = np.array([0j if w is INF_POINT else w for w in ws], dtype=complex)
        r, m = np.array(rads), np.array(mults)
        # chordal_arch's sqrt(1 + |w|^2), 1 at infinity
        s = np.array([math.sqrt(1.0 + abs(x) ** 2) for x in z.tolist()])
        groups = [(k, m == k) for k in set(mults)]
        step = min(n - 1, max(1, _BLOCK // n))
        tri, slope = np.tri(step, step - 1, -1, dtype=bool), 0.5 + self.g.arch.lip
        rows, expo, rad = [], 0, 0.0
        for a in range(0, n - 1, step):
            # rows a..b-1 against columns a+1..n-1: head[low] are the pairs j <= i
            b = min(a + step, n - 1)
            head, low, mi, mj = np.s_[:, :b - a - 1], tri[:b - a, :b - a - 1], m[a:b], m[a + 1:]
            diff = _abs(z[a:b, None] - z[None, a + 1:])
            if inf:
                diff[:, -1] = 1.0
            f, e = np.frexp(diff / (s[a:b, None] * s[None, a + 1:]))
            # the root disks' gap, whose inverse bounds the slope of log|z - z'|
            sep = diff - r[a:b, None] - r[None, a + 1:]
            if inf:
                sep[:, -1] = np.inf
            f[head][low], e[head][low], sep[head][low] = 1.0, 0, np.inf
            # a mantissa of 0 is a distance of 0
            if f.min() <= 0.0 or sep.min() <= 0.0:
                raise DomainError("support points not separable at float precision")
            t = (1.0 / sep + slope) * (r[a:b, None] + r[None, a + 1:])
            t[head][low] = 0.0
            rad += mi @ (t @ mj)
            expo += int(mi @ (e @ mj))
            for k, cols in groups:
                prods = np.multiply.reduce(f, axis=1, where=cols[a + 1:]).tolist()
                rows.append((2 * k) * mi * np.array(list(map(math.log, prods))))
        rows = np.concatenate(rows).tolist()
        mass = sum(mults)
        terms = [*rows, 2 * expo * _LOG2, *(-2.0 * k * (mass - k) * gk for k, gk in zip(mults, gs))]
        # the pair weights sum to mass^2 - sum m^2
        size = (mass ** 2 - sum(k * k for k in mults)) * (1.0 + self.g.sup_abs(ARCH))
        size += 0.25 * (math.fsum(map(abs, rows)) + abs(2 * expo) * _LOG2)
        return math.fsum(terms), _arch_sum_err(size, 2.0 * float(rad), n * (n - 1) // 2)

    def pairing(self) -> LogValue:
        """Off-diagonal weighted pairing sum, assembled as

            log|d*|_v - 2d (round + weight) + 2 (diag_round + diag_weight).

        Exact at a finite place, where it is fekete; at the archimedean
        place this is the cross-check route to fekete.  Zero for a single
        support point.
        """
        if not self.v.is_archimedean:
            return self.fekete
        if len(self.points) <= 1:
            return LogValue.zero()
        return (self.log_dstar - self.mahler_weighted.scaled(2 * self.Z.degree)
                + (self.diag_round + self.diag_weight).scaled(2))


def mahler_sharp(Z: EffectiveDivisor, v: Place) -> LogValue:
    """Local Mahler term of the divisor against the round projective metric.

    The sum over the support of the log of the projective norm of each
    point.  At a finite place the norm is max(1, |w|_p) and the sum
    collapses to the leading-coefficient valuation times log p; at the
    archimedean place each point contributes half the log of 1 + |w|^2.
    The point at infinity contributes zero at every place.
    """
    return LocalData(Z, zero_weight(), v).round


def integral_against(Z: EffectiveDivisor, g: Weight, v: Place) -> LogValue:
    """Integral of the weight at v against the divisor's counting measure."""
    return LocalData(Z, g, v).weight


def mahler_g(Z: EffectiveDivisor, g: Weight, v: Place) -> LogValue:
    """Weighted local Mahler measure: round-metric term plus the integral
    of the weight against the divisor."""
    return LocalData(Z, g, v).mahler_weighted


def fekete_sum_arch_identity(Z: EffectiveDivisor, g: Weight) -> LogValue:
    """Archimedean off-diagonal sum assembled from the difference product,
    the weighted Mahler measure, and diagonal corrections.

    Cross-check companion to fekete_sum at ARCH; the two agree up to
    their error bounds.
    """
    return LocalData(Z, g, ARCH).pairing()


def fekete_sum(Z: EffectiveDivisor, g: Weight, v: Place) -> LogValue:
    """Off-diagonal weighted pairing sum at any place.

    Exact at finite places; certified floats at the archimedean place.
    Degree-one divisors give exactly zero.
    """
    return LocalData(Z, g, v).fekete
