"""Local Mahler measures and pairwise energy sums of effective divisors.

At a finite place everything reduces to exact rational data: leading
coefficient valuations, Newton polygon slopes, and the valuation of the
pairwise difference product.  At the archimedean place the support is
located by certified root isolation and all float results carry
propagated error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .berkovich import INF_POINT, chordal_arch
from .divisors import EffectiveDivisor
from .exact import _EPS, DomainError, LogValue, _val, newton_polygon
from .places import ARCH, Place, log_abs
from .roots import arch_support
from .weights import FiniteWeight, Weight

_TINY = 1e-300


@dataclass
class LocalData:
    """A divisor's support at one place, found once, and its moments
    against one weight (g may be None if only round moments are read).

    round and weight sum the round-metric term (the log of the projective
    norm, zero at infinity) and the weight over the support, each point
    counted with its multiplicity m; diag_round and diag_weight put m^2 in
    place of m; log_dstar is log|d*|_v.  Each is computed on first use: an
    exact LogValue at a finite place, an error-bounded float at ARCH.
    """

    Z: EffectiveDivisor
    g: Weight | None
    v: Place

    @cached_property
    def unit_prime(self) -> bool:
        """Whether v is a unit prime of the divisor: one dividing no squarefree
        factor's leading or lowest nonzero coefficient, a test by divisibility
        alone.  Every finite support point is then a p-adic unit or zero, and
        the moments have a closed form with no Newton polygon."""
        return not self.v.is_archimedean and self.Z.end_coeffs % self.v.prime != 0

    @cached_property
    def points(self) -> list:
        """Finite support: (root, radius, multiplicity) at the archimedean
        place, (multiplicity, Newton polygon valuations) per factor at p."""
        if self.v.is_archimedean:
            return arch_support(self.Z)
        return [(m, newton_polygon(f, self.v.prime)) for f, m in self.Z.squarefree_factors]

    @cached_property
    def _comp(self) -> FiniteWeight:
        return self.g.finite(self.v.prime)

    def _moment(self, k: int, weighted: bool) -> LogValue:
        # sum over the support of m^k times the weight or the round term
        Z = self.Z
        if not self.v.is_archimedean:
            p = self.v.prime
            if self.unit_prime:
                if not weighted:
                    return LogValue.zero()
                # the ramp is flat on the units and at infinity, c(0) =
                # c(inf), and the zero roots sit at its foot c(-inf)
                units, zeros = Z.root_counts[k - 1]
                acc = (units + Z.inf_mult ** k) * self._comp.at_infinity
                if zeros:
                    acc += zeros * self._comp.inf_coeff
                return LogValue.exact_log(acc, p)
            if not weighted:
                # a factor is primitive: its roots' max(0, -v_p) sum to v_p(lc)
                return LogValue.exact_log(
                    sum(m ** k * _val(f.lc, p) for f, m in Z.squarefree_factors), p)
            coeff = self._comp.coeff_fn
            acc = sum(m ** k * sum(coeff(-val) for val in vals) for m, vals in self.points)
            return LogValue.exact_log(acc + Z.inf_mult ** k * self._comp.at_infinity, p)
        if weighted:
            term, slope = self.g.arch, self.g.arch.lip
        else:
            term, slope = (lambda w: 0.5 * math.log1p(abs(w) ** 2)), 0.5
        total = 0.0
        err = 0.0
        for w, rad, m in self.points:
            t = term(w)
            total += m ** k * t
            err += m ** k * (slope * rad + 4.0 * _EPS * (1.0 + abs(t)))
        if weighted and Z.inf_mult:
            t = term(INF_POINT)
            total += Z.inf_mult ** k * t
            err += Z.inf_mult ** k * 4.0 * _EPS * (1.0 + abs(t))
        return LogValue.real(total, err)

    log_dstar = cached_property(lambda self: log_abs(self.Z.d_star, self.v))
    round = cached_property(lambda self: self._moment(1, False))
    weight = cached_property(lambda self: self._moment(1, True))
    diag_round = cached_property(lambda self: self._moment(2, False))
    diag_weight = cached_property(lambda self: self._moment(2, True))

    def pairing(self) -> LogValue:
        """Off-diagonal weighted pairing sum, assembled as

            log|d*|_v - 2d (round + weight) + 2 (diag_round + diag_weight).

        Exact at a finite place, summed there as one coefficient of log p;
        at the archimedean place this is the cross-check route to
        fekete_sum_arch.  Zero for a single support point.
        """
        Z = self.Z
        if sum(f.degree for f, _ in Z.squarefree_factors) + (Z.inf_mult > 0) <= 1:
            return LogValue.zero()
        d = Z.degree
        if self.v.is_archimedean:
            return (self.log_dstar - (self.round + self.weight).scaled(2 * d)
                    + (self.diag_round + self.diag_weight).scaled(2))
        return LogValue.exact_log(
            self.log_dstar.coeff
            + 2 * (self.diag_round.coeff + self.diag_weight.coeff
                   - d * (self.round.coeff + self.weight.coeff)), self.v.prime)


def mahler_sharp(Z: EffectiveDivisor, v: Place) -> LogValue:
    """Local Mahler term of the divisor against the round projective metric.

    The sum over the support of the log of the projective norm of each
    point.  At a finite place the norm is max(1, |w|_p) and the sum
    collapses to the leading-coefficient valuation times log p; at the
    archimedean place each point contributes half the log of 1 + |w|^2.
    The point at infinity contributes zero at every place.
    """
    return LocalData(Z, None, v).round


def integral_against(Z: EffectiveDivisor, g: Weight, v: Place) -> LogValue:
    """Integral of the weight at v against the divisor's counting measure."""
    return LocalData(Z, g, v).weight


def mahler_g(Z: EffectiveDivisor, g: Weight, v: Place) -> LogValue:
    """Weighted local Mahler measure: round-metric term plus the integral
    of the weight against the divisor."""
    data = LocalData(Z, g, v)
    return data.round + data.weight


def fekete_sum_arch(Z: EffectiveDivisor, g: Weight) -> LogValue:
    """Off-diagonal weighted pairing sum at the archimedean place, computed
    directly from certified roots as a double sum over distinct support
    points."""
    pts = arch_support(Z)
    if Z.inf_mult:
        pts.append((INF_POINT, 0.0, Z.inf_mult))
    if len(pts) <= 1:
        return LogValue.zero()
    lip = g.arch.lip
    rows = []
    err = 0.0
    for i, (wi, ri, mi) in enumerate(pts):
        gi = g.arch(wi)
        row = []
        for j in range(i + 1, len(pts)):
            wj, rj, mj = pts[j]
            dist = chordal_arch(wi, wj)
            if dist <= 0.0:
                raise DomainError("support points not separable at float precision")
            phi = math.log(dist) - gi - g.arch(wj)
            row.append(2.0 * mi * mj * phi)
            if wi is INF_POINT or wj is INF_POINT:
                slope = 0.5 + lip
            else:
                sep = max(abs(wi - wj) - ri - rj, _TINY)
                slope = 1.0 / sep + 0.5 + lip
            err += 2.0 * mi * mj * (slope * (ri + rj) + 4.0 * _EPS * (1.0 + abs(phi)))
        # fsum rounds each row sum, and then the total, once
        rows.append(math.fsum(row))
        err += _EPS * abs(rows[-1])
    total = math.fsum(rows)
    return LogValue.real(total, err + _EPS * abs(total))


def fekete_sum_arch_identity(Z: EffectiveDivisor, g: Weight) -> LogValue:
    """Archimedean off-diagonal sum assembled from the difference product,
    the weighted Mahler measure, and diagonal corrections.

    Cross-check companion to fekete_sum_arch; the two agree up to their
    error bounds.
    """
    return LocalData(Z, g, ARCH).pairing()


def fekete_sum_nonarch(Z: EffectiveDivisor, g: Weight, p: int) -> LogValue:
    """Off-diagonal weighted pairing sum at a finite place, exactly.

    Assembled from the valuation of the pairwise difference product, the
    weighted Mahler measure, and diagonal corrections; every ingredient
    is an exact rational multiple of log p.
    """
    return LocalData(Z, g, Place(p)).pairing()


def fekete_sum(Z: EffectiveDivisor, g: Weight, v: Place) -> LogValue:
    """Off-diagonal weighted pairing sum at any place.

    Exact at finite places; certified floats at the archimedean place.
    Degree-one divisors give exactly zero.
    """
    if v.is_archimedean:
        return fekete_sum_arch(Z, g)
    return fekete_sum_nonarch(Z, g, v.prime)
