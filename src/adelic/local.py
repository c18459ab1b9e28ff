"""Local Mahler measures and pairwise energy sums of effective divisors.

At a finite place everything reduces to exact rational data: leading
coefficient valuations, Newton polygon slopes, and the valuation of the
pairwise difference product.  At the archimedean place the support is
located by certified root isolation and all float results carry
propagated error bounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .berkovich import INF_POINT, chordal_arch
from .divisors import EffectiveDivisor
from .exact import _EPS, INF, DomainError, LogValue, newton_polygon, val_p
from .places import ARCH, Place, log_abs_float
from .roots import arch_support
from .weights import Weight

_TINY = 1e-300


def nonarch_root_data(Z: EffectiveDivisor, p: int) -> list[tuple[object, int]]:
    """(valuation, multiplicity) pairs for the finite support at p.

    Valuations are Fractions, or the infinity marker for roots at 0; the
    point at infinity of the divisor is not included.
    """
    out = []
    for g, m in Z.squarefree_factors:
        for v in newton_polygon(g, p):
            out.append((v, m))
    return out


def mahler_sharp(Z: EffectiveDivisor, v: Place, root_tol: float = 1e-13) -> LogValue:
    """Local Mahler term of the divisor against the round projective metric.

    The sum over the support of the log of the projective norm of each
    point.  At a finite place the norm is max(1, |w|_p) and the sum
    collapses to the leading-coefficient valuation times log p; at the
    archimedean place each point contributes half the log of 1 + |w|^2.
    The point at infinity contributes zero at every place.
    """
    if not v.is_archimedean:
        return LogValue.exact_log(val_p(Z.finite_part.lc, v.prime), v.prime)
    total = 0.0
    err = 0.0
    for w, rad, m in arch_support(Z, root_tol):
        r2 = abs(w) ** 2
        term = 0.5 * math.log1p(r2)
        total += m * term
        err += m * (0.5 * rad + 4.0 * _EPS * (1.0 + term))
    return LogValue.real(total, err)


def integral_against(Z: EffectiveDivisor, g: Weight, v: Place,
                     root_tol: float = 1e-13) -> LogValue:
    """Integral of the weight at v against the divisor's counting measure."""
    if not v.is_archimedean:
        comp = g.finite(v.prime)
        acc = Fraction(0)
        for val, m in nonarch_root_data(Z, v.prime):
            s = -val if val != INF else -INF
            acc += m * comp.coeff_fn(s)
        acc += Z.inf_mult * comp.at_infinity
        return LogValue.exact_log(acc, v.prime)
    total = 0.0
    err = 0.0
    for w, rad, m in arch_support(Z, root_tol):
        term = g.arch(w)
        total += m * term
        err += m * (g.arch.lip * rad + 4.0 * _EPS * (1.0 + abs(term)))
    if Z.inf_mult:
        term = g.arch(INF_POINT)
        total += Z.inf_mult * term
        err += Z.inf_mult * 4.0 * _EPS * (1.0 + abs(term))
    return LogValue.real(total, err)


def mahler_g(Z: EffectiveDivisor, g: Weight, v: Place,
             root_tol: float = 1e-13) -> LogValue:
    """Weighted local Mahler measure: round-metric term plus the integral
    of the weight against the divisor."""
    return mahler_sharp(Z, v, root_tol) + integral_against(Z, g, v, root_tol)


def _arch_points(Z: EffectiveDivisor, root_tol: float):
    pts = [(w, rad, m) for w, rad, m in arch_support(Z, root_tol)]
    if Z.inf_mult:
        pts.append((INF_POINT, 0.0, Z.inf_mult))
    return pts


def fekete_sum_arch(Z: EffectiveDivisor, g: Weight,
                    root_tol: float = 1e-13) -> LogValue:
    """Off-diagonal weighted pairing sum at the archimedean place, computed
    directly from certified roots as a double sum over distinct support
    points."""
    pts = _arch_points(Z, root_tol)
    if len(pts) <= 1:
        return LogValue.zero()
    lip = g.arch.lip
    rows = []
    err = 0.0
    for i in range(len(pts)):
        wi, ri, mi = pts[i]
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


def fekete_sum_arch_identity(Z: EffectiveDivisor, g: Weight,
                             root_tol: float = 1e-13) -> LogValue:
    """Archimedean off-diagonal sum assembled from the difference product,
    the weighted Mahler measure, and diagonal corrections.

    Cross-check companion to fekete_sum_arch; the two agree up to their
    error bounds.
    """
    if len(_arch_points(Z, root_tol)) <= 1:
        return LogValue.zero()
    dval, derr = log_abs_float(Z.d_star)
    mg, mgerr = mahler_g(Z, g, ARCH, root_tol)._as_float()
    total = dval - 2.0 * Z.degree * mg
    err = derr + 2.0 * Z.degree * mgerr
    for w, rad, m in arch_support(Z, root_tol):
        gw = g.arch(w)
        half = 0.5 * math.log1p(abs(w) ** 2)
        total += 2.0 * m * m * (gw + half)
        err += 2.0 * m * m * ((g.arch.lip + 0.5) * rad
                              + 4.0 * _EPS * (1.0 + abs(gw) + half))
    if Z.inf_mult:
        gi = g.arch(INF_POINT)
        total += 2.0 * Z.inf_mult ** 2 * gi
        err += 2.0 * Z.inf_mult ** 2 * 4.0 * _EPS * (1.0 + abs(gi))
    return LogValue.real(total, err)


def fekete_sum_nonarch(Z: EffectiveDivisor, g: Weight, p: int) -> LogValue:
    """Off-diagonal weighted pairing sum at a finite place, exactly.

    Assembled from the valuation of the pairwise difference product, the
    weighted Mahler measure, and diagonal corrections; every ingredient
    is an exact rational multiple of log p.
    """
    comp = g.finite(p)
    data = nonarch_root_data(Z, p)
    coeff = Fraction(-val_p(Z.d_star, p))
    mg = Fraction(val_p(Z.finite_part.lc, p))
    diag = Fraction(0)
    for val, m in data:
        s = -val if val != INF else -INF
        gw = comp.coeff_fn(s)
        mg += m * gw
        diag += m * m * gw
        if val != INF and val < 0:
            diag += m * m * (-val)
    if Z.inf_mult:
        mg += Z.inf_mult * comp.at_infinity
        diag += Z.inf_mult ** 2 * comp.at_infinity
    coeff += -2 * Z.degree * mg + 2 * diag
    return LogValue.exact_log(coeff, p)


def fekete_sum(Z: EffectiveDivisor, g: Weight, v: Place,
               root_tol: float = 1e-13) -> LogValue:
    """Off-diagonal weighted pairing sum at any place.

    Exact at finite places; certified floats at the archimedean place.
    Degree-one divisors give exactly zero.
    """
    if v.is_archimedean:
        return fekete_sum_arch(Z, g, root_tol)
    return fekete_sum_nonarch(Z, g, v.prime)
