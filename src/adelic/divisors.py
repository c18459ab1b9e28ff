"""Effective divisors on the projective line over Q.

A divisor is a primitive integer polynomial (its root divisor, with
multiplicities from the squarefree decomposition) plus an explicit
multiplicity at the point at infinity.  The module also computes the
quantities that drive all local identities: the diagonal mass, the
small-diagonal ratio, the pairwise difference product over distinct
finite support points (an exact rational) and the divisor's primes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .exact import (
    DomainError,
    IntPoly,
    _coprime_base,
    _index,
    _trial_division,
    content_primitive,
    resultant,
    squarefree_decomposition,
)

__all__ = [
    "EffectiveDivisor",
    "divisor_from_poly",
]


@dataclass(frozen=True)
class EffectiveDivisor:
    """Effective divisor of degree >= 1 on P^1(Qbar), Galois stable.

    finite_part is primitive with positive leading coefficient; inf_mult is
    the multiplicity of the point at infinity.  A constant finite_part means
    the divisor is supported at infinity alone.  A finite_part that
    IntPoly.make would not return unchanged (a zero polynomial, a trailing
    zero or a non-integer coefficient) is refused.
    """

    finite_part: IntPoly
    inf_mult: int = 0

    def __post_init__(self):
        if IntPoly.make(self.finite_part.coeffs) != self.finite_part:
            raise DomainError(
                f"finite part {self.finite_part.coeffs!r} is not as IntPoly.make builds it")
        object.__setattr__(self, "inf_mult", _index(self.inf_mult, "inf_mult"))
        if self.inf_mult < 0:
            raise DomainError("negative multiplicity at infinity")
        if self.degree < 1:
            raise DomainError("divisor must have degree >= 1")

    @property
    def degree(self) -> int:
        return self.finite_part.degree + self.inf_mult

    @cached_property
    def squarefree_factors(self) -> tuple[tuple[IntPoly, int], ...]:
        """Pairwise coprime squarefree factors with multiplicities."""
        return tuple(squarefree_decomposition(self.finite_part))

    @property
    def diagonal_mass(self) -> int:
        """sum over support points of (multiplicity)^2."""
        return sum(self.root_counts[1]) + self.inf_mult ** 2

    @property
    def small_diagonal_ratio(self) -> Fraction:
        return Fraction(self.diagonal_mass, self.degree ** 2)

    @cached_property
    def d_star(self) -> Fraction:
        """Product of (w - w') over ordered pairs of distinct finite support
        points, weighted by multiplicities in the exponents.

        Within one squarefree factor g of degree d, leading coefficient l and
        multiplicity m, the ordered pairs contribute
        (Res(g, g') / l^(2d-1))^(m^2), as Res(g, g') = l^(d-1) prod g'(alpha)
        = l^(2d-1) prod_{i != j} (alpha_i - alpha_j).  Across two factors the
        contribution is ((-1)^(d1 d2) Res(g1, g2)^2 / (l1^(2 d2) l2^(2 d1)))
        raised to m1*m2.  Empty product (fewer than two points) gives 1.
        """
        fac = self.squarefree_factors
        out = Fraction(1)
        for g, m in fac:
            base = Fraction(resultant(g, g.derivative()), g.lc ** (2 * g.degree - 1))
            out *= base ** (m * m)
        for i in range(len(fac)):
            for j in range(i + 1, len(fac)):
                gi, mi = fac[i]
                gj, mj = fac[j]
                di, dj = gi.degree, gj.degree
                sign = -1 if (di * dj) % 2 else 1
                r = Fraction(resultant(gi, gj)) ** 2
                base = Fraction(sign) * r / (gi.lc ** (2 * dj) * gj.lc ** (2 * di))
                out *= base ** (mi * mj)
        if out == 0:
            raise AssertionError("pairwise difference product vanished")
        return out

    @cached_property
    def end_coeffs(self) -> int:
        """|product of the leading and lowest nonzero coefficients| of the
        squarefree factors.  A prime p not dividing it is a unit prime of
        the divisor: every Newton polygon at p is flat, so every finite
        support point is a p-adic unit or zero."""
        out = 1
        for f, _ in self.squarefree_factors:
            out *= f.lc * next(c for c in f.coeffs if c)
        return abs(out)

    @cached_property
    def root_counts(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """((units, zeros), (units2, zeros2)): the nonzero and the zero
        finite support points counted with multiplicity m, then with m^2.
        At a unit prime the nonzero points are exactly the units."""
        out = []
        for k in (1, 2):
            units = zeros = 0
            for f, m in self.squarefree_factors:
                z = next(j for j, c in enumerate(f.coeffs) if c)
                units += m ** k * (f.degree - z)
                zeros += m ** k * z
            out.append((units, zeros))
        return tuple(out)

    @cached_property
    def primes(self) -> frozenset[int]:
        """Pairwise coprime integers whose primes are those where the
        divisor's own local data can be more than its d_star term: those of
        the finite part's leading coefficient lc, those that num(d_star)
        shares with end_coeffs (g, an input-sized gcd), and the numerator's
        primes below 2^15.  d_star is never factored: lc, g and num(d_star)
        are trial-divided below 2^15, and what is left of lc and g is
        refined by gcds (exact._coprime_base) against each squarefree
        factor's coefficients, num(d_star) and den(d_star).  So an element
        b above 2^15 divides every number a row reads to an exact power,
        and the rows of its primes sum to one row at b (a base place, see
        relevant_places) under a weight that is zero there.  den(d_star)
        adds no prime: each term's is a power of a factor's leading
        coefficient.  Every other prime of d_star is a unit prime above
        2^15, where the divisor's only local data is its d_star term."""
        ds = self.d_star
        num = abs(ds.numerator)
        out, rests = set(), []
        for n in (self.finite_part.lc, math.gcd(num, self.end_coeffs), num):
            small, rest = _trial_division(n)
            out.update(small)
            rests.append(rest)
        reads = [c for f, _ in self.squarefree_factors for c in f.coeffs]
        return frozenset(out | _coprime_base(rests[:2], reads + [num, ds.denominator]))


def divisor_from_poly(coeffs: Iterable[int], inf_mult: int = 0) -> EffectiveDivisor:
    """Build a divisor from integer coefficients (ascending) and an optional
    multiplicity at infinity.  Content and overall sign are stripped, so the
    result only depends on the root divisor of the polynomial."""
    f = IntPoly.make(coeffs)
    _, f = content_primitive(f)
    if f.lc < 0:
        f = f.scale(-1)
    return EffectiveDivisor(f, inf_mult)
