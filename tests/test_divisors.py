import math
import random
from fractions import Fraction

import numpy as np
import pytest
from sympy import factorint

from adelic.divisors import EffectiveDivisor, divisor_from_poly
from adelic.exact import DomainError, IntPoly

from helpers import dstar_cofactor, random_divisor


def test_normalization_strips_content_and_sign():
    a = divisor_from_poly([-2, 0, 2])
    b = divisor_from_poly([1, 0, -1])
    c = divisor_from_poly([-1, 0, 1])
    assert a.finite_part.coeffs == b.finite_part.coeffs == c.finite_part.coeffs
    assert a.finite_part.lc > 0


def test_degree_counts_infinity():
    Z = divisor_from_poly([-1, 0, 1], inf_mult=3)
    assert Z.degree == 5
    assert Z.inf_mult == 3
    only_inf = divisor_from_poly([5], inf_mult=2)
    assert only_inf.degree == 2


@pytest.mark.parametrize("coeffs", [[-2.5, 0, 1], [1.9, 1], ["3", 1], [Fraction(2), 1]])
def test_rejects_non_integer_coefficients(coeffs):
    # read with operator.index: never truncated or parsed
    with pytest.raises(DomainError):
        divisor_from_poly(coeffs)


@pytest.mark.parametrize("inf_mult", [1.5, 1.0, "1", Fraction(1)])
def test_rejects_non_integer_inf_mult(inf_mult):
    with pytest.raises(DomainError):
        divisor_from_poly([-2, 0, 1], inf_mult)
    with pytest.raises(DomainError):
        EffectiveDivisor(IntPoly.make([-2, 0, 1]), inf_mult)


def test_accepts_numpy_integers():
    Z = divisor_from_poly(np.array([-4, 0, 2], dtype=np.int64), np.int32(1))
    assert Z == divisor_from_poly([-2, 0, 1], 1)
    assert type(Z.inf_mult) is int
    assert all(type(c) is int for c in Z.finite_part.coeffs)


@pytest.mark.parametrize("finite_part, inf_mult", [
    (IntPoly((-1, 1, 0)), 0),  # a trailing zero: degree 2 with one root
    (IntPoly((0,)), 1),  # the zero polynomial
    (IntPoly((-2.5, 1)), 0),  # a non-integer coefficient
], ids=["trailing_zero", "zero", "non_integer"])
def test_rejects_a_directly_built_polynomial_that_make_would_change(finite_part, inf_mult):
    # IntPoly(...) skips make's checks; the divisor refuses what make would
    # change, before a height divides by a degree that has no roots behind it
    with pytest.raises(DomainError):
        EffectiveDivisor(finite_part, inf_mult)


def test_rejects_empty_divisors():
    with pytest.raises(DomainError):
        divisor_from_poly([3])
    with pytest.raises(DomainError):
        divisor_from_poly([0, 0])
    with pytest.raises(DomainError):
        divisor_from_poly([-1, 1], inf_mult=-1)


def test_squarefree_factors():
    # (z-1)^2 (z+2)
    f = IntPoly.make([-1, 1])
    g = IntPoly.make([2, 1])
    Z = divisor_from_poly(list((f * f * g).coeffs))
    got = {(h.coeffs, m) for h, m in Z.squarefree_factors}
    assert got == {((-1, 1), 2), ((2, 1), 1)}


def test_diagonal_mass_and_ratio():
    # z^4: one point of multiplicity 4
    Z = divisor_from_poly([0, 0, 0, 0, 1])
    assert Z.diagonal_mass == 16
    assert Z.small_diagonal_ratio == 1
    # four simple roots
    Z = divisor_from_poly([-1, 0, 0, 0, 1])
    assert Z.diagonal_mass == 4
    assert Z.small_diagonal_ratio == Fraction(1, 4)
    # two double roots plus infinity squared
    f = IntPoly.make([-1, 1])
    g = IntPoly.make([1, 1])
    Z = divisor_from_poly(list((f * f * g * g).coeffs), inf_mult=2)
    assert Z.degree == 6
    assert Z.diagonal_mass == 4 + 4 + 4
    assert Z.small_diagonal_ratio == Fraction(12, 36)


def test_d_star_known_values():
    # z^2 - 1: roots 1, -1, product (1-(-1))((-1)-1) = -4
    assert divisor_from_poly([-1, 0, 1]).d_star == -4
    # z^2 - 2: (2 sqrt 2)(-2 sqrt 2) = -8
    assert divisor_from_poly([-2, 0, 1]).d_star == -8
    # z^4 - 1 has difference product -256 = -4^4
    assert divisor_from_poly([-1, 0, 0, 0, 1]).d_star == -256
    # 2z - 1: single point, empty product
    assert divisor_from_poly([-1, 2]).d_star == 1
    # z^3: repeated point only, empty product
    assert divisor_from_poly([0, 0, 0, 1]).d_star == 1


def test_d_star_roots_of_unity_magnitude():
    # |D*| for z^n - 1 is n^n
    for n in (2, 3, 5, 8):
        Z = divisor_from_poly([-1] + [0] * (n - 1) + [1])
        assert abs(Z.d_star) == n ** n


def test_d_star_respects_multiplicity_not_power():
    # (z^2-1)^2 has the same support as z^2-1 with doubled multiplicities;
    # the difference product is over distinct points, weighted by
    # multiplicity products in the pairing, so d_star stays that of the
    # support with multiplicity powers
    f = IntPoly.make([-1, 0, 1])
    Z = divisor_from_poly(list((f * f).coeffs))
    # pairs (1,-1) and (-1,1), each with multiplicity weight 2*2
    assert Z.d_star == Fraction(-4) ** 4


def test_d_star_scalar_invariance():
    rng = random.Random(31)
    for _ in range(25):
        Z = random_divisor(rng, max_deg=6)
        k = rng.choice([-3, -1, 2, 5, 7])
        scaled = divisor_from_poly([k * c for c in Z.finite_part.coeffs], Z.inf_mult)
        assert scaled.d_star == Z.d_star
        assert scaled.finite_part.coeffs == Z.finite_part.coeffs


def test_d_star_rational_roots_oracle():
    rng = random.Random(57)
    for _ in range(20):
        qs = set()
        while len(qs) < 3:
            qs.add(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        f = IntPoly.make([1])
        mults = {}
        for q in qs:
            m = rng.choice([1, 2])
            mults[q] = m
            lin = IntPoly.make([-q.numerator, q.denominator])
            for _ in range(m):
                f = f * lin
        Z = divisor_from_poly(list(f.coeffs))
        expect = Fraction(1)
        points = sorted(mults)
        for x in points:
            for y in points:
                if x != y:
                    expect *= (x - y) ** (mults[x] * mults[y])
        assert Z.d_star == expect


def test_primes_need_no_dstar_denominator():
    # each term of d* has a power of a factor's leading coefficient below,
    # so den(d*) adds no prime to lc and num(d*); the primes of num(d*)
    # that are not listed are exactly those of the cofactor
    rng = random.Random(17)
    for _ in range(300):
        Z = random_divisor(rng)
        lc, ds, C = set(factorint(Z.finite_part.lc)), Z.d_star, dstar_cofactor(Z)
        den = set(factorint(ds.denominator))
        assert den <= lc
        assert Z.primes | set(factorint(C)) == lc | set(factorint(abs(ds.numerator))) | den
        assert all(math.gcd(C, p) == 1 for p in Z.primes)
