import math
import random
from fractions import Fraction
from itertools import zip_longest

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from sympy import Poly, factorint, isprime, nextprime, primerange
from sympy import gcd as sympy_gcd
from sympy import resultant as sympy_resultant
from sympy.abc import z

import adelic.exact
from adelic.exact import (
    DomainError,
    IntPoly,
    LogValue,
    content_primitive,
    discriminant,
    float_sum,
    newton_polygon,
    resultant,
    squarefree_decomposition,
    val_p,
)
from adelic.exact import (_MR_BASES, _MR_GRADES, _MR_LIMIT, _arch_sum_err, _coprime_base,
                          _gcd, _modular_resultant, _primes_below, _primitive, _strong_prp,
                          _subresultants, _trial_division, _up)

from helpers import sympy_sqf


def test_val_p_integers_and_fractions():
    assert val_p(12, 2) == 2
    assert val_p(12, 3) == 1
    assert val_p(12, 5) == 0
    assert val_p(Fraction(3, 8), 2) == -3
    assert val_p(Fraction(-9, 5), 3) == 2
    with pytest.raises(DomainError):
        val_p(0, 7)


def test_val_p_is_additive():
    rng = random.Random(101)
    for _ in range(200):
        a = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        b = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        p = rng.choice([2, 3, 5, 7])
        assert val_p(a * b, p) == val_p(a, p) + val_p(b, p)


def test_trial_division_known_values():
    assert _trial_division(360) == ({2: 3, 3: 2, 5: 1}, 1)
    assert _trial_division(1) == ({}, 1)
    assert _trial_division(7) == ({7: 1}, 1)
    assert _trial_division(2 ** 5 * 32771 ** 2) == ({2: 5}, 32771 ** 2)


_SMALL_PRIME = st.integers(1, 2 ** 15 - 20).map(nextprime)
_MID_PRIME = st.integers(2 ** 15, 10 ** 10).map(nextprime)
_BIG_PRIME = st.integers(10 ** 11, 10 ** 40).map(nextprime)


@given(st.lists(st.tuples(_SMALL_PRIME, st.integers(1, 3)), max_size=4),
       st.lists(st.tuples(st.one_of(_MID_PRIME, _BIG_PRIME), st.integers(0, 3),
                          st.integers(0, 3)), max_size=4))
def test_coprime_base_matches_factorint_on_products(small, large):
    # n and x share large primes at unrelated exponents: the base of what
    # trial division leaves of n, refined against x, splits those primes
    # into pairwise coprime elements dividing n and x to exact powers
    n, x, want = 1, 1, {}
    for p, e in small:
        n *= p ** e
    for p, a, b in large:
        n, x = n * p ** a, x * p ** b
        want[p] = want.get(p, 0) + a
    got, rest = _trial_division(n)
    assert got == {int(p): int(e) for p, e in factorint(n // rest).items()}
    assert rest == math.prod(p ** e for p, e in want.items())
    base = _coprime_base([rest], [x, n * x, 0])
    primes = [{p for p in want if b % p == 0} for b in base]
    assert sum(map(len, primes)) == len(set().union(*primes))
    assert set().union(*primes) == {p for p, e in want.items() if e}
    for b in base:
        for y in (rest, x, n * x):
            while y % b == 0:
                y //= b
            assert math.gcd(y, b) == 1, (b, y)


def test_trial_division_powers_and_edges():
    p, q = nextprime(2 ** 15), nextprime(10 ** 6)
    for n in (p ** 2, p ** 7, q ** 3, nextprime(10 ** 12) ** 3, (p * q) ** 2,
              # around 2^30: primes below and above, and p * q just above
              2 ** 30 - 35, 2 ** 30 - 1, 2 ** 30 + 1, 2 ** 30 + 3, 32771 * 32779,
              2 ** 61 - 1):
        want = {int(p): int(e) for p, e in factorint(n).items()}
        got, rest = _trial_division(n)
        assert got == {p: e for p, e in want.items() if p < 2 ** 15}
        assert rest == math.prod(p ** e for p, e in want.items() if p >= 2 ** 15)
        # below 2^30 the rest is 1 or prime
        assert rest >= 2 ** 30 or rest == 1 or isprime(rest)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 2 ** 15, 10 ** 6])
def test_sieve_matches_primerange(n):
    assert _primes_below(n) == list(primerange(0, n))


def test_intpoly_basic_ops():
    f = IntPoly.make([1, 2, 3])
    assert f.degree == 2
    assert f.lc == 3
    assert f.derivative().coeffs == (2, 6)
    g = IntPoly.make([0, 1]) * IntPoly.make([0, 1])
    assert g.coeffs == (0, 0, 1)
    assert IntPoly.make([1, 1]).add_scalar(4).coeffs == (5, 1)


def test_derivative_of_a_constant_is_refused():
    with pytest.raises(DomainError, match="derivative of a constant"):
        IntPoly.make([3]).derivative()


def test_scaling_by_zero_is_refused():
    with pytest.raises(DomainError, match="scaling by zero"):
        IntPoly.make([1, 2]).scale(0)


def test_discriminant_of_a_constant_is_refused():
    with pytest.raises(DomainError, match="discriminant needs degree >= 1"):
        discriminant(IntPoly.make([3]))


def test_exact_logs_at_two_primes_do_not_add():
    with pytest.raises(DomainError, match="different primes"):
        LogValue.exact_log(1, 2) + LogValue.exact_log(1, 3)


def test_content_primitive():
    c, f = content_primitive(IntPoly.make([6, -12, 18]))
    assert c == 6 and f.coeffs == (1, -2, 3)
    # content stays positive; the sign lives in the primitive part
    c, f = content_primitive(IntPoly.make([-4, -8]))
    assert c == 4 and f.coeffs == (-1, -2)


def test_squarefree_decomposition():
    # z^3 - 3z + 2 = (z+2)(z-1)^2
    parts = squarefree_decomposition(IntPoly.make([2, -3, 0, 1]))
    assert [(g.coeffs, m) for g, m in parts] == [((2, 1), 1), ((-1, 1), 2)]
    # squarefree input comes back whole
    parts = squarefree_decomposition(IntPoly.make([-2, 0, 1]))
    assert [(g.coeffs, m) for g, m in parts] == [((-2, 0, 1), 1)]


def test_squarefree_binomials_match_sympy():
    for n in list(range(1, 65)) + [127, 128, 256]:
        for c, a in ((1, -1), (6, -4), (-3, 12), (-5, -7)):
            f = IntPoly.make([a] + [0] * (n - 1) + [c])
            assert squarefree_decomposition(f) == sympy_sqf(f)
    # a zero root, z^k (z^n - a)
    for k, n in ((1, 4), (2, 3), (3, 64)):
        f = IntPoly.make([0] * k + [-2] + [0] * (n - 1) + [-6])
        assert squarefree_decomposition(f) == sympy_sqf(f)


def test_gcd_is_the_greatest():
    # xi must exceed twice a root bound: a start at min |f| = 4 reported
    # gcd 1 here, after which Yun's loop on z^2 (z - 4) never ended
    assert _gcd([0, -4, 1], [-4, 1]) == ([-4, 1], [0, 1], [1])
    # the fallback after six misses reads the last nonzero member of the
    # subresultant sequence: (z - 1)^2 (z + 2) and (z - 1)(3z + 1)
    for f, g, h in (([2, -3, 0, 1], [-1, -2, 3], [-1, 1]),
                    ([0, -4, 1], [-4, 1], [-4, 1]),
                    ([2, 0, 1], [-1, 1], [1])):
        A, B, _, _ = _subresultants(f, g)
        assert _primitive(B or A) in (h, [-a for a in h])


def test_gcd_falls_back_after_six_misses(monkeypatch):
    # xi-adic digits that divide nothing send _gcd to the subresultant
    # sequence: f = 6 (z - 2)(z + 3)^2 (2z + 1), g = 4 (z - 2)(z + 3)(z^2 + 1)
    misses = []

    def miss(v, x):
        misses.append(x)
        return [1] * 40

    monkeypatch.setattr(adelic.exact, "_xi_digits", miss)
    f = [-108, -234, -12, 54, 12]
    g = [-24, 4, -20, 4, 4]
    h, cf, cg = _gcd(f, g)
    assert len(misses) == 6
    assert h == [-12, 2, 2]  # 2 (z - 2)(z + 3)
    assert cf == [9, 21, 6] and cg == [2, 0, 2]
    assert _gcd([2, 0, 1], [-1, 1]) == ([1], [2, 0, 1], [-1, 1])


def test_gcd_fallback_makes_the_leading_coefficient_positive(monkeypatch):
    # every evaluation 0 is six misses; the subresultant sequence of
    # (z - 1)(z + 2) and (z - 1)(z + 3) ends in a multiple of z - 1 with a
    # negative leading coefficient, which the fallback turns positive
    monkeypatch.setattr(adelic.exact, "_eval", lambda f, x: 0)
    f, g = [-2, 1, 1], [-3, 2, 1]
    h, cf, cg = _gcd(f, g)
    assert (h, cf, cg) == ([-1, 1], [2, 1], [3, 1])
    want = Poly(sympy_gcd(Poly(f[::-1], z), Poly(g[::-1], z)), z).all_coeffs()[::-1]
    assert h == [int(c) for c in want]


def test_intpoly_str():
    # the format demos/01_exact_arithmetic.py prints: ascending powers, a
    # coefficient 1 or -1 left off, a negative term joined by " - "
    for cs, want in (([-3, 0, 1, -1, 5], "-3 + z^2 - z^3 + 5*z^4"), ([0, -1], "-z"),
                     ([1, -2, 0, 7], "1 - 2*z + 7*z^3"), ([0, 0, -4], "-4*z^2"), ([9], "9")):
        assert str(IntPoly.make(cs)) == want


def test_isprime_off_the_sieve_below_a_million(monkeypatch):
    # trial division and the graded Miller-Rabin bases, with the sieve hidden
    primes = set(_primes_below(10 ** 6))
    monkeypatch.setattr(adelic.exact, "_sieve", np.zeros(0, dtype=bool))
    assert all(adelic.exact.isprime(n) == (n in primes) for n in range(10 ** 6))


def test_isprime_pseudoprimes_and_mersenne():
    # Carmichael numbers, then strong pseudoprimes to the first 9, 12 and
    # 13 prime bases, the last at the bound from which nothing is proven
    for n in (561, 41041, 825265, 321197185, 3825123056546413051,
              318665857834031151167461, 3317044064679887385961981):
        assert not adelic.exact.isprime(n)
    # Mersenne primes above the bound are not proven, so not prime here
    for n in (2 ** 521 - 1, 2 ** 607 - 1, 2 ** 523 - 1):
        assert not adelic.exact.isprime(n)


def test_isprime_grades_take_enough_bases(monkeypatch):
    # each grade's bound is a strong pseudoprime to every base of its grade,
    # and so falls in the next grade, which must find it composite; 8321 =
    # 53 * 157 is one to base 2 alone, below the first bound
    monkeypatch.setattr(adelic.exact, "_sieve", np.zeros(0, dtype=bool))
    for n, k in ((8321, 1),) + _MR_GRADES:
        assert all(_strong_prp(n, a) for a in _MR_BASES[:k])
        assert not adelic.exact.isprime(n)


_digits = st.integers(4, 23).flatmap(lambda d: st.integers(10 ** d, 10 ** (d + 1)))


@given(_digits, _digits, st.sampled_from(["prime", "semiprime", "any"]))
def test_isprime_matches_sympy(a, b, kind):
    # a prime, a semiprime or an odd number of 5 to 25 digits, each below
    # _MR_LIMIT, where the graded bases prove what they answer
    n = {"prime": nextprime(a),
         "semiprime": nextprime(math.isqrt(a)) * nextprime(math.isqrt(b)),
         "any": a | 1}[kind]
    assert n < _MR_LIMIT
    assert adelic.exact.isprime(n) == isprime(n)


def test_resultant_known_values():
    # monic pair with integer roots: product of root differences
    f = IntPoly.make([-1, 0, 1])
    g = IntPoly.make([-4, 0, 1])
    assert resultant(f, g) == 9
    # linear pair (2z-1, 3z-1)
    assert resultant(IntPoly.make([-1, 2]), IntPoly.make([-1, 3])) == 1
    # swapping arguments flips sign by degree parity
    assert resultant(g, f) == 9


def test_resultant_is_multiplicative():
    rng = random.Random(77)
    for _ in range(40):
        f = IntPoly.make([rng.randint(-9, 9) for _ in range(3)] + [rng.randint(1, 9)])
        g = IntPoly.make([rng.randint(-9, 9) for _ in range(2)] + [rng.randint(1, 9)])
        h = IntPoly.make([rng.randint(-9, 9) for _ in range(2)] + [rng.randint(1, 9)])
        assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)


def _sympy_res(f, g):
    # sympy.resultant with the higher degree first: given deg f < deg g it
    # swaps the two without the sign (-1)^(deg f deg g) (sympy 1.14 has
    # Res(z, z^3 + 1) = -1, where the Sylvester determinant is 1)
    if f.degree < g.degree:
        return (-1) ** (f.degree * g.degree) * _sympy_res(g, f)
    return int(sympy_resultant(Poly(list(f.coeffs[::-1]), z), Poly(list(g.coeffs[::-1]), z)))


# content and sign times a polynomial of degree 0 to 5, zero constant
# terms included
_res_poly = st.builds(lambda low, lead, c: IntPoly.make([c * a for a in low + [lead]]),
                      st.lists(st.integers(-9, 9), max_size=5),
                      st.integers(-9, 9).filter(bool), st.sampled_from([1, -1, 3, -6]))


@given(_res_poly, _res_poly, st.one_of(st.none(), _res_poly))
@example(IntPoly.make([5]), IntPoly.make([-3]), None)  # two constants
@example(IntPoly.make([5]), IntPoly.make([1, 2, -3]), None)
@example(IntPoly.make([0, 1, 0, 0, 0, 0, 1]), IntPoly.make([1, 0, 0, 0, 1]), None)  # drop of 2
@example(IntPoly.make([1, 0, 0, 0, 0, 0, 0, 1]), IntPoly.make([0, 0, 0, 1]), None)  # to a constant
@example(IntPoly.make([1, 0, -2]), IntPoly.make([0, -1, 3]), None)  # equal degrees
@example(IntPoly.make([0, 2]), IntPoly.make([0, 0, -4]), IntPoly.make([1, 1]))  # shared factors
def test_resultant_matches_sympy(f, g, common):
    # times a common factor of degree >= 1 the resultant is 0
    if common is not None and not common.is_constant:
        f, g = f * common, g * common
    assert resultant(f, g) == _sympy_res(f, g)
    assert resultant(g, f) == (-1) ** (f.degree * g.degree) * resultant(f, g)


def test_resultant_of_unit_roots_and_their_derivative():
    for f in (IntPoly.make([-1] + [0] * 511 + [1]), IntPoly.make([-2] + [0] * 255 + [1])):
        df = f.derivative()
        assert resultant(f, df) == _sympy_res(f, df)
        assert resultant(df, f) == _sympy_res(df, f)


# primes in [50, 5000], ascending: a remainder's leading coefficient is often
# divisible by one, so abnormal steps are common
_SMALL_WINDOW = list(primerange(50, 5000))


@given(_res_poly, _res_poly, st.one_of(st.none(), _res_poly),
       st.sampled_from([1, 53, 67 * 4993]))
@example(IntPoly.make([5]), IntPoly.make([-3]), None, 1)
@example(IntPoly.make([5]), IntPoly.make([1, 2, -3]), None, 53)
@example(IntPoly.make([0, 1, 0, 0, 0, 0, 1]), IntPoly.make([1, 0, 0, 0, 1]), None, 1)
@example(IntPoly.make([1, 0, 0, 0, 0, 0, 0, 1]), IntPoly.make([0, 0, 0, 1]), None, 1)
@example(IntPoly.make([1, 0, -2]), IntPoly.make([0, -1, 3]), None, 1)
@example(IntPoly.make([0, 2]), IntPoly.make([0, 0, -4]), IntPoly.make([1, 1]), 1)
# the first remainders, 53z + 1 and 53z^2 + z + 1, lose their leading
# term at 53
@example(IntPoly.make([1, 54, 0, 1]), IntPoly.make([1, 0, 1]), None, 1)
@example(IntPoly.make([1, 2, 53, 0, 1]), IntPoly.make([1, 0, 0, 1]), None, 1)
def test_modular_resultant_matches_sympy_or_refuses(f, g, common, q):
    # q scales f's leading coefficient by primes of the window
    f = IntPoly.make(f.coeffs[:-1] + (q * f.lc,))
    if common is not None and not common.is_constant:
        f, g = f * common, g * common
    A, B, want = list(f.coeffs), list(g.coeffs), _sympy_res(f, g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adelic.exact, "_window_primes", lambda: _SMALL_WINDOW)
        got = _modular_resultant(A, B)
    assert got is None or got == want
    # below 2^31 too few primes are lost on inputs this small to refuse a
    # nonzero resultant
    assert _modular_resultant(A, B) == (want or None)


def _dense_poly(rng, d, lc=50):
    return IntPoly.make([rng.randint(-50, 50) for _ in range(d)] + [lc])


def _both_routes(monkeypatch, f, g):
    # resultant(f, g) by the modular route, which must not refuse, and by
    # the subresultant route alone
    calls = []
    modular = adelic.exact._modular_resultant

    def recording(A, B):
        calls.append(modular(A, B))
        return calls[-1]

    with monkeypatch.context() as mp:
        mp.setattr(adelic.exact, "_modular_resultant", recording)
        got = resultant(f, g)
    assert len(calls) == 1 and calls[0] is not None
    with monkeypatch.context() as mp:
        mp.setattr(adelic.exact, "_MODULAR_MIN_DEGREE", math.inf)
        return got, resultant(f, g)


# lc 2^70 + 1: coefficients past int64 are reduced one by one
@pytest.mark.parametrize("d, lc", [(96, 50), (128, 50), (192, 50), (64, 2 ** 70 + 1)])
def test_resultant_routes_agree_on_dense_inputs(monkeypatch, d, lc):
    f = _dense_poly(random.Random(d), d, lc)
    got, want = _both_routes(monkeypatch, f, f.derivative())
    assert got == want


def test_resultant_routes_agree_on_factor_pairs(monkeypatch):
    # g1 g2^2 g3^3: three squarefree factors, each pair and each factor with
    # its derivative on the modular route, and d* equal on both routes
    rng = random.Random(3)
    g1, g2, g3 = (_dense_poly(rng, d) for d in (64, 70, 64))
    Z = adelic.divisor_from_poly(list((g1 * g2 * g2 * g3 * g3 * g3).coeffs))
    fac = [g for g, _ in Z.squarefree_factors]
    assert len(fac) == 3
    for i, gi in enumerate(fac):
        for gj in [gi.derivative()] + fac[i + 1:]:
            got, want = _both_routes(monkeypatch, gi, gj)
            assert got == want
    with monkeypatch.context() as mp:
        mp.setattr(adelic.exact, "_MODULAR_MIN_DEGREE", math.inf)
        want = adelic.divisor_from_poly(list(Z.finite_part.coeffs)).d_star
    assert Z.d_star == want


def test_resultant_keeps_sparse_inputs_off_the_modular_route(monkeypatch):
    # z^n - a and iterates of z^2 - 2: the Hadamard bound is far above the
    # true resultant, so the subresultant route alone runs on them
    monkeypatch.setattr(adelic.exact, "_modular_resultant", None)
    c = IntPoly.make([0, 1])
    for _ in range(7):  # the 128th-degree Chebyshev-like iterate
        c = (c * c).add_scalar(-2)
    for f in (IntPoly.make([-2] + [0] * 127 + [1]), c):
        assert resultant(f, f.derivative()) == _sympy_res(f, f.derivative())


def test_modular_resultant_refuses_short_prime_lists(monkeypatch):
    # primes whose product is below |Res|: no CRT over them can be Res, so
    # the routine must refuse instead of returning a value
    f = _dense_poly(random.Random(12), 12)
    A, B = list(f.coeffs), list(f.derivative().coeffs)
    want = resultant(f, f.derivative())
    few = []
    for q in adelic.exact._window_primes():
        if math.prod(few) * q >= abs(want):
            break
        few.append(q)
    monkeypatch.setattr(adelic.exact, "_window_primes", lambda: few)
    # and it refuses before reducing anything mod a prime
    monkeypatch.setattr(adelic.exact, "_residues", None)
    assert _modular_resultant(A, B) is None
    assert resultant(f, f.derivative()) == want


def test_modular_resultant_refuses_when_drops_leave_too_few(monkeypatch):
    # Res(z - a, z - 1) = a - 1 = 53 * 59 * 61 * 67: the remainder vanishes
    # at those four of the eight primes taken, and the four left, spare
    # included, multiply to less than Res
    monkeypatch.setattr(adelic.exact, "_window_primes", lambda: _SMALL_WINDOW)
    a = 1 + 53 * 59 * 61 * 67
    assert _modular_resultant([-a, 1], [-1, 1]) is None
    assert _modular_resultant([-a, 1], [-2, 1]) == a - 2


@pytest.mark.parametrize("drop", [2, 5, 9])
def test_modular_resultant_abnormal_steps_on_the_window(monkeypatch, drop):
    # A = B Q + R with deg R = deg B - drop: every prime's second step has
    # a - b = drop and sums drop + 2 products of residues near 2^31, so an
    # accumulation that skips its reduction after every third product wraps
    rng = random.Random(drop)
    B = _dense_poly(rng, 64 + 13 * (drop // 2))
    Q, R = _dense_poly(rng, 3, 7), _dense_poly(rng, B.degree - drop, 11)
    A = IntPoly.make([c + r for c, r in zip_longest((B * Q).coeffs, R.coeffs, fillvalue=0)])
    got = _modular_resultant(list(A.coeffs), list(B.coeffs))
    monkeypatch.setattr(adelic.exact, "_MODULAR_MIN_DEGREE", math.inf)
    assert got is not None and got == resultant(A, B)


def test_modular_resultant_drops_a_prime_mid_sequence(monkeypatch):
    # 53 ahead of the window divides the third pseudo-remainder's leading
    # coefficient of f and f', so it leaves the sequence there while the
    # big primes go on
    f = _dense_poly(random.Random(60), 64)
    F, G = list(f.coeffs), list(f.derivative().coeffs)
    tops = []
    for _ in range(3):
        F, G = G, adelic.exact._prem(F, G)
        tops.append(G[-1] % 53)
    assert all(tops[:2]) and tops[2] == 0 and len(G) == len(F) - 1
    window = adelic.exact._window_primes()
    monkeypatch.setattr(adelic.exact, "_window_primes", lambda: [53] + window)
    got, want = _both_routes(monkeypatch, f, f.derivative())
    assert got == want


def test_window_primes_are_the_primes_below_2_31():
    got = adelic.exact._window_primes.__wrapped__()
    assert got == list(primerange(2 ** 31 - 2 ** 16, 2 ** 31))[::-1]


def test_discriminant_known_values():
    assert discriminant(IntPoly.make([-1, 0, 1])) == 4
    assert discriminant(IntPoly.make([1, 0, 1])) == -4
    assert discriminant(IntPoly.make([0, -1, 0, 1])) == 4
    # b^2 - 4ac for a general quadratic
    rng = random.Random(5)
    for _ in range(50):
        a, b, c = rng.randint(1, 20), rng.randint(-20, 20), rng.randint(-20, 20)
        assert discriminant(IntPoly.make([c, b, a])) == Fraction(b * b - 4 * a * c)


def test_newton_polygon_known_values():
    # 2z^2 - 3z + 6 at p=2: coefficient valuations 1, 0, 1
    assert newton_polygon(IntPoly.make([6, -3, 2]), 2) == [Fraction(-1), Fraction(1)]
    # z^2 - 2: both roots have valuation 1/2
    assert newton_polygon(IntPoly.make([-2, 0, 1]), 2) == [Fraction(1, 2), Fraction(1, 2)]
    # unit roots: all valuations zero
    assert newton_polygon(IntPoly.make([-1, 0, 0, 0, 1]), 3) == [Fraction(0)] * 4


def test_newton_polygon_of_a_constant_is_empty():
    # a nonzero constant has no roots, whatever its valuation
    for c, p in ((12, 2), (1, 3), (-7, 7)):
        assert newton_polygon(IntPoly.make([c]), p) == []


def test_newton_polygon_sums_to_constant_valuation():
    rng = random.Random(13)
    for _ in range(60):
        d = rng.randint(1, 7)
        coeffs = [rng.randint(1, 400)] + [rng.randint(-400, 400) for _ in range(d - 1)]
        coeffs.append(rng.randint(1, 400))
        f = IntPoly.make(coeffs)
        p = rng.choice([2, 3, 5])
        vals = newton_polygon(f, p)
        assert len(vals) == f.degree
        assert sum(vals) == val_p(coeffs[0], p) - val_p(f.lc, p)


def test_logvalue_exact_arithmetic():
    a = LogValue.exact_log(3, 2)
    b = LogValue.exact_log(-1, 2)
    s = a + b
    assert s.is_exact and s.coeff == 2 and s.base == 2
    assert (a - a).coeff == 0
    assert a.scaled(Fraction(1, 3)).coeff == 1
    z = LogValue.zero()
    assert (z + a).coeff == 3


def test_logvalue_mixed_addition_tracks_error():
    a = LogValue.exact_log(1, 2)
    b = LogValue.real(0.5, 1e-16)
    s = a + b
    assert not s.is_exact
    assert abs(s.value - (math.log(2) + 0.5)) < 1e-12
    assert s.err >= 1e-16


def test_logvalue_minus_infinity_absorbs():
    m = LogValue.minus_infinity()
    assert m.is_minus_infinity
    assert (m + LogValue.exact_log(5, 3)).is_minus_infinity


def test_logvalue_json_shapes():
    assert LogValue.exact_log(Fraction(-7, 2), 5).to_json() == {
        "coeff": "-7/2", "log_base": 5}
    assert LogValue.zero().to_json() == {"coeff": "0", "log_base": None}
    j = LogValue.real(1.25, 1e-15).to_json()
    assert j["value"] == 1.25 and j["err"] == 1e-15


def test_float_sum_folds_mixed_values():
    vals = [LogValue.exact_log(1, 2), LogValue.exact_log(1, 3),
            LogValue.real(0.25, 1e-16)]
    tot, err = float_sum(vals)
    assert abs(tot - (math.log(2) + math.log(3) + 0.25)) < 1e-12
    assert 0 < err < 1e-12


def test_float_sum_bounds_running_sum_rounding():
    # 1 + 4000 * 1e-16: each tiny term is lost against a running sum of 1,
    # so a bound of eps per term misses the 4e-13 that rounding drops
    vals = [LogValue.real(1.0)] + [LogValue.real(1e-16)] * 4000
    tot, err = float_sum(vals)
    exact = Fraction(1.0) + 4000 * Fraction(1e-16)
    assert abs(Fraction(tot) - exact) <= Fraction(err)
    assert err < 1e-15


def _log_mp(q):
    return mpmath.log(mpmath.mpf(q.numerator) / q.denominator)


# one case per ball operation: operands of radius 0 whose exact result the
# rounded value misses, so the test fails if that operation's rounding term
# is dropped; (ball, exact, needs more than one ulp of the value)
_TINY = 2.0 ** -60
_BALL_CASES = {
    "add": (lambda: LogValue.real(1.0) + LogValue.real(_TINY), lambda: 1 + Fraction(_TINY), False),
    "sub": (lambda: LogValue.real(1.0) - LogValue.real(_TINY), lambda: 1 - Fraction(_TINY), False),
    "scaled": (lambda: LogValue.real(1.0 + 2.0 ** -52).scaled(3),
               lambda: 3 * Fraction(1.0 + 2.0 ** -52), False),
    # float(11/5) rounds too, which the product's ulp alone does not cover
    "scaled_rounded_k": (lambda: LogValue.real(1.75).scaled(Fraction(11, 5)),
                         lambda: Fraction(1.75) * Fraction(11, 5), True),
    "float_sum": (lambda: LogValue.real(*float_sum(LogValue.real(x) for x in (1.0, _TINY, _TINY))),
                  lambda: 1 + 2 * Fraction(_TINY), False),
    # libm's log of an exact float
    "log_float": (lambda: LogValue._log(3.0), lambda: _log_mp(Fraction(3)), False),
    # a quotient rounded to 1.0, whose log 0.0 has a tiny ulp
    "log_rational": (lambda: LogValue._log(Fraction(10 ** 20 + 1, 10 ** 20)),
                     lambda: _log_mp(Fraction(10 ** 20 + 1, 10 ** 20)), True),
    # (5/39) log 2 as float(5/39) * math.log(2), off by 1.24 ulp
    "exact_to_float": (lambda: LogValue.real(*LogValue.exact_log(Fraction(5, 39), 2)._as_float()),
                       lambda: _log_mp(Fraction(2)) * 5 / 39, True),
    # a subnormal product, whose relative term underflows: _up's nextafter
    # is all its err
    "exact_to_float_subnormal": (
        lambda: LogValue.real(*LogValue.exact_log(Fraction(1, 2 ** 1070), 2)._as_float()),
        lambda: _log_mp(Fraction(2)) / 2 ** 1070, False),
}


@pytest.mark.parametrize("case", list(_BALL_CASES))
def test_ball_operations_charge_their_rounding(case):
    ball, exact, past_an_ulp = _BALL_CASES[case]
    with mpmath.workdps(50):
        ball, exact = ball(), exact()
        gap = abs(type(exact)(ball.value) - exact)
        assert 0 < gap <= ball.err <= 4e-16 * (1 + abs(ball.value))
        assert (gap > math.ulp(ball.value)) == past_an_ulp


def test_up_covers_terms_rounded_low():
    # three products a b c, each rounded twice and low by about 1.14 ulp:
    # their fsum misses the exact sum by 1.35 ulp, past what nextafter adds
    abc = [(1.0095970152653053, 1.0009847421675546, 1.3199917715377822),
           (1.000289261434722, 1.007782974115749, 1.3230931424643106),
           (1.011329638444199, 1.021004342702435, 1.2915591413037901)]
    terms = [a * b * c for a, b, c in abc]
    exact = sum(Fraction(a) * Fraction(b) * Fraction(c) for a, b, c in abc)
    assert Fraction(math.nextafter(math.fsum(terms), math.inf)) < exact
    assert Fraction(_up(*terms)) >= exact


def test_arch_sum_err_undoes_running_sum_rounding():
    # a running sum of 1 and 4000 halves of u loses every small term; the
    # size and lip slots must still bound their exact sums
    terms = [1.0] + [2.0 ** -54] * 4000
    run = 0.0
    for t in terms:
        run += t
    exact = sum(map(Fraction, terms))
    assert run == 1.0 < exact
    assert Fraction(_arch_sum_err(0.0, run, len(terms))) >= exact
    assert Fraction(_arch_sum_err(run, 0.0, len(terms))) >= 24 * Fraction(2.0 ** -53) * exact


def test_domain_errors():
    with pytest.raises(DomainError):
        val_p(3, 4)
