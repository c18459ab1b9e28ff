import math
import random
from fractions import Fraction

import mpmath
import pytest
from sympy import factorint, nextprime

from adelic.divisors import divisor_from_poly
from adelic.exact import _MR_LIMIT, DomainError, _val
from adelic.heights import global_fekete, height
from adelic.places import (
    ARCH,
    Place,
    _base_places,
    log_abs,
    product_formula_check,
    relevant_places,
)
from adelic.weights import ex5_weight, std_weight, trivial_weight


def test_place_construction_and_order():
    assert str(ARCH) == "inf"
    assert str(Place(7)) == "7"
    assert ARCH.is_archimedean and not Place(2).is_archimedean
    assert sorted([ARCH, Place(5), Place(2)]) == [Place(2), Place(5), ARCH]
    with pytest.raises(DomainError):
        Place(6)
    # a base place sorts after every prime and before ARCH, and prints as
    # its integer
    b = Place(6, base=True)
    assert str(b) == "6" and not b.is_archimedean and b != Place(2)
    assert sorted([ARCH, b, Place(7), Place(4, base=True)]) == [
        Place(7), Place(4, base=True), b, ARCH]
    for n in (1, 0, 2.0, None):
        with pytest.raises(DomainError):
            Place(n, base=True)


def test_log_abs_exact_values():
    v = log_abs(Fraction(3, 8), Place(2))
    assert v.coeff == 3 and v.base == 2
    v = log_abs(Fraction(3, 8), Place(3))
    assert v.coeff == -1
    v = log_abs(Fraction(3, 8), ARCH)
    assert abs(v.value - math.log(3 / 8)) < 1e-15


def test_log_abs_float_big_integers():
    n = 10 ** 400 + 7
    v = log_abs(Fraction(n), ARCH)
    val, err = v.value, v.err
    assert abs(val - 400 * math.log(10)) < 1e-9
    assert err < 1e-12


def _log_mp(q):
    with mpmath.workdps(60):
        return mpmath.log(abs(q.numerator)) - mpmath.log(q.denominator)


def test_log_abs_float_holds_the_log_of_a_ratio_of_huge_integers():
    # logs of 300-digit numerators and denominators of a quotient near 1.5:
    # each 690 and rounded apart, their difference missed log q by up to
    # about 100 times its err; the log of the rounded quotient does not
    rng = random.Random(23)
    for _ in range(2000):
        d = rng.randrange(10 ** 299, 10 ** 300)
        q = Fraction(3 * d + rng.randrange(-d // 10, d // 10), 2 * d)
        v = log_abs(q, ARCH)
        assert abs(v.value - _log_mp(q)) <= v.err < 1e-15
    # beyond the float range the quotient is shifted by 2^k and k log 2 added
    for q in (Fraction(3 ** 1000 + 1, 7 ** 200), Fraction(7 ** 200, 3 ** 1000 + 1)):
        v = log_abs(q, ARCH)
        assert abs(v.value - _log_mp(q)) <= v.err < 1e-12


def test_report_log_dstar_holds_its_value():
    # the report whose archimedean log_dstar was 8.5e-14 off, 79 times its err
    Z = divisor_from_poly([3 ** 299, 3 ** 299 + 1, 3 ** 300])
    arch = global_fekete(Z, std_weight()).rows[-1].log_dstar
    assert abs(arch.value - _log_mp(Z.d_star)) <= arch.err < 1e-15


def test_product_formula_rationals():
    rng = random.Random(9)
    for _ in range(100):
        q = Fraction(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 9))
        q *= rng.choice([1, -1])
        assert product_formula_check(q)
    assert product_formula_check(Fraction(1))


def test_product_formula_base_against_factorint():
    # the places product_formula_check reads: each prime below 2^15 of
    # num(q) and den(q) on its own, then what is left of each, a prime when
    # proven and else a base place.  q is a random rational, which
    # factorint splits, times powers of primes above 2^15, so the oracle
    # knows every prime: the places are pairwise coprime and hold each
    # prime of q once
    rng = random.Random(31)
    big = [nextprime(2 ** 15), nextprime(10 ** 9), nextprime(10 ** 25), nextprime(10 ** 40)]
    for _ in range(60):
        q = Fraction(rng.randint(-10 ** 6, 10 ** 6) or 1, rng.randint(1, 10 ** 6))
        want = {**factorint(abs(q.numerator)), **factorint(q.denominator)}
        for p in big:
            if k := rng.choice([0, 0, 1, 2, -1, -2]):
                q *= Fraction(p) ** k
                want[p] = k
        places = _base_places(q)
        assert places == sorted(places) and product_formula_check(q)
        got = [{p for p in want if v.prime % p == 0} for v in places]
        assert sum(map(len, got)) == len(want) and set().union(*got) == set(want)
        for v, ps in zip(places, got):
            # a prime place is a prime below _MR_LIMIT, which isprime proves
            assert v.base == (v.prime not in ps or v.prime > _MR_LIMIT)
            assert v.prime < 2 ** 15 or v.prime == math.prod(p ** abs(_val(q, p)) for p in ps)


@pytest.mark.parametrize("v", [ARCH, Place(2)], ids=str)
def test_log_abs_of_zero_is_refused(v):
    with pytest.raises(DomainError, match="absolute value of zero"):
        log_abs(0, v)


def test_product_formula_check_of_zero_is_refused():
    with pytest.raises(DomainError, match="needs a nonzero rational"):
        product_formula_check(0)


def test_relevant_places_finitely_supported():
    # std weight vanishes at finite places, so only lc/dstar primes matter
    Z = divisor_from_poly([-2, 0, 1])  # dstar -8, lc 1
    rel = relevant_places(Z, std_weight(), 1e-9)
    assert [str(v) for v in rel.places] == ["2", "inf"]
    assert rel.tail_bound == 0.0

    Z = divisor_from_poly([-1, 2])  # lc 2, single point
    rel = relevant_places(Z, trivial_weight(), 1e-9)
    assert [str(v) for v in rel.places] == ["2", "inf"]


def test_relevant_places_with_weight_tail():
    Z = divisor_from_poly([-1, 0, 1])
    g = ex5_weight()
    rel = relevant_places(Z, g, 0.05)
    primes = [v.prime for v in rel.places if not v.is_archimedean]
    # all primes up to the cutoff are present, plus the arch place
    assert rel.places[-1] is ARCH or rel.places[-1].is_archimedean
    assert primes == sorted(primes)
    assert rel.tail_bound < 0.05 / Z.degree
    assert rel.prime_cutoff >= primes[-1]


def test_relevant_places_cutoff_guard():
    # an infinitely supported weight with a microscopic tail target would
    # need an astronomical prime cutoff; that is refused, not attempted
    Z = divisor_from_poly([-1, 0, 1])
    with pytest.raises(DomainError):
        relevant_places(Z, ex5_weight(), 1e-9)


def test_relevant_places_refuses_a_vanishing_tail_target():
    # a bound whose 1/(2 bound) overflows a float, and one that underflows
    # to 0, are past the limit like any tiny target: no OverflowError, and
    # no complaint that a positive tail_eps is not positive
    with pytest.raises(DomainError, match="above the limit"):
        relevant_places(divisor_from_poly([-2, 1]), ex5_weight(), 1e-310)
    for coeffs, tail_eps in (([-2, 1], 1e-310), ([-2, 0, 1], 1e-323)):
        with pytest.raises(DomainError, match="above the limit"):
            height(divisor_from_poly(coeffs), ex5_weight(), tail_eps)
