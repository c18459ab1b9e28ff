import math
import random
from fractions import Fraction

import pytest

from adelic.exact import (
    DomainError,
    IntPoly,
    LogValue,
    content_primitive,
    discriminant,
    factorize,
    float_sum,
    newton_polygon,
    resultant,
    squarefree_decomposition,
    val_p,
)


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


def test_factorize_known_values():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert factorize(-7) == {7: 1}


def test_intpoly_basic_ops():
    f = IntPoly.make([1, 2, 3])
    assert f.degree == 2
    assert f.lc == 3
    assert f(2) == 1 + 4 + 12
    assert f(Fraction(1, 2)) == Fraction(1) + 1 + Fraction(3, 4)
    assert f.derivative().coeffs == (2, 6)
    g = IntPoly.make([0, 1]) * IntPoly.make([0, 1])
    assert g.coeffs == (0, 0, 1)
    assert IntPoly.make([1, 1]).add_scalar(4).coeffs == (5, 1)


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


def test_domain_errors():
    with pytest.raises(DomainError):
        val_p(3, 4)
