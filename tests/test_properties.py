"""Property tests of exact algebra, root disks and global reports against
independent oracles.

Examples come from the derandomized profile in conftest.py, so every
run checks the same divisors.
"""

from dataclasses import replace
from fractions import Fraction
from functools import reduce

import mpmath
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import adelic
from adelic.divisors import divisor_from_poly
from adelic.exact import (
    DomainError,
    IntPoly,
    content_primitive,
    discriminant,
    resultant,
    squarefree_decomposition,
)
from adelic.heights import global_fekete
from adelic.local import LocalData, fekete_sum, mahler_g
from adelic.places import relevant_places
from adelic.roots import certified_roots
from adelic.weights import FiniteWeight, ex5_weight, std_weight, trivial_weight

from helpers import assert_disks_hold_roots, pairwise_fekete_nonarch, sympy_sqf

rational_roots = st.dictionaries(
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8)),
    st.sampled_from([1, 1, 2]),
    min_size=2,
    max_size=4,
)
inf_mults = st.sampled_from([0, 0, 1])
small_factor = st.builds(lambda low, lead: IntPoly.make(low + [lead]),
                         st.lists(st.integers(-5, 5), min_size=1, max_size=3),
                         st.integers(-5, 5).filter(bool))


def _rational_root_divisor(roots, inf_mult):
    f = IntPoly.make([1])
    for q, m in roots.items():
        for _ in range(m):
            f = f * IntPoly.make([-q.numerator, q.denominator])
    return divisor_from_poly(list(f.coeffs), inf_mult)


def _check_report(Z, g, tail_eps, points=None):
    report = global_fekete(Z, g, tail_eps=tail_eps)
    for row in report.rows:
        assert row.mahler_weighted == mahler_g(Z, g, row.place)
        if points is not None and not row.place.is_archimedean:
            p = row.place.prime
            want = pairwise_fekete_nonarch(points, Z.inf_mult, g.finite(p), p)
            assert row.fekete.coeff == want
    assert report.identity_residual <= report.identity_slack


@given(rational_roots, inf_mults)
def test_ex5_rational_roots_match_pairwise_oracle(roots, inf_mult):
    Z = _rational_root_divisor(roots, inf_mult)
    _check_report(Z, ex5_weight(), 1e-2, sorted(roots.items()))


nonzero_roots = st.dictionaries(
    st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 8)),
    st.sampled_from([1, 2, 3]),
    min_size=1,
    max_size=3,
)
overrides = st.none() | st.tuples(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.builds(Fraction, st.integers(1, 6), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 9)))


class _PolygonRoute(LocalData):
    """LocalData with the unit-prime closed form switched off: every
    moment goes through the Newton polygons."""

    unit_prime = False


@given(nonzero_roots, st.sampled_from([0, 1, 2]), st.sampled_from([0, 1, 2]), overrides)
@example({Fraction(1, 2): 2, Fraction(-3): 1}, 2, 2, None)
@example({Fraction(5, 3): 3}, 1, 1, (3, Fraction(1, 4), Fraction(-2, 7)))
def test_unit_prime_closed_form_matches_polygons_and_pairs(roots, zero_mult, inf_mult, over):
    # at every listed prime the closed form equals the Newton-polygon route
    # moment by moment and in every report row, and its pairing equals the
    # direct pairwise sum
    g = ex5_weight()
    if over is not None:
        g = replace(g, name="ex5+override", overrides=(FiniteWeight(*over),))
    points = {**roots, Fraction(0): zero_mult} if zero_mult else roots
    Z = _rational_root_divisor(points, inf_mult)
    units = 0
    for v in relevant_places(Z, g, 5e-2).places[:-1]:
        fast, slow = LocalData(Z, g, v), _PolygonRoute(Z, g, v)
        for name in ("round", "weight", "diag_round", "diag_weight", "log_dstar"):
            assert getattr(fast, name) == getattr(slow, name), (v, name)
        assert "points" in vars(slow)
        pairing = fast.pairing()
        assert pairing == slow.pairing()
        want = pairwise_fekete_nonarch(sorted(points.items()), inf_mult, g.finite(v.prime), v.prime)
        assert pairing.coeff == want, v
        if fast.unit_prime:
            units += 1
            assert "points" not in vars(fast)
    assert units > 0
    report = global_fekete(Z, g, 5e-2)
    for row in report.rows[:-1]:
        slow = _PolygonRoute(Z, g, row.place)
        assert row.mahler_round == slow.round, row.place
        assert row.mahler_weighted == slow.round + slow.weight, row.place
        assert row.fekete == slow.pairing(), row.place
        assert row.log_dstar == slow.log_dstar, row.place
    assert report.identity_residual <= report.identity_slack


_ex5_override = replace(ex5_weight(), name="ex5+override",
                        overrides=(FiniteWeight(3, Fraction(1, 4), Fraction(-2, 7)),))


@pytest.mark.parametrize("Z, g, tail_eps", [
    (_rational_root_divisor({Fraction(1, 2): 2, Fraction(-3): 1, Fraction(0): 1}, 1),
     _ex5_override, 5e-2),
    (divisor_from_poly([3, -1, 0, 2], inf_mult=2), std_weight(), 1e-9),
    (divisor_from_poly([3, 2]), ex5_weight(), 5e-2),
    (divisor_from_poly([3, 2]), std_weight(), 1e-9),
], ids=["ex5_override", "std_inf2", "degree1_ex5", "degree1_std"])
def test_row_matches_the_named_moments(Z, g, tail_eps):
    # at every place of the report, LocalData.row() against the moments
    # read one at a time from a fresh LocalData
    for v in relevant_places(Z, g, tail_eps).places:
        row, diag = LocalData(Z, g, v).row()
        data = LocalData(Z, g, v)
        assert row.place == v
        assert row.mahler_round == data.round, v
        assert row.mahler_weighted == data.round + data.weight, v
        assert row.log_dstar == data.log_dstar, v
        assert diag == (data.diag_weight, data.diag_round), v
        want = fekete_sum(Z, g, v) if v.is_archimedean else data.pairing()
        assert row.fekete == want, v
    assert adelic.PlaceRow is adelic.heights.PlaceRow is adelic.local.PlaceRow


@given(rational_roots, inf_mults, st.sampled_from([std_weight, trivial_weight]))
def test_rational_roots_match_pairwise_oracle(roots, inf_mult, weight):
    Z = _rational_root_divisor(roots, inf_mult)
    _check_report(Z, weight(), 1e-9, sorted(roots.items()))


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=5),
       st.integers(1, 20), st.sampled_from([0, 0, 1, 2]),
       st.sampled_from([std_weight, trivial_weight]))
def test_small_divisors_rows_and_identity(low, lead, inf_mult, weight):
    try:
        Z = divisor_from_poly(low + [lead], inf_mult)
    except DomainError:
        return
    _check_report(Z, weight(), 1e-9)


@given(st.lists(st.tuples(small_factor, st.integers(1, 3)), min_size=1, max_size=3),
       st.integers(-6, 6).filter(bool))
def test_squarefree_decomposition_of_products(factors, c):
    # c * prod g_i^m_i, with content and sign, against the in-house
    # discriminant and resultant
    f = IntPoly.make([c])
    for g, m in factors:
        for _ in range(m):
            f = f * g
    parts = squarefree_decomposition(f)
    mults = [m for _, m in parts]
    assert mults == sorted(set(mults))
    for i, (g, _) in enumerate(parts):
        assert g.degree >= 1 and g.lc > 0 and content_primitive(g)[0] == 1
        assert discriminant(g) != 0
        for h, _ in parts[i + 1:]:
            assert resultant(g, h) != 0
    prod = reduce(IntPoly.__mul__, (g for g, m in parts for _ in range(m)))
    prim = content_primitive(f)[1]
    assert prod.coeffs in (prim.coeffs, prim.scale(-1).coeffs)


sqf_factor = st.builds(lambda low, lead: IntPoly.make(low + [lead]),
                       st.lists(st.integers(-9, 9), min_size=1, max_size=4),
                       st.integers(-9, 9).filter(bool))


@given(st.lists(st.tuples(sqf_factor, st.integers(1, 4)), min_size=1, max_size=4),
       st.integers(0, 3), st.sampled_from([1, -1, 2, -6, 12]))
@example([(IntPoly.make([-4, 1]), 1)], 2, 1)  # z^2 (z - 4): gcd(z^2 - 4z, z - 4) = z - 4
def test_squarefree_decomposition_matches_sympy(factors, zeros, c):
    # c z^zeros prod g_i^m_i, with zero roots and content, against sympy's
    # dense routine over ZZ
    f = IntPoly.make([0] * zeros + [c])
    for g, m in factors:
        for _ in range(m):
            f = f * g
    assert squarefree_decomposition(f) == sympy_sqf(f)


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=10),
       st.integers(-20, 20).filter(bool))
@example([0, -13], 5)  # linear base: a root sits at 1 - 3e-16 of its radius
def test_root_disks_hold_polyroots(low, lead):
    f = IntPoly.make(low + [lead])
    assume(discriminant(f) != 0)
    with mpmath.workdps(60):
        oracle = mpmath.polyroots(list(reversed(f.coeffs)), maxsteps=200, extraprec=120)
    assert_disks_hold_roots(f, certified_roots(f), oracle)
