import dataclasses
import hashlib
import json
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
import sympy

from adelic.divisors import divisor_from_poly
from adelic.exact import DomainError, IntPoly, LogValue, float_sum, val_p
from adelic.heights import HeightInterval, global_fekete, height
from adelic.local import LocalData
from adelic.places import Place, product_formula_check, relevant_places
from adelic.weights import (ArchWeight, FiniteWeight, Weight, ex5_weight, radii, std_weight,
                            trivial_weight)

from helpers import LOG2, dstar_cofactor, random_divisor, rational_root_divisor


def test_height_interval_contains():
    h = HeightInterval(1.0, 1e-3, 1e-4)
    assert h.lo < 1.0 < h.hi
    assert 1.0005 in h
    assert 1.01 not in h
    assert h.width <= 2 * (1e-3 + 1e-4) + 1e-15


def test_classical_weil_heights():
    g = std_weight()
    # h(2) via z - 2 and h(1/2) via 2z - 1 both equal log 2
    assert abs(height(divisor_from_poly([-2, 1]), g).value - LOG2) < 1e-12
    assert abs(height(divisor_from_poly([-1, 2]), g).value - LOG2) < 1e-12
    # h(sqrt 2) = (log 2)/2
    assert abs(height(divisor_from_poly([-2, 0, 1]), g).value - LOG2 / 2) < 1e-12
    # unit roots have height zero
    for n in (2, 3, 8):
        Z = divisor_from_poly([-1] + [0] * (n - 1) + [1])
        assert abs(height(Z, g).value) < 1e-12
    # the point at infinity alone
    assert abs(height(divisor_from_poly([1], inf_mult=1), g).value) < 1e-15


def test_weight_override_is_a_relevant_place():
    # a finitely supported weight whose only nonzero finite component is an
    # override at 5 (coefficient 1 everywhere): mahler_g at 5 is 2 log 5, so
    # h(sqrt 2) = (log 2)/2 + log 5, and place 5 must not be dropped
    g = Weight("w", ArchWeight("unit_circle"), False,
               (FiniteWeight(5, Fraction(0), Fraction(1)),))
    Z = divisor_from_poly([-2, 0, 1])
    want = LOG2 / 2 + math.log(5)
    assert Place(5) in relevant_places(Z, g).places
    h = height(Z, g)
    assert abs(h.value - want) < 1e-12 and want in h
    report = global_fekete(Z, g)
    assert Place(5) in [r.place for r in report.rows]
    assert abs(report.height_interval.value - want) < 1e-12
    assert report.identity_residual <= report.identity_slack


def test_height_scalar_invariance():
    rng = random.Random(88)
    g = std_weight()
    for _ in range(15):
        Z = random_divisor(rng, max_deg=6)
        k = rng.choice([-5, -2, 3, 7])
        scaled = divisor_from_poly(
            [k * c for c in Z.finite_part.coeffs], Z.inf_mult)
        a = height(Z, g)
        b = height(scaled, g)
        assert abs(a.value - b.value) <= a.err + b.err + 1e-14


def test_height_trivial_weight_hand_values():
    # round Mahler term plus the constant arch weight -1/4 per point
    g0 = trivial_weight()
    h = height(divisor_from_poly([-2, 1]), g0)
    assert abs(h.value - (0.5 * math.log(5) - 0.25)) < 1e-12
    h = height(divisor_from_poly([-1, 0, 1]), g0)
    assert abs(h.value - (0.5 * LOG2 - 0.25)) < 1e-12
    h = height(divisor_from_poly([1], inf_mult=1), g0)
    assert abs(h.value - (-0.25)) < 1e-14


def test_global_identity_residual_small():
    rng = random.Random(404)
    weights = [(trivial_weight(), 1e-9), (std_weight(), 1e-9), (ex5_weight(), 1e-2)]
    for _ in range(10):
        Z = random_divisor(rng, max_deg=6)
        for g, tail in weights:
            rep = global_fekete(Z, g, tail_eps=tail)
            assert rep.identity_residual <= rep.identity_slack
            assert rep.dstar_product_formula


def test_report_rows_are_exact_at_finite_places():
    Z = divisor_from_poly([-2, 0, 1])
    rep = global_fekete(Z, std_weight())
    for row in rep.rows:
        if row.place.is_archimedean:
            assert not row.fekete.is_exact
        else:
            assert row.fekete.is_exact
            assert row.log_dstar.is_exact


def test_uniform_sup_oracles():
    # z^2 - 2 with the trivial weight: the p = 2 row carries 3 log 2,
    # degree 2, so the normalized value is (3/4) log 2
    Z = divisor_from_poly([-2, 0, 1])
    u = global_fekete(Z, trivial_weight()).uniform_sup
    arch = abs(global_fekete(Z, trivial_weight()).fekete_arch)
    assert abs(u - max(0.75 * LOG2, arch)) < 1e-10
    # degree-1 divisors pair trivially
    assert global_fekete(divisor_from_poly([-1, 2]), std_weight()).uniform_sup == 0.0


def _aggregates_by_refolding(report):
    # height_interval, fekete_total_ratio, fekete_arch, fekete_max_finite and
    # uniform_sup recomputed from report.rows alone, one walk each: the row
    # of the cofactor C is an ordinary row
    d, rows = report.degree, report.rows
    h = LogValue.real(*float_sum(r.mahler_weighted for r in rows)).scaled(Fraction(1, d))
    h = HeightInterval(h.value, h.err, report.tail_bound)
    pairings = [r.fekete for r in rows]
    total = float_sum(pairings)[0] / d ** 2
    arch = [r.fekete._as_float()[0] / d ** 2 for r in rows if r.place.is_archimedean]
    finite = 0.0
    for x in [r.fekete for r in rows if not r.place.is_archimedean]:
        finite = max(finite, abs(x._as_float()[0]) / d ** 2)
    sup = 4.0 * report.tail_bound
    for x in pairings:
        if x.is_exact and x.coeff == 0:
            continue
        v, e = x._as_float()
        sup = max(sup, (abs(v) + e) / d ** 2)
    return h, total, arch[0] if arch else 0.0, finite, sup


def _is_exact_zero(x):
    return x.is_exact and x.coeff == 0


def test_report_aggregates_match_a_refold_of_the_rows():
    ex5_override = dataclasses.replace(
        ex5_weight(), overrides=(FiniteWeight(3, Fraction(1, 4), Fraction(-1, 8)),))
    # (3z + 2)(z - 2) under std: tail 0, an exact-zero row at p = 3
    Z = divisor_from_poly([-4, -4, 3])
    report = global_fekete(Z, std_weight())
    assert report.tail_bound == 0.0
    assert any(_is_exact_zero(r.fekete) for r in report.rows if not r.place.is_archimedean)
    cases = [report]
    # degree one: the archimedean pairing is an exact zero
    report = global_fekete(divisor_from_poly([-2, 1]), std_weight())
    assert _is_exact_zero(report.rows[-1].fekete)
    cases.append(report)
    cases.append(global_fekete(divisor_from_poly([-2, 0, 0, 1], inf_mult=2), trivial_weight()))
    cases.append(global_fekete(divisor_from_poly([-3, 1, 0, 2], inf_mult=1), ex5_override, 1e-2))
    # C = 45247 * 206251: its -log C pair is the largest finite pairing
    report = global_fekete(divisor_from_poly([-26, 26, 21, -29, -9, 17, 23]), std_weight())
    assert report.cofactor == 45247 * 206251
    cases.append(report)
    for report in cases:
        fields = (report.height_interval, report.fekete_total_ratio, report.fekete_arch,
                  report.fekete_max_finite, report.uniform_sup)
        assert fields == _aggregates_by_refolding(report)
        # the height's err covers the archimedean row's err and the rounding
        # of the fold, against the rows' values summed at 50 digits
        h, arch = report.height_interval, report.rows[-1].mahler_weighted
        with mpmath.workdps(50):
            exact = sum(mpmath.mpf(r.mahler_weighted.value) if r.place.is_archimedean
                        else mpmath.log(r.place.prime) * r.mahler_weighted.coeff.numerator
                        / r.mahler_weighted.coeff.denominator
                        for r in report.rows if r.mahler_weighted.coeff != 0)
            assert abs(exact / report.degree - h.value) + arch.err / report.degree <= h.err


def test_uniform_sup_unit_roots_closed_form():
    Z = divisor_from_poly([-1] + [0] * 63 + [1])
    u = global_fekete(Z, std_weight()).uniform_sup
    assert abs(u - math.log(64) / 64) < 1e-6


def test_report_json_roundtrips():
    # sqrt 2 and infinity, and an input whose C row is in rows
    for coeffs, inf_mult, cof in (([-2, 0, 1], 1, 1),
                                  ([-26, 26, 21, -29, -9, 17, 23], 0, 45247 * 206251)):
        Z = divisor_from_poly(coeffs, inf_mult=inf_mult)
        rep = global_fekete(Z, std_weight())
        assert rep.cofactor == cof
        back = json.loads(json.dumps(rep.to_json()))
        # the output layouts of a report's top level and of its height
        assert list(back) == [
            "degree", "inf_mult", "diagonal_mass", "diagonal_ratio", "rows", "tail_bound",
            "prime_cutoff", "height", "fekete_total_ratio", "fekete_arch", "fekete_max_finite",
            "uniform_sup", "identity_residual", "identity_slack", "dstar_product_formula"]
        assert list(back["height"]) == ["value", "err", "tail", "lo", "hi"]
        assert back["degree"] == Z.degree
        assert back["inf_mult"] == inf_mult
        assert back["diagonal_ratio"] == str(Z.small_diagonal_ratio)
        # one JSON row per row, the cofactor's included
        assert [r["place"] for r in back["rows"]] == [str(r.place) for r in rep.rows]
        assert back["height"]["lo"] <= back["height"]["value"] <= back["height"]["hi"]
        finite_rows = [r for r in back["rows"] if r["place"] != "inf"]
        assert all("coeff" in r["fekete"] for r in finite_rows)


@pytest.mark.parametrize("weight", [std_weight, trivial_weight, ex5_weight])
@pytest.mark.parametrize("call", [height, global_fekete])
def test_nan_tail_eps_is_refused(call, weight):
    # NaN fails every comparison, so it must not pass for a positive bound
    with pytest.raises(DomainError, match="tail_eps must be positive"):
        call(divisor_from_poly([-2, 0, 1]), weight(), tail_eps=math.nan)


def test_height_tail_is_reported():
    Z = divisor_from_poly([-1, 0, 1])
    h = height(Z, ex5_weight(), tail_eps=1e-2)
    assert 0 < h.tail < 1e-2
    assert h.hi - h.lo >= 2 * h.tail


def test_report_builds_each_newton_polygon_once(monkeypatch):
    # Newton polygons only where one can be bent: exactly one per
    # (squarefree factor, special prime), none at a unit prime (one dividing
    # no factor's leading or lowest nonzero coefficient), none built twice
    import adelic.local

    calls = {}
    real = adelic.local.newton_polygon

    def counting(f, p):
        calls[(f, p)] = calls.get((f, p), 0) + 1
        return real(f, p)

    monkeypatch.setattr(adelic.local, "newton_polygon", counting)
    Z, _ = rational_root_divisor(random.Random(5))
    report = global_fekete(Z, ex5_weight(), tail_eps=1e-2)
    primes = [r.place.prime for r in report.rows if not r.place.is_archimedean]
    factors = [f for f, _ in Z.squarefree_factors]
    ends = [c for f in factors for c in (f.lc, next(c for c in f.coeffs if c))]
    special = [p for p in primes if any(c % p == 0 for c in ends)]
    assert len(factors) >= 2 and len(special) >= 2 and len(primes) - len(special) > 100
    assert set(calls) == {(f, p) for f in factors for p in special}
    assert set(calls.values()) == {1}


def _fixed_ex5_divisor():
    # the benchmark's fixed ex5 divisor: six rational roots, infinity twice
    f = IntPoly.make([1])
    for a, b in ((1, 5), (-7, 3), (4, 5), (9, 5), (-11, 7), (-2, 1)):
        f = f * IntPoly.make([-a, b])
    return divisor_from_poly(list(f.coeffs), 2)


def test_fixed_ex5_report_is_byte_identical():
    # the 7838-place ex5 report of the benchmark's fixed divisor, pinned to
    # the digest of its JSON (x86-64, CPython 3.11): the closed form at unit
    # primes must not move a single Fraction or float.  The second digest
    # leaves out what archimedean rounding decides, the archimedean row and
    # the float aggregates, and was taken from the Newton-polygon route at
    # every prime: a change to the error model must not move it
    report = global_fekete(_fixed_ex5_divisor(), ex5_weight(), 1e-4)
    out = report.to_json()
    assert len(report.rows) == 7838
    assert _digest(out) == "ce61e0229261040b58ecd78558c318972199490b3181d062e0ede1bf08f16556"
    for key in ("height", "fekete_total_ratio", "fekete_arch", "fekete_max_finite",
                "uniform_sup", "identity_residual", "identity_slack"):
        del out[key]
    out["rows"] = [r for r in out["rows"] if r["place"] != "inf"]
    assert _digest(out) == "c6b76d169fd0a57c8f46a06cf7c0c6632d58184b5775a4665ee7a4a3aad9ed71"


def _digest(blob):
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


def test_fixed_ex5_height_matches_report():
    # height and the report's height_interval assemble the same finite rows
    # apart; on 7838 places they must agree bit for bit, field for field
    Z = _fixed_ex5_divisor()
    h = height(Z, ex5_weight(), 1e-4)
    assert h == global_fekete(Z, ex5_weight(), 1e-4).height_interval
    assert (h.value, h.err, h.tail) != (0.0, 0.0, 0.0)


def test_report_checks_each_prime_once_per_call(monkeypatch):
    # the report's places are sieved or factored primes and are not checked
    # again; the only isprime calls are one per Newton polygon, so the count
    # does not grow with the number of unit places
    import adelic.exact

    calls = [0]
    real = adelic.exact.isprime

    def counting(p):
        calls[0] += 1
        return real(p)

    monkeypatch.setattr(adelic.exact, "isprime", counting)
    Z, _ = rational_root_divisor(random.Random(5))
    report = global_fekete(Z, ex5_weight(), tail_eps=1e-2)
    primes = [r.place.prime for r in report.rows if not r.place.is_archimedean]
    factors = [f for f, _ in Z.squarefree_factors]
    ends = [c for f in factors for c in (f.lc, next(c for c in f.coeffs if c))]
    special = [p for p in primes if any(c % p == 0 for c in ends)]
    assert len(primes) - len(special) > 100
    assert calls[0] == len(special) * len(factors)


def _full_listing(Z):
    # the primes a report listed when d* was factored in full: lc, num(d*)
    # and den(d*), with sympy as the oracle
    ds = Z.d_star
    return set().union(*(sympy.factorint(abs(n)) for n in (
        Z.finite_part.lc, ds.numerator, ds.denominator)))


def test_cofactor_row_against_full_factorization():
    # dense inputs of degree 4-7 whose d* sympy factors in milliseconds:
    # the listed primes are those of a full factorization minus the primes
    # of C, and the one row -log C is the d* terms of those primes,
    # exponent by exponent
    rng = random.Random(2110)
    with_row = 0
    for _ in range(16):
        cs = [rng.randint(-30, 30) for _ in range(rng.randint(4, 7))] + [rng.randint(1, 30)]
        Z = divisor_from_poly(cs)
        cof = dstar_cofactor(Z)
        ds, C = Z.d_star, sympy.factorint(cof)
        assert C == {p: val_p(ds, p) for p in C}
        assert all(p > 2 ** 15 and Z.end_coeffs % p for p in C)
        with_row += cof > 1
        for g in (std_weight(), trivial_weight()):
            rep = global_fekete(Z, g)
            assert rep.cofactor == cof
            listed = {r.place.prime for r in rep.rows[:-1] if not r.place.base}
            assert listed == _full_listing(Z) - set(C)
            # C's row is the one base place, just before the archimedean row
            assert [r.place.prime for r in rep.rows if r.place.base] == [cof] * (cof > 1)
            rows = rep.to_json()["rows"]
            assert rows[-1]["place"] == "inf"
            assert len(rows) == len(rep.rows)
            if cof > 1:
                row = rows[-2]
                assert row["place"] == str(cof) and list(row) == list(rows[0])
                assert row["fekete"] == row["log_dstar"] == {"coeff": "-1", "log_base": cof}
                zero = {"coeff": "0", "log_base": None}
                assert row["mahler_round"] == row["mahler_weighted"] == zero
            # at each prime of C the row that was dropped held only its d* term
            for p in C:
                data = LocalData(Z, g, Place(p))
                assert data.unit_prime and data.mahler_weighted.coeff == 0
                assert data.fekete.coeff == data.log_dstar.coeff == -C[p]
            assert rep.dstar_product_formula
            assert rep.identity_residual <= rep.identity_slack
    assert with_row >= 8


def _rebuilt_dstar(rows):
    # |d*| from the place and log_dstar coefficient of every finite JSON row
    out = Fraction(1)
    for r in rows[:-1]:
        out *= Fraction(int(r["place"])) ** -Fraction(r["log_dstar"]["coeff"])
    return out


def test_weight_primes_leave_the_cofactor():
    # an override at a prime of C lists that prime with its own row, so
    # its power leaves the report's cofactor and the rows still rebuild |d*|
    Z = divisor_from_poly([-26, 26, 21, -29, -9, 17, 23])  # C = 45247 * 206251
    cof = dstar_cofactor(Z)
    C = sympy.factorint(cof)
    q = min(C)
    g = dataclasses.replace(std_weight(), overrides=(FiniteWeight(q, Fraction(1, 4), Fraction(0)),))
    assert Place(q) in relevant_places(Z, g).places
    for weight, want in ((std_weight(), cof), (g, cof // q ** C[q])):
        rep = global_fekete(Z, weight)
        assert rep.cofactor == want > 1
        rows = rep.to_json()["rows"]
        assert _rebuilt_dstar(rows) == abs(Z.d_star)
        assert rep.dstar_product_formula
        assert rep.identity_residual <= rep.identity_slack


@pytest.mark.parametrize("coeffs, p", [
    ([-2, 0, 1], 2),  # d* = 8, C = 1
    ([-1, 0, 0, 2], 2),  # the row at 2 holds den(d*)
    ([-26, 26, 21, -29, -9, 17, 23], 5),  # v_5(d*) = 4, C = 45247 * 206251
    ([-26, 26, 21, -29, -9, 17, 23], 23),  # v_23(d*) = -10
    ([-26, 26, 21, -29, -9, 17, 23], 653),  # v_653(d*) = 1: delta 1 moves it to 0
])
@pytest.mark.parametrize("delta", [-1, 1])
def test_product_formula_flag_reads_the_rows(monkeypatch, coeffs, p, delta):
    # one finite row's d* exponent moved by one: the printed rows and C no
    # longer rebuild |d*|, or C takes the power of a listed prime, and the
    # flag says so
    Z = divisor_from_poly(coeffs)
    real = LocalData._dstar.func
    moved = property(lambda s: real(s) + delta * (s.v == Place(p)))
    assert global_fekete(Z, std_weight()).dstar_product_formula
    monkeypatch.setattr(LocalData, "_dstar", moved)
    rep = global_fekete(Z, std_weight())
    assert any(r.place == Place(p) for r in rep.rows)
    assert not rep.dstar_product_formula


def _preimage(depth):
    # the depth-fold iterate of z^2 - 2
    cs = [-2, 0, 1]
    for _ in range(depth - 1):
        cs = list((IntPoly.make(cs) * IntPoly.make(cs)).coeffs)
        cs[0] -= 2
    return cs


def test_cofactor_is_one_on_the_structured_families():
    # C = 1 leaves every prime of num(d*) listed, as when d* was factored in
    # full, so these reports are byte-identical to that listing's
    inputs = [[-a] + [0] * (n - 1) + [1] for a in (1, 2) for n in range(1, 129)]
    inputs += [_preimage(k) for k in range(1, 8)]
    for cs in inputs:
        assert dstar_cofactor(divisor_from_poly(cs)) == 1, cs
    assert dstar_cofactor(_fixed_ex5_divisor()) == 1


def _dense64():
    # a dense input of degree 64: lc 3, the others in [-50, 50]
    # drawn after random.seed(1)
    rng = random.Random(1)
    return [rng.randint(-50, 50) for _ in range(64)] + [3]


@pytest.mark.parametrize("coeffs", [
    _dense64(),
    # its report spent 115 s factoring d*'s 49-digit numerator 19 * 883 * p21 * p25
    [-5, -23, 8, 18, 29, 3, -11, 26, -7, 3, 25, 17, 13, 28, 14],
], ids=["dense64", "deg14"])
def test_reports_factor_only_the_end_coefficients(monkeypatch, coeffs):
    # a report and a height trial-divide lc, gcd(num(d*), end_coeffs) and
    # num(d*), and nothing else: not d*'s denominator, not a coefficient
    import adelic.divisors

    seen = []
    real = adelic.divisors._trial_division

    def recording(n):
        seen.append(n)
        return real(n)

    monkeypatch.setattr(adelic.divisors, "_trial_division", recording)
    Z = divisor_from_poly(coeffs)
    rep = global_fekete(Z, std_weight())
    height(Z, std_weight())
    num = abs(Z.d_star.numerator)
    assert seen == [Z.finite_part.lc, math.gcd(num, Z.end_coeffs), num]
    assert rep.cofactor > 1 and rep.dstar_product_formula


#: p the first prime above 10^30 and q the first above 3 10^29: N = p q has
#: 60 digits, and no public call factors it
_P60, _Q60 = 10 ** 30 + 57, 3 * 10 ** 29 + 7
_N60 = _P60 * _Q60
_P, _Q = sympy.nextprime(2 ** 20), sympy.nextprime(2 ** 25)


def _base_row_inputs():
    # (coefficients, {prime: exponent} of every base element but C): lc and
    # end coefficients carrying b = p^a q^c with p, q > 2^15
    out = []
    for a, c in ((1, 1), (2, 1), (1, 3)):
        b = _P ** a * _Q ** c
        out.append(([-b, 1, b], [b]))  # lc and the constant term
        out.append(([b, 3, 0, b ** 2], [b]))  # lc b^2, the constant b
        out.append(([7 * b, 5, b * 11], [b]))  # with primes below 2^15
    out.append(([-_N60, 1, _N60], [_N60]))
    return out


def _primes_of(b):
    # factorint as the oracle; N60's primes are known by construction
    return {_P60: 1, _Q60: 1} if b == _N60 else sympy.factorint(b)


@pytest.mark.parametrize("coeffs, bases", _base_row_inputs())
def test_base_rows_sum_the_rows_of_their_primes(coeffs, bases):
    # under std and trivial each base row is the sum of the per-prime rows
    # of its primes: at each prime p of b, every entry is v_p(b) times the
    # base row's coefficient of log b, so the two sum to the same value
    Z = divisor_from_poly(coeffs)
    for g in (std_weight(), trivial_weight()):
        rep = global_fekete(Z, g)
        assert rep.dstar_product_formula and rep.identity_residual <= rep.identity_slack
        got = [r for r in rep.rows if r.place.base and r.place.prime != rep.cofactor]
        assert [r.place.prime for r in got] == bases
        for row in got:
            for p, e in _primes_of(row.place.prime).items():
                prow, _ = LocalData(Z, g, Place(p)).row()
                for name in ("mahler_round", "mahler_weighted", "fekete", "log_dstar"):
                    x, y = getattr(row, name), getattr(prow, name)
                    assert y.coeff == e * x.coeff, (p, name)
    # height reads the same rows
    assert height(Z, std_weight()) == global_fekete(Z, std_weight()).height_interval


@pytest.mark.parametrize("coeffs, bases", _base_row_inputs())
def test_base_rows_carry_no_weight_under_ex5(coeffs, bases):
    # under ex5 the weight reads zero at a base place, whose primes all lie
    # above the prime cutoff, so tail_bound holds their weight terms
    Z = divisor_from_poly(coeffs)
    rep = global_fekete(Z, ex5_weight(), 1e-2)
    assert rep.dstar_product_formula and rep.identity_residual <= rep.identity_slack
    got = [r for r in rep.rows if r.place.base and r.place.prime != rep.cofactor]
    assert [r.place.prime for r in got] == bases
    for row in got:
        data = LocalData(Z, ex5_weight(), row.place)
        assert data.weight.coeff == data.diag_weight.coeff == 0
        r = radii(ex5_weight(), row.place)
        assert r.log_outer.coeff == r.log_inner.coeff == 0 == ex5_weight().sup_abs(row.place)
        assert row.mahler_weighted == row.mahler_round
        assert min(_primes_of(row.place.prime)) > rep.prime_cutoff


def test_base_places_lose_the_sieved_primes():
    # a cutoff above p = 32771 lists p as a sieved prime and takes it out of
    # b = p^2 q: what is left is the proven prime q, with a row of its own
    p, q = sympy.nextprime(2 ** 15), _Q
    b = p ** 2 * q
    Z = divisor_from_poly([-b, 1, b])
    assert b in Z.primes
    rep = global_fekete(Z, ex5_weight(), 5e-5)
    assert p < rep.prime_cutoff < q
    places = [r.place for r in rep.rows]
    assert Place(p) in places and Place(q) in places
    assert all(v.prime == rep.cofactor for v in places if v.base)
    assert rep.dstar_product_formula and rep.identity_residual <= rep.identity_slack
    # an override at q takes q out just the same
    g = dataclasses.replace(std_weight(), overrides=(FiniteWeight(q, Fraction(1, 4)),))
    places = relevant_places(divisor_from_poly([-_P * q, 1, _P * q]), g).places
    assert Place(_P) in places and Place(q) in places and not any(v.base for v in places)


def _within(seconds, call):
    t = time.perf_counter()
    out = call()
    assert time.perf_counter() - t < seconds
    return out


def test_semiprime_reports_take_bounded_time():
    # N z^2 + z - N with a 60-digit semiprime N: no call factors N, so each
    # answers in well under a second, d* included; under ex5 the default
    # tail_eps needs primes past PRIME_LIMIT and is refused as fast
    def Z():
        return divisor_from_poly([-_N60, 1, _N60])

    for g in (std_weight(), trivial_weight()):
        _within(1.0, lambda: height(Z(), g))
        rep = _within(1.0, lambda: global_fekete(Z(), g))
        assert rep.dstar_product_formula
        assert Place(_N60, base=True) in [r.place for r in rep.rows]
    for call in (height, global_fekete):
        _within(1.0, lambda: call(Z(), ex5_weight(), 1e-3))
        with pytest.raises(DomainError, match="above the limit"):
            _within(1.0, lambda: call(Z(), ex5_weight()))
    assert _within(1.0, lambda: product_formula_check(_N60))
    assert _within(1.0, lambda: product_formula_check(Fraction(_N60, 2 ** 10 * _P60 ** 3)))
