import math
import random
from fractions import Fraction

import mpmath
import pytest

from adelic.berkovich import INF_POINT
from adelic.divisors import EffectiveDivisor, divisor_from_poly
from adelic.exact import DomainError, IntPoly, val_p
from adelic.heights import global_fekete
from adelic.local import (
    _BLOCK,
    LocalData,
    fekete_sum,
    fekete_sum_arch_identity,
    integral_against,
    mahler_g,
    mahler_sharp,
)
from adelic.places import ARCH, Place
from adelic.weights import ArchWeight, ex5_weight, std_weight, trivial_weight

from helpers import LOG2, arch_weight_mp, random_divisor, rational_root_divisor


def test_mahler_sharp_finite_is_lc_valuation():
    # 2z - 1: the round-metric measure at p=2 sees the denominator
    Z = divisor_from_poly([-1, 2])
    assert mahler_sharp(Z, Place(2)).coeff == 1
    assert mahler_sharp(Z, Place(3)).coeff == 0
    # z^2 - 2: roots are 2-adic half integers, lc is 1
    Z = divisor_from_poly([-2, 0, 1])
    assert mahler_sharp(Z, Place(2)).coeff == 0


def test_single_place_mahler_terms_read_only_their_moments(monkeypatch):
    # at a special prime the round term is a v_p(lc) sum with no Newton
    # polygon, and none of the one-place Mahler terms computes d*
    import adelic.local

    calls = []
    real = adelic.local.newton_polygon
    monkeypatch.setattr(adelic.local, "newton_polygon", lambda f, p: calls.append(p) or real(f, p))
    Z = divisor_from_poly([3, 0, 4], inf_mult=1)
    for p, lc_val in ((2, 2), (3, 0)):
        assert mahler_sharp(Z, Place(p)).coeff == lc_val
    assert calls == [] and "d_star" not in vars(Z)
    for p in (2, 3):
        assert mahler_g(Z, ex5_weight(), Place(p)) == (
            mahler_sharp(Z, Place(p)) + integral_against(Z, ex5_weight(), Place(p)))
    assert sorted(set(calls)) == [2, 3] and "d_star" not in vars(Z)


def test_mahler_sharp_arch_known_values():
    # z - 2: sqrt(1 + 4)
    Z = divisor_from_poly([-2, 1])
    v = mahler_sharp(Z, ARCH)
    assert abs(v.value - 0.5 * math.log(5)) < 1e-14
    # 2z - 1: the arch factor ignores the leading coefficient
    Z = divisor_from_poly([-1, 2])
    v = mahler_sharp(Z, ARCH)
    assert abs(v.value - 0.5 * math.log(1.25)) < 1e-14
    # point at infinity contributes nothing
    Z = divisor_from_poly([-2, 1], inf_mult=2)
    assert abs(mahler_sharp(Z, ARCH).value - 0.5 * math.log(5)) < 1e-14


def test_integral_against_exact_at_finite_places():
    g = ex5_weight()
    # z^2 - 2 at p=2: both roots have valuation 1/2, so s = -1/2
    Z = divisor_from_poly([-2, 0, 1])
    comp = g.finite(2)
    want = 2 * comp.coeff_fn(Fraction(-1, 2))
    assert integral_against(Z, g, Place(2)).coeff == want
    # adding infinity adds at_infinity per unit of multiplicity
    Z = divisor_from_poly([-2, 0, 1], inf_mult=2)
    assert integral_against(Z, g, Place(2)).coeff == want + 2 * comp.at_infinity


def test_mahler_g_combines_round_and_weight():
    g = ex5_weight()
    Z = divisor_from_poly([-1, 2])
    v = mahler_g(Z, g, Place(2))
    comp = g.finite(2)
    # root 1/2 has valuation -1, s = +1
    assert v.coeff == 1 + comp.coeff_fn(Fraction(1))


def test_fekete_arch_two_point_hand_value():
    # z^2 - 1 under the trivial weight: roots +-1
    # phi = log|2| - 2 log sqrt 2 + 1/2, doubled for ordered pairs
    Z = divisor_from_poly([-1, 0, 1])
    want = 2 * (math.log(2) - math.log(2) + 0.5)
    got = fekete_sum(Z, trivial_weight(), ARCH)
    assert abs(got.value - want) <= 1e-12
    assert got.err < 1e-10


def test_fekete_arch_identity_matches_direct():
    rng = random.Random(42)
    for g in (trivial_weight(), std_weight()):
        for _ in range(12):
            Z = random_divisor(rng, max_deg=7)
            if Z.degree < 2:
                continue
            a = fekete_sum(Z, g, ARCH)
            b = fekete_sum_arch_identity(Z, g)
            assert abs(a.value - b.value) <= a.err + b.err + 1e-9


def test_fekete_arch_unit_roots_closed_form():
    # sum over distinct pairs of log|zi - zj| is n log n for z^n - 1,
    # and the std weight vanishes on the unit circle pairs
    for n in (4, 8, 16):
        Z = divisor_from_poly([-1] + [0] * (n - 1) + [1])
        got = fekete_sum(Z, std_weight(), ARCH)
        assert abs(got.value - n * math.log(n)) < 1e-9


def test_fekete_arch_evaluates_the_weight_once_per_point(monkeypatch):
    # z^5 - 2 and a point at infinity: six support points, fifteen pairs
    calls = []
    real = ArchWeight.__call__

    def counting(self, z):
        calls.append(z)
        return real(self, z)

    monkeypatch.setattr(ArchWeight, "__call__", counting)
    fekete_sum(divisor_from_poly([-2, 0, 0, 0, 0, 1], inf_mult=1), std_weight(), ARCH)
    assert len(calls) == 6


def test_arch_moments_evaluate_the_weight_once_per_point(monkeypatch):
    # z^5 - 2 and a point at infinity: the four archimedean moments come
    # from one pass, so six support points cost six weight evaluations
    calls = []
    real = ArchWeight.__call__

    def counting(self, z):
        calls.append(z)
        return real(self, z)

    monkeypatch.setattr(ArchWeight, "__call__", counting)
    data = LocalData(divisor_from_poly([-2, 0, 0, 0, 0, 1], inf_mult=1), std_weight(), ARCH)
    moments = (data.round, data.weight, data.diag_round, data.diag_weight)
    assert not any(m.is_exact for m in moments)
    assert len(calls) == 6


def test_report_reads_the_archimedean_support_once(monkeypatch):
    # a std report on z^5 - 2 and a point at infinity: the pair loop, the
    # moments and the cross-check read one support list, so the weight is
    # evaluated once per point and the roots are collected once
    import adelic.local

    calls, supports = [], []
    real, real_support = ArchWeight.__call__, adelic.local.arch_support

    def counting(self, z):
        calls.append(z)
        return real(self, z)

    def counting_support(Z):
        supports.append(Z)
        return real_support(Z)

    monkeypatch.setattr(ArchWeight, "__call__", counting)
    monkeypatch.setattr(adelic.local, "arch_support", counting_support)
    report = global_fekete(divisor_from_poly([-2, 0, 0, 0, 0, 1], inf_mult=1), std_weight())
    assert report.identity_residual <= report.identity_slack
    assert len(calls) == 6 and len(supports) == 1


def test_fekete_arch_encloses_closed_form_at_high_degree():
    # n log n - (n - 1) log a for z^n - a under std; the bound must cover
    # the rounding of the sum over ~n^2/2 pairs, and stay narrow
    for n, a in ((192, 1), (120, 2), (121, 2)):
        Z = divisor_from_poly([-a] + [0] * (n - 1) + [1])
        got = fekete_sum(Z, std_weight(), ARCH)
        with mpmath.workdps(30):
            want = float(n * mpmath.log(n) - (n - 1) * mpmath.log(a))
        assert abs(got.value - want) <= got.err + 2.3e-16 * want
        assert got.err <= 1e-10 * want


def test_fekete_nonarch_hand_values():
    g0 = trivial_weight()
    # z^2 - 1 at p = 2: ordered pairs of (1, -1), difference 2
    Z = divisor_from_poly([-1, 0, 1])
    assert fekete_sum(Z, g0, Place(2)).coeff == -2
    assert fekete_sum(Z, g0, Place(3)).coeff == 0
    # z^2 - 2 at p = 2: difference product -8
    Z = divisor_from_poly([-2, 0, 1])
    assert fekete_sum(Z, g0, Place(2)).coeff == -3
    # infinity pairs use the round metric link
    Z = divisor_from_poly([-1, 2], inf_mult=1)  # points 1/2 and inf
    # [1/2, inf]_2 = 1/max(1,|1/2|) = 1/2, two ordered pairs
    assert fekete_sum(Z, g0, Place(2)).coeff == -2


def test_fekete_degree_one_is_zero():
    Z = divisor_from_poly([-1, 2])
    assert fekete_sum(Z, trivial_weight(), ARCH).coeff == 0
    assert fekete_sum(Z, trivial_weight(), Place(2)).coeff == 0
    only_inf = divisor_from_poly([1], inf_mult=1)
    assert fekete_sum(only_inf, std_weight(), ARCH).coeff == 0


def _marginal_direct_nonarch(Z: EffectiveDivisor, g, p: int) -> Fraction:
    """Independent finite-place assembly from polygon data.

    Groups the pairing sum as difference product plus marginalized
    corrections, using root valuations instead of the leading
    coefficient, so it exercises a different exactness mechanism than
    the production path.
    """
    comp = g.finite(p)
    D = Z.finite_part.degree
    k = Z.inf_mult
    d = D + k
    if d < 2:
        return Fraction(0)
    groups = []
    for f, m in Z.squarefree_factors:
        for val in nonarch_root_data_vals(f, p):
            # a root at zero carries infinite valuation; keep it raw
            groups.append((val if val == math.inf else Fraction(val), m))
    # difference product over distinct finite points
    ds = Z.d_star
    t1 = Fraction(-val_p(ds, p)) if ds != 1 else Fraction(0)
    # chordal denominators: each finite point x meets mass d - m_x
    # through log max(1, |x|); infinity pairs give the same factor
    t2 = Fraction(0)
    for val, m in groups:
        logplus = max(Fraction(0), -val)
        t2 += 2 * m * (d - m) * logplus
    # weight marginal: each point x is paired against mass d - m_x
    t3 = Fraction(0)
    for val, m in groups:
        t3 += 2 * m * (d - m) * comp.coeff_fn(-val)
    if k:
        t3 += 2 * k * (d - k) * comp.at_infinity
    return t1 - t2 - t3


def nonarch_root_data_vals(f: IntPoly, p: int):
    from adelic.exact import newton_polygon

    return newton_polygon(f, p)


def test_fekete_nonarch_matches_marginal_assembly():
    rng = random.Random(314)
    weights = [trivial_weight(), std_weight(), ex5_weight()]
    for _ in range(25):
        Z = random_divisor(rng, max_deg=7)
        primes = {2, 3, 5}
        ds = Z.d_star
        for q in (ds.numerator, ds.denominator, Z.finite_part.lc):
            for p in (2, 3, 5, 7, 11, 13):
                if q % p == 0:
                    primes.add(p)
        for g in weights:
            for p in sorted(primes):
                got = fekete_sum(Z, g, Place(p))
                want = _marginal_direct_nonarch(Z, g, p)
                assert got.coeff == want, (Z.finite_part.coeffs, Z.inf_mult, g.name, p)


def test_fekete_nonarch_rational_roots_pairwise():
    # fully independent oracle: explicit pairwise valuations
    rng = random.Random(2718)
    g_all = [trivial_weight(), std_weight(), ex5_weight()]
    for _ in range(12):
        Z, roots = rational_root_divisor(rng)
        pts = [(q, m) for q, m in roots]
        k = Z.inf_mult
        d = Z.degree
        for g in g_all:
            for p in (2, 3, 5, 7):
                comp = g.finite(p)
                total = Fraction(0)
                for i, (x, mx) in enumerate(pts):
                    for j, (y, my) in enumerate(pts):
                        if i == j:
                            continue
                        lp_x = max(Fraction(0), -Fraction(val_p(x, p))) if x else Fraction(0)
                        lp_y = max(Fraction(0), -Fraction(val_p(y, p))) if y else Fraction(0)
                        chord = Fraction(-val_p(x - y, p)) - lp_x - lp_y
                        total += mx * my * (chord - _wval(comp, x, p) - _wval(comp, y, p))
                if k:
                    for x, mx in pts:
                        lp_x = max(Fraction(0), -Fraction(val_p(x, p))) if x else Fraction(0)
                        phi = -lp_x - _wval(comp, x, p) - comp.at_infinity
                        total += 2 * mx * k * phi
                got = fekete_sum(Z, g, Place(p))
                assert got.coeff == total, (Z.finite_part.coeffs, k, g.name, p)


def _neg_inf():
    return -math.inf


def _wval(comp, q, p):
    if q == 0:
        return comp.coeff_fn(-math.inf)
    return comp.coeff_fn(-Fraction(val_p(q, p)))


def test_fekete_arch_separability_guard():
    # the roots 1e-9 and 1 are apart at float precision, and the pairing
    # holds its 50-digit value at them; two overlapping root disks, or two
    # equal floats, cannot be paired honestly and are refused
    f = IntPoly.make([-1, 10 ** 9]) * IntPoly.make([-999999999, 10 ** 9 - 1])
    got = fekete_sum(divisor_from_poly(list(f.coeffs)), trivial_weight(), ARCH)
    with mpmath.workdps(50):
        want = 2 * (mpmath.log(_chordal_mp(mpmath.mpf(1) / 10 ** 9, 1)) + 0.5)
        assert got.value != want and abs(got.value - want) <= got.err < 1e-13
    g = trivial_weight()
    for pts in ([(0.5, 0.3, 1, g.arch(0.5)), (1.0, 0.3, 1, g.arch(1.0))],
                [(0.5, 0.0, 1, g.arch(0.5)), (0.5, 0.0, 2, g.arch(0.5))]):
        with pytest.raises(DomainError, match="not separable at float precision"):
            _arch_data(g, pts).fekete


def _arch_data(g, pts):
    # LocalData at ARCH on the points (w, radius, m, g(w)), not a divisor's roots
    data = LocalData(divisor_from_poly([-1, 1]), g, ARCH)
    data.__dict__["points"] = pts
    return data


def _arch_sums(data):
    return [data.round, data.weight, data.diag_round, data.diag_weight, data.fekete]


def _chordal_mp(z, w):
    if w is INF_POINT:
        return 1 / mpmath.sqrt(1 + abs(mpmath.mpc(z)) ** 2)
    z, w = mpmath.mpc(z), mpmath.mpc(w)
    return abs(z - w) / mpmath.sqrt((1 + abs(z) ** 2) * (1 + abs(w) ** 2))


def _ring(n):
    # the n-th roots of unity as floats, with multiplicities 1, 2, 3, 1, ...
    ws = [complex(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]
    return ws, [1 + k % 3 for k in range(n)]


def _pair_sum_mp(g, ws, ms):
    # sum over i < j of 2 m_i m_j (log [w_i, w_j] - g(w_i) - g(w_j)) at the
    # working precision; infinity, if there, is last
    t, n = [arch_weight_mp(g.arch, w) for w in ws], len(ws)
    return mpmath.fsum(2 * ms[i] * ms[j] * (mpmath.log(_chordal_mp(ws[i], ws[j])) - t[i] - t[j])
                       for i in range(n) for j in range(i + 1, n))


@pytest.mark.parametrize("n, cap", [pytest.param(n, cap, id=str(n))
                                    for n, cap in ((512, 1e-10), (128, 4e-10), (64, 1e-10))])
def test_arch_sums_charge_their_rounding(n, cap):
    # centres of radius 0, taken as exact: the four moments and the pairing
    # hold their 50-digit values on the same floats, so the rounding of
    # every term and sum is in err.  The pairing is checked at n <= 128 (at
    # 128, 8128 pairs in four row blocks); its err grows as the pair
    # weights, (sum m)^2 - sum m^2, four times that of n = 64
    g = std_weight()
    ws, ms = _ring(n)
    got = _arch_sums(_arch_data(g, [(w, 0.0, m, g.arch(w)) for w, m in zip(ws, ms)]))
    with mpmath.workdps(50):
        r = [mpmath.log1p(abs(mpmath.mpc(w)) ** 2) / 2 for w in ws]
        t = [arch_weight_mp(g.arch, w) for w in ws]
        want = [sum(m ** k * x for m, x in zip(ms, xs)) for k in (1, 2) for xs in (r, t)]
        if n <= 128:
            want.append(_pair_sum_mp(g, ws, ms))
        for v, x in zip(got, want):
            assert v.value != x
            assert abs(v.value - x) <= v.err < cap


@pytest.mark.parametrize("inf_mult", [1, 2])
@pytest.mark.parametrize("weight", [std_weight, trivial_weight])
def test_pair_sum_over_row_blocks_and_multiplicities(weight, inf_mult):
    # isqrt(_BLOCK) + 1 scattered points and infinity take more than one row
    # block; the multiplicities 1-3 interleave, and infinity's column has its
    # own; the pairing holds its 50-digit value on the same floats
    g, n = weight(), math.isqrt(_BLOCK) + 1
    assert _BLOCK // (n + 1) < n
    rng = random.Random(7)
    ws = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)] + [INF_POINT]
    ms = [1 + k % 3 for k in range(n)] + [inf_mult]
    got = _arch_data(g, [(w, 0.0, m, g.arch(w)) for w, m in zip(ws, ms)]).fekete
    with mpmath.workdps(50):
        want = _pair_sum_mp(g, ws, ms)
        assert got.value != want
        assert abs(got.value - want) <= got.err < 1e-10


def test_pair_sum_charges_the_binary_exponents():
    # points 1e-300 apart near 0 under trivial: each chordal distance is
    # about 2^-997, so the sum is near -4138, and its own rounding and log
    # 2's, carried by the exponents a thousand times per pair, are far above
    # the mass part of size; only the row-log part covers them
    g = trivial_weight()
    ws = [1e-300, 2e-300, 4e-300]
    got = _arch_data(g, [(w, 0.0, 1, g.arch(w)) for w in ws]).fekete
    with mpmath.workdps(50):
        want = _pair_sum_mp(g, ws, [1, 1, 1])
        assert abs(got.value - want) <= got.err < 1e-11


def test_pair_sum_charges_rounding_near_zero():
    # under trivial (g = -1/4) a pair's term log chordal + 1/2 vanishes at
    # chordal distance e^(-1/2): near that, the terms' absolute rounding
    # (13u in chordal_arch and more) is far above 24u |x|, and only the
    # mass part of size covers it
    g = trivial_weight()
    for k in range(4):
        w = (1 + k * 1e-9) / math.sqrt(math.expm1(1.0))  # w / sqrt(1 + w^2) ~ e^(-1/2)
        got = _arch_data(g, [(0.0, 0.0, 1, g.arch(0.0)), (w, 0.0, 1, g.arch(w))]).fekete
        with mpmath.workdps(50):
            want = 2 * (mpmath.log(_chordal_mp(0.0, w)) + 0.5)
            assert abs(got.value) < 1e-8 and got.value != want
            assert abs(got.value - want) <= got.err < 1e-14


def test_arch_sums_charge_the_root_radii():
    # the 64th roots of unity moved out by 1e-9, with radius 2e-9: each
    # moment and the pairing must still hold its value at the roots
    # (n log 2 / 2, -n log 2 / 2 twice each, and n log n under std); the
    # radius terms are all of the margin
    g, n, out = std_weight(), 64, 1e-9
    ws = [complex(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) * (1 + out)
          for k in range(n)]
    got = _arch_sums(_arch_data(g, [(w, 2 * out, 1, g.arch(w)) for w in ws]))
    want = [n * LOG2 / 2, -n * LOG2 / 2] * 2 + [n * math.log(n)]
    for v, x in zip(got, want):
        assert abs(v.value - x) > v.err / 20
        assert abs(v.value - x) <= v.err
