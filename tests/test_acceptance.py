"""Acceptance suite: one test per criterion, checked at the stated
tolerance.  Each test prints a single labeled verdict line."""

import csv
import math
import random
import time
from fractions import Fraction

import pytest
import sympy

from adelic.certify import lemma43_certify
from adelic.certify import random_adversarial_instance, random_certifier_instance
from adelic.cli import _SUITES
from adelic.divisors import divisor_from_poly
from adelic.exact import DomainError, IntPoly, squarefree_decomposition, val_p
from adelic.heights import global_fekete, height
from adelic.local import fekete_sum, fekete_sum_arch_identity
from adelic.places import ARCH, Place, product_formula_check, relevant_places
from adelic.roots import DEGREE_CAP
from adelic.sequences import SequenceSpec, experiment_run
from adelic.weights import (
    equilibrium_energy,
    ex5_weight,
    normalize,
    std_weight,
    trivial_weight,
    zero_weight,
)

from helpers import pairwise_fekete_nonarch, rational_root_divisor
from quadrature import fs_kernel_energy

LOG2 = math.log(2.0)


def _verdict(tag, ok, detail):
    line = "%s %s: %s" % (tag, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def _random_squarefree(rng, max_deg, bound):
    while True:
        d = rng.randint(2, max_deg)
        coeffs = [rng.randint(-bound, bound) for _ in range(d)] + [rng.randint(1, bound)]
        f = IntPoly.make(coeffs)
        parts = squarefree_decomposition(f)
        if len(parts) == 1 and parts[0][1] == 1 and parts[0][0].degree == d:
            return coeffs


def test_A1_product_formula_exact():
    t0 = time.monotonic()
    rng = random.Random(11)
    for _ in range(100):
        q = Fraction(rng.randint(-10 ** 7, 10 ** 7), rng.randint(1, 10 ** 7))
        if q == 0:
            q = Fraction(-3, 7)
        assert product_formula_check(q)
    for _ in range(50):
        coeffs = _random_squarefree(rng, 10, 40)
        ds = divisor_from_poly(coeffs).d_star
        assert product_formula_check(ds)
    took = time.monotonic() - t0
    _verdict("A1", took < 10.0,
             "exact product formula on 100 rationals + 50 difference products "
             "in %.1fs" % took)


def test_A2_sphere_energy_and_normalization():
    t0 = time.monotonic()
    val, err = fs_kernel_energy(tol=1e-8)
    ok1 = abs(val - (-0.5)) < 1e-6
    gn = normalize(zero_weight(), ARCH)
    worst = max(abs(gn.arch(z) - (-0.25))
                for z in (0.0, 0.5, 1.0, 2.0, 10.0))
    ok2 = worst < 5e-7
    took = time.monotonic() - t0
    _verdict("A2", ok1 and ok2 and took < 30.0,
             "sphere kernel energy %.8f (target -0.5), normalized constant "
             "off by %.2e, %.1fs" % (val, worst, took))


def test_A3_local_identity_random_divisors():
    rng = random.Random(33)
    weights = [trivial_weight(), std_weight(), ex5_weight()]
    worst_arch = 0.0
    checked = 0
    for _ in range(50):
        d = rng.randint(2, 20)
        coeffs = [rng.randint(-40, 40) for _ in range(d)] + [rng.randint(1, 40)]
        inf_mult = rng.choice([0, 0, 1, 3])
        try:
            Z = divisor_from_poly(coeffs, inf_mult)
        except DomainError:
            continue
        # small primes actually active for this divisor: trial division
        # keeps the panel honest without factoring a huge difference product
        primes = {2, 3}
        ds = Z.d_star
        carrier = abs(ds.numerator) * ds.denominator * abs(Z.finite_part.lc)
        for p in sympy.primerange(2, 1000):
            if carrier % p == 0:
                primes.add(p)
        for g in weights:
            try:
                a = fekete_sum(Z, g, ARCH)
            except DomainError:
                continue  # near-coincident support; certified refusal
            b = fekete_sum_arch_identity(Z, g)
            gap = abs(a.value - b.value)
            worst_arch = max(worst_arch, gap)
            assert gap <= 1e-8, (coeffs, inf_mult, g.name, gap)
            for p in sorted(primes):
                got = fekete_sum(Z, g, Place(p))
                want = _marginal_nonarch(Z, g, p)
                assert got.coeff == want, (coeffs, inf_mult, g.name, p)
            checked += 1
    _verdict("A3", checked >= 120,
             "%d divisor/weight pairs: finite places exact, arch gap <= "
             "%.2e (tol 1e-8)" % (checked, worst_arch))


def _marginal_nonarch(Z, g, p):
    # independent regrouping of the finite-place pairing: difference
    # product plus marginalized chordal and weight corrections
    from adelic.exact import newton_polygon

    comp = g.finite(p)
    k = Z.inf_mult
    d = Z.degree
    if d < 2:
        return Fraction(0)
    groups = []
    for f, m in Z.squarefree_factors:
        for val in newton_polygon(f, p):
            groups.append((val, m))
    ds = Z.d_star
    total = Fraction(-val_p(ds, p)) if ds != 1 else Fraction(0)
    for val, m in groups:
        logplus = Fraction(0) if val == math.inf else Fraction(max(Fraction(0), -val))
        total -= 2 * m * (d - m) * logplus
        total -= 2 * m * (d - m) * comp.coeff_fn(-val)
    if k:
        total -= 2 * k * (d - k) * comp.at_infinity
    return total


def test_A4_nonarch_direct_pairwise_oracle():
    rng = random.Random(44)
    weights = [(std_weight(), 1e-9), (ex5_weight(), 0.05)]
    pairs = 0
    for _ in range(30):
        Z, roots = rational_root_divisor(rng, max_roots=5)
        for g, tail in weights:
            rel = relevant_places(Z, g, tail)
            for v in rel.places:
                if v.is_archimedean:
                    continue
                p = v.prime
                got = fekete_sum(Z, g, Place(p))
                want = pairwise_fekete_nonarch(roots, Z.inf_mult, g.finite(p), p)
                assert got.coeff == want, (Z.finite_part.coeffs, g.name, p)
                pairs += 1
    _verdict("A4", pairs > 100,
             "identity path equals direct pairwise valuations at %d "
             "divisor/place pairs, exactly" % pairs)


def test_A5_std_weight_normalized():
    e = equilibrium_energy(std_weight(), ARCH)
    _verdict("A5", abs(e) < 1e-6,
             "std circle energy %.2e (tol 1e-6)" % e)


def test_A6_height_closed_forms():
    g = std_weight()
    worst = 0.0
    for n in range(1, 65):
        Z = divisor_from_poly([-2] + [0] * (n - 1) + [1])
        worst = max(worst, abs(height(Z, g).value - LOG2 / n))
    for n in range(2, 129):
        Z = divisor_from_poly([-1] + [0] * (n - 1) + [1])
        worst = max(worst, abs(height(Z, g).value))
    worst = max(worst, abs(height(divisor_from_poly([-2, 1]), g).value - LOG2))
    worst = max(worst, abs(height(divisor_from_poly([-1, 2]), g).value - LOG2))
    _verdict("A6", worst < 1e-9,
             "h(2^(1/n)) n<=64, h(unit roots) n<=128, h(2), h(1/2): "
             "worst defect %.2e (tol 1e-9)" % worst)


def test_A7_arch_fekete_closed_form_and_sup_decay():
    g = std_weight()
    worst = 0.0
    for n in (4, 8, 16, 32, 64):
        Z = divisor_from_poly([-1] + [0] * (n - 1) + [1])
        ratio = fekete_sum(Z, g, ARCH).value / n ** 2
        worst = max(worst, abs(ratio - math.log(n) / n))
    sups = {}
    for n in (16, 32, 64):
        Z = divisor_from_poly([-1] + [0] * (n - 1) + [1])
        sups[n] = global_fekete(Z, g).uniform_sup
    ok = (worst < 1e-7 and sups[64] <= 0.07
          and sups[16] > sups[32] > sups[64])
    _verdict("A7", ok,
             "(Z,Z)/n^2 = (log n)/n within %.2e; uniform sup %.4f -> %.4f -> "
             "%.4f strictly decreasing, final <= 0.07" %
             (worst, sups[16], sups[32], sups[64]))


def test_A8_trivial_weight_negative_control():
    # Negative control for A7.  Under trivial_weight the archimedean
    # equilibrium measure is the Fubini-Study measure, not Haar measure
    # on |z| = 1, so unit roots do not have small pairing: their
    # normalized pairing tends to the nonzero limit 1/2 - log 2.
    # Since |disc(z^n - 1)| = n^n and the chordal distance on |z| = 1 is
    # |z - w|/2, summing over the n-th roots of unity gives exactly
    #     ratio_n = (log n)/n + (1 - 1/n) (1/2 - log 2),
    # so the distance to the limit is gap_n = (log 2n - 1/2)/n, and the
    # offset from std_weight's (log n)/n (A7) is (1 - 1/n)(1/2 - log 2).
    # Each is checked at 1e-9 on every stage, and the gaps must shrink.
    def rate(n):
        return (math.log(2 * n) - 0.5) / n

    target = 0.5 - LOG2
    g_triv, g_std = trivial_weight(), std_weight()
    gaps, offsets = {}, {}
    for n in (64, 128, 256):
        Z = divisor_from_poly([-1] + [0] * (n - 1) + [1])
        ratio = fekete_sum(Z, g_triv, ARCH).value / n ** 2
        closed = math.log(n) / n + (1 - 1 / n) * target
        assert abs(ratio - closed) < 1e-9, (n, ratio, closed)
        gaps[n] = abs(ratio - target)
        assert abs(gaps[n] - rate(n)) < 1e-9, (n, gaps[n], rate(n))
        offsets[n] = ratio - fekete_sum(Z, g_std, ARCH).value / n ** 2
        assert abs(offsets[n] - (1 - 1 / n) * target) < 1e-9, (n, offsets[n])
    # A window of 0.01 around the limit is first entered at n = 671, past
    # the certified-root cap, so no admissible degree can reach it.
    first = next(n for n in range(1, 10 ** 4) if rate(n) < 0.01)
    assert first == 671 and first > DEGREE_CAP
    _verdict("A8", gaps[64] > gaps[128] > gaps[256],
             "gap to 1/2 - log 2 = (log 2n - 1/2)/n within 1e-9: "
             "%.6f -> %.6f -> %.6f at n = 64, 128, 256; trivial - std "
             "offset %.6f -> %.6f -> %.6f; 0.01 window first at n = %d > "
             "cap %d" % (gaps[64], gaps[128], gaps[256], offsets[64],
                         offsets[128], offsets[256], first, DEGREE_CAP))


def test_A9_branching_family_certificates():
    # `adelic verify --suite ex5`: for every p < 101 the grid bound
    # |g_p| <= t_p/2 <= 1/(2 p^2), zero self-energy of the unit-mass disk and
    # reciprocal radii, and 100 draws of the exact kernel match
    ok, line = _SUITES["ex5"](random.Random(99))
    _verdict("A9", ok, line)


def test_A10_signed_uniform_upper_bound():
    rng = random.Random(1010)
    weights = [(trivial_weight(), 1e-9), (std_weight(), 1e-9), (ex5_weight(), 0.05)]
    corpus = [divisor_from_poly([-1] + [0] * (n - 1) + [1]) for n in (4, 16, 64)]
    corpus += [divisor_from_poly([-2] + [0] * (n - 1) + [1]) for n in (2, 8)]
    corpus.append(divisor_from_poly([2, 0, 2, 0, 1]))
    corpus.append(divisor_from_poly([-1, 2], inf_mult=2))
    for _ in range(25):
        d = rng.randint(2, 10)
        coeffs = [rng.randint(-30, 30) for _ in range(d)] + [rng.randint(1, 30)]
        try:
            corpus.append(divisor_from_poly(coeffs, rng.choice([0, 0, 1])))
        except DomainError:
            continue
    places_checked = 0
    for Z in corpus:
        for g, tail in weights:
            try:
                rep = global_fekete(Z, g, tail_eps=tail)
            except DomainError:
                continue
            for row in rep.rows:
                v, e = row.fekete._as_float()
                bound = 4.0 * g.sup_abs(row.place) + 1e-9
                assert (v + e) / Z.degree ** 2 <= bound, \
                    (Z.finite_part.coeffs, g.name, str(row.place))
                places_checked += 1
    _verdict("A10", places_checked > 200,
             "signed pairing bound holds at %d computed place values"
             % places_checked)


def test_A11_certifier_randomized_mass():
    rng = random.Random(1111)
    for i in range(1000):
        rows, tails, tail_bound, eps = random_certifier_instance(rng)
        out = lemma43_certify(rows, tails, tail_bound, eps)
        assert out.ok, i
        brute = max(abs(a) for row in rows for a in row)
        assert brute < out.sup_bound, i
    refused = {"tail_bound": 0, "row_sum": 0, "row_sup": 0}
    for i in range(1000):
        rows, tails, tail_bound, eps, reason = random_adversarial_instance(rng)
        out = lemma43_certify(rows, tails, tail_bound, eps)
        assert not out.ok, i
        assert out.reason == reason, (i, reason, out.to_json())
        refused[reason] += 1
    _verdict("A11", all(refused.values()),
             "1000 valid certified + brute confirmed; 1000 adversarial "
             "refused with the right reason (%s)" % refused)


def test_A12_preimage_control_reported(tmp_path):
    spec = SequenceSpec("preimages", n_max=6, param=0)
    out = tmp_path / "control.csv"
    res = experiment_run(spec, trivial_weight(), out=str(out))
    assert len(res.rows) == 6
    assert all(r.report.diagonal_ratio == 1 for r in res.rows)
    assert res.small_diagonal_suspect
    with open(out) as fh:
        emitted = list(csv.DictReader(fh))
    assert len(emitted) == 6
    assert all(float(r["diag_ratio"]) == 1.0 for r in emitted)
    _verdict("A12", True,
             "preimages of 0 keep diagonal ratio 1 for all depths and the "
             "run is flagged, with every row emitted")
