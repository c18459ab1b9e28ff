import cmath
import hashlib
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from adelic import roots
from adelic.divisors import divisor_from_poly
from adelic.exact import DomainError, IntPoly, squarefree_decomposition
from adelic.roots import arch_support, certified_roots

from helpers import assert_disks_hold_roots


def _poly_value(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def test_quadratic_roots():
    roots = certified_roots(IntPoly.make([-2, 0, 1]))
    got = sorted((r for r, rad in roots), key=lambda z: z.real)
    assert abs(got[0].real + math.sqrt(2)) < 1e-13
    assert abs(got[1].real - math.sqrt(2)) < 1e-13
    assert all(rad < 1e-13 for _, rad in roots)


def test_unit_roots_are_certified():
    n = 24
    roots = certified_roots(IntPoly.make([-1] + [0] * (n - 1) + [1]))
    assert len(roots) == n
    for z, rad in roots:
        assert rad < 1e-13
        assert abs(abs(z) - 1.0) < 1e-12
    # every 24th unit root appears exactly once
    angles = sorted(cmath.phase(z) for z, _ in roots)
    for i in range(1, n):
        assert abs(angles[i] - angles[i - 1] - 2 * math.pi / n) < 1e-10


def test_wilkinson_style_clustering():
    # (z-1)(z-2)...(z-12): notoriously ill conditioned in float arithmetic
    f = IntPoly.make([1])
    for k in range(1, 13):
        f = f * IntPoly.make([-k, 1])
    roots = certified_roots(f)
    got = sorted(z.real for z, _ in roots)
    for k, z in enumerate(got, start=1):
        assert abs(z - k) < 1e-11


def test_zero_root_is_exact():
    roots = certified_roots(IntPoly.make([0, -2, 1]))
    zs = sorted(roots, key=lambda t: abs(t[0]))
    assert zs[0][0] == 0 and zs[0][1] == 0.0
    assert abs(zs[1][0] - 2) < 1e-13


def test_double_zero_rejected():
    with pytest.raises(DomainError):
        certified_roots(IntPoly.make([0, 0, 1]))


def test_linear_is_exact():
    ((z, rad),) = certified_roots(IntPoly.make([-3, 2]))
    assert z == 1.5 and rad < 1e-14


def test_residual_bound_random_polys():
    rng = random.Random(2024)
    for _ in range(30):
        d = rng.randint(2, 25)
        coeffs = [rng.randint(-50, 50) for _ in range(d)] + [rng.randint(1, 50)]
        f = IntPoly.make(coeffs)
        parts = squarefree_decomposition(f)
        if len(parts) != 1 or parts[0][1] != 1:
            continue  # skip the rare non-squarefree draw
        roots = certified_roots(f, tol=1e-12)
        assert len(roots) == f.degree
        # disks are pairwise disjoint and small
        pts = [z for z, _ in roots]
        for i in range(len(pts)):
            zi, ri = roots[i]
            assert ri < 1e-12
            for j in range(i + 1, len(pts)):
                zj, rj = roots[j]
                assert abs(zi - zj) > ri + rj


def test_iterated_quadratic_certifies():
    # (z^2+1)^2+1 squared twice more: degree 16, coefficients grow fast
    f = IntPoly.make([1, 0, 1])
    for _ in range(3):
        f = (f * f).add_scalar(1)
    roots = certified_roots(f)
    assert len(roots) == 16
    for z, rad in roots:
        assert rad < 1e-13
        val = _poly_value(f.coeffs, z)
        # residual small relative to the derivative scale
        assert abs(val) < 1e-6


def test_arch_support_multiplicities():
    # (z^2-2)^2 (z-1), plus infinity
    f = IntPoly.make([-2, 0, 1])
    g = IntPoly.make([-1, 1])
    Z = divisor_from_poly(list((f * f * g).coeffs), inf_mult=3)
    pts = arch_support(Z)
    mults = sorted(m for _, _, m in pts)
    assert mults == [1, 2, 2]
    assert sum(m for _, _, m in pts) + Z.inf_mult == Z.degree


def test_degree_cap_refused():
    with pytest.raises(DomainError):
        certified_roots(IntPoly.make([-1] + [0] * 600 + [1]))


def test_disks_contain_polyroots_random():
    rng = random.Random(60)
    checked = 0
    while checked < 12:
        d = rng.randint(2, 25)
        coeffs = [rng.randint(-50, 50) for _ in range(d)] + [rng.randint(1, 50)]
        f = IntPoly.make(coeffs)
        parts = squarefree_decomposition(f)
        if len(parts) != 1 or parts[0][1] != 1:
            continue
        with mpmath.workdps(60):
            oracle = mpmath.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=120)
        assert_disks_hold_roots(f, certified_roots(f), oracle)
        checked += 1


def test_disks_contain_unit_roots():
    # 60-digit closed form; polyroots at degree 64 alone takes about 5 s
    for n in range(1, 65):
        f = IntPoly.make([-1] + [0] * (n - 1) + [1])
        with mpmath.workdps(60):
            oracle = [mpmath.expjpi(mpmath.mpf(2 * k) / n) for k in range(n)]
        assert_disks_hold_roots(f, certified_roots(f), oracle)


def test_disks_contain_chebyshev_preimages():
    # the n-fold iterate of z^2 - 2 has roots 2 cos((2k+1) pi / 2^(n+1))
    f = IntPoly.make([-2, 0, 1])
    for n in range(1, 6):
        with mpmath.workdps(60):
            oracle = [2 * mpmath.cospi(mpmath.mpf(2 * k + 1) / 2 ** (n + 1))
                      for k in range(2 ** n)]
        assert_disks_hold_roots(f, certified_roots(f), oracle)
        f = (f * f).add_scalar(-2)


def test_large_roots_refused():
    # roots near +-10^4: a double centre is up to 9e-13 from the root, and
    # the certified radius 2|f/f'| is above tol, so no disk is returned
    with pytest.raises(DomainError):
        certified_roots(IntPoly.make([-(10 ** 8 + 1), 0, 1]))


def test_cache_key_ignores_how_tol_is_passed():
    f = IntPoly.make([101, -17, 0, 1])
    before = certified_roots.cache_info()
    a = certified_roots(f)
    b = certified_roots(f, 1e-13)
    c = certified_roots(f, tol=1e-13)
    after = certified_roots.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 2
    assert a is b is c


def _dense(rng, d, lc=50):
    # as the dense_arch workload draws them: lc 50, the rest in [-50, 50],
    # f(0) != 0, squarefree
    while True:
        cs = [rng.randint(-50, 50) for _ in range(d)] + [lc]
        parts = squarefree_decomposition(IntPoly.make(cs))
        if cs[0] and len(parts) == 1 and parts[0][1] == 1:
            return cs


def _exact_value(cs, z):
    # sum cs[j] z^j at the double z, as a Gaussian rational (re, im)
    x, y = Fraction(z.real), Fraction(z.imag)
    re = im = Fraction(0)
    for a in reversed(cs):
        re, im = re * x - im * y + a, re * y + im * x
    return re, im


def _derivative(cs):
    return [j * c for j, c in enumerate(cs)][1:]


def _product(*factors):
    f = IntPoly.make([1])
    for g in factors:
        f = f * IntPoly.make(g)
    return list(f.coeffs)


def test_disjointness_needs_a_rounding_margin():
    # |zi - zj| rounds in the subtraction and in hypot: a float distance one
    # ulp above ri + rj does not show the disks apart
    zj = complex(1.0, 1.0)
    r = math.nextafter(abs(zj), 0.0) / 2
    with pytest.raises(DomainError):
        roots._disjoint([(0j, r), (zj, r)])
    roots._disjoint([(0j, 0.7), (zj, 0.7)])


def test_compensated_horner_bound_holds():
    # the exact values of f and f' at seeded doubles, near the roots of
    # products built for cancellation and out to the range guard, lie within
    # the stated errs; near the roots the error passes u |f^| many times
    # over, so only the second-order term covers it there
    rng = random.Random(24)
    widest = 0.0
    for cs in (_product(*[[-1, 1]] * 16),
               _product(*[[-k, 1] for k in range(1, 16)]),
               _product(*[[1, 0, 1]] * 8),
               _product(*[[-3, 2]] * 6, *[[5, 0, 2]] * 3)):
        # the guard's radius: the R with p~(R) = 2^900, by bisection
        lo, hi = 1.0, 2.0 ** 900
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            tilde = sum(abs(c) * mpmath.mpf(mid) ** j for j, c in enumerate(cs))
            lo, hi = (mid, hi) if tilde <= 2 ** 900 else (lo, mid)
        zs = [complex(r) + complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10.0 ** rng.uniform(-12, -2)
              for r in np.roots(cs[::-1]) for _ in range(3)]
        zs += [cmath.rect(lo * 2.0 ** -rng.uniform(0, 40), rng.uniform(-math.pi, math.pi))
               for _ in range(8)]
        zs += [complex(-lo, 0.0) * (1 - 2.0 ** -20), complex(0.0, lo) * (1 - 2.0 ** -20)]
        vals, errs = roots._comp_horner(roots._columns(cs), np.array(zs))
        for pcs, row, err in zip((cs, _derivative(cs)), vals, errs):
            for z, v, e in zip(zs, row.tolist(), err.tolist()):
                assert math.isfinite(e), z
                re, im = _exact_value(pcs, z)
                gap = (re - Fraction(v.real)) ** 2 + (im - Fraction(v.imag)) ** 2
                assert gap <= Fraction(e) ** 2, (cs, z)
                if v:
                    size = Fraction(v.real) ** 2 + Fraction(v.imag) ** 2
                    widest = max(widest, float(gap * 2 ** 106 / size))
        beyond = np.array([complex(2 * hi, 0.0), complex(0.0, -2 * hi)])
        assert np.isinf(roots._comp_horner(roots._columns(cs), beyond)[1]).all()
    assert widest > 10 ** 2


def test_compensated_horner_guards_tiny_partials():
    # z^40 + 1 at z = 2^-30: the Horner partials z^k fall below 2^-480, where
    # a TwoProduct's error term could underflow, so the err is inf
    cs = [1] + [0] * 39 + [1]
    vals, errs = roots._comp_horner(roots._columns(cs), np.array([2.0 ** -30 + 0j, 0.5 + 0.5j]))
    assert math.isinf(errs[0, 0]) and math.isfinite(errs[0, 1])


def test_numpy_rung_radius_is_the_henrici_bound():
    # each radius the numpy rung returns is at least d |f/f'| at its centre,
    # exactly, and within 2^-20 of it: the err terms add about 1e-8 here
    cs = _dense(random.Random(64), 64)
    d = len(cs) - 1
    for z, rad in certified_roots(IntPoly.make(cs)):
        fr, fi = _exact_value(cs, z)
        gr, gi = _exact_value(_derivative(cs), z)
        henrici = d * d * (fr * fr + fi * fi) / (gr * gr + gi * gi)
        assert henrici <= Fraction(rad) ** 2 <= henrici * (1 + Fraction(1, 2 ** 20))


@pytest.mark.parametrize("case", ["dense:64", "dense:96", "dense:192", "pow:127"])
def test_numpy_rung_disks_hold_roots(case):
    # above the crossover, no symmetric recursion: 60-digit findroot from
    # each centre in the closed upper half plane, with the conjugates (the
    # coefficients are real), pairwise distinct, so the oracle set is every root
    kind, d = case.split(":")
    d = int(d)
    cs = _dense(random.Random(d), d) if kind == "dense" else [-2] + [0] * (d - 1) + [1]
    f = IntPoly.make(cs)
    disks = certified_roots(f)
    with mpmath.workdps(60):
        desc = [mpmath.mpf(c) for c in reversed(cs)]
        upper = [mpmath.findroot(lambda x: mpmath.polyval(desc, x), mpmath.mpc(z.real, z.imag))
                 for z, _ in disks if z.imag >= 0]
        oracle = upper + [mpmath.conj(r) for r in upper if r.imag]
        assert len(oracle) == d
        assert min(abs(a - b) for i, a in enumerate(oracle) for b in oracle[i + 1:]) > 1e-40
    assert_disks_hold_roots(f, disks, oracle)


def _disks_digest(disks):
    return hashlib.sha256(repr([(z.real, z.imag, r) for z, r in disks]).encode()).hexdigest()


def test_rung_selection(monkeypatch):
    # a dense input above the crossover never takes the exact evaluation;
    # one below it, a symmetric recursion (z^256 - 1, the depth-7 preimage of
    # z^2 - 2) and a coefficient above 2^53 take only the exact rung, and
    # their disks are pinned to what that rung alone returned (x86-64,
    # CPython 3.11)
    calls = []
    exact = roots._ratio
    monkeypatch.setattr(roots, "_ratio", lambda *a: calls.append(a) or exact(*a))
    certify = roots._certified_roots.__wrapped__  # past the cache
    assert len(certify(IntPoly.make(_dense(random.Random(96), 96)), 1e-13)) == 96
    assert not calls
    cheb = IntPoly.make([-2, 0, 1])
    for _ in range(6):
        cheb = (cheb * cheb).add_scalar(-2)
    rng = random.Random(64)
    big = [rng.randint(-50, 50) for _ in range(64)] + [50]
    big[0] = 2 ** 60 + 1
    rng = random.Random(8)
    for f, digest in (
            (IntPoly.make([rng.randint(-50, 50) for _ in range(8)] + [50]),
             "06a5c3adf04bd13c5a35bddad027f3023149f82b812f64dc7eb344005dd08e47"),
            (IntPoly.make([-1] + [0] * 255 + [1]),
             "afa08ce9bdf8da0788b0c91dac58a6f5d28ed8305e4c17af0b096b1402bf51b1"),
            (cheb, "00ee21d4fb00082eb4bf94443c305e531474a2bd063ea132a5e1f1b04569f1cf"),
            (IntPoly.make(big), "af731c7937fa46d59ace3690bdf38b032c22fff308510215808530e42776556c")):
        del calls[:]
        assert _disks_digest(certify(f, 1e-13)) == digest
        assert len(calls) >= f.degree
    with pytest.raises(DomainError):
        certify(IntPoly.make([-(10 ** 8 + 1), 0, 1]), 1e-13)
