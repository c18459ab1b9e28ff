import cmath
import math
import random

import mpmath
import pytest

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
