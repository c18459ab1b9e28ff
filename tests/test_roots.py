import cmath
import hashlib
import inspect
import math
import random
import sys
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
    return _gauss_value(cs, _gauss(z))


def _derivative(cs):
    return [j * c for j, c in enumerate(cs)][1:]


def _columns(cs):
    # the columns _comp_horner takes: the coefficients of cs and of its
    # derivative, degree descending
    return np.array([list(cs)[::-1], [0] + _derivative(cs)[::-1]], dtype=float).T


def _word(zs, lows=None):
    # the complex doubles zs as double words (hi, lo), (2, m) arrays of real
    # and imaginary parts, lo 0 or the complex doubles lows
    lows = np.zeros_like(zs) if lows is None else lows
    return np.array([zs.real, zs.imag]), np.array([lows.real, lows.imag])


def _word_point(U, i):
    # the i-th double word of U, hi + lo exactly, as a Gaussian rational
    (hi, lo) = U
    return Fraction(hi[0, i]) + Fraction(lo[0, i]), Fraction(hi[1, i]) + Fraction(lo[1, i])


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
    # the exact values of f and f' lie within the stated errs: at seeded
    # doubles near the roots of products built for cancellation and of
    # z^16 + 1, whose f'' is not small there, and out to the range guard;
    # at the double words hi + lo with the same hi and a seeded lo; and,
    # near the roots, at points 2^-40 |z| from hi + lo along (3, 4)/5
    # turned by k pi/2, on the disk D.  Near the roots the error passes
    # u |f^| many times over, so only the second-order term covers it, f'
    # lo, which a step without its s lo term would miss, is above it, and
    # on the disk only the disk term covers the distance
    rng = random.Random(24)
    widest = 0.0
    for cs in (_product(*[[-1, 1]] * 16),
               _product(*[[-k, 1] for k in range(1, 16)]),
               _product(*[[1, 0, 1]] * 8),
               _product(*[[-3, 2]] * 6, *[[5, 0, 2]] * 3),
               [1] + [0] * 15 + [1]):
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
        zs = np.array(zs)
        turn = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in zs])
        lows = (zs.real * turn.real + 1j * zs.imag * turn.imag) * 2.0 ** -54
        disk = np.where(np.abs(zs) < 100, 2.0 ** -40 * np.abs(zs), 0.0)
        for U, D in ((_word(zs), 0 * disk), (_word(zs, lows), 0 * disk), (_word(zs, lows), disk)):
            vals, errs = roots._comp_horner(_columns(cs), U, D)
            for pcs, row, err in zip((cs, _derivative(cs)), vals, errs):
                for i, (v, e) in enumerate(zip(row.tolist(), err.tolist())):
                    assert math.isfinite(e), zs[i]
                    c, s = [(3, 4), (-4, 3), (-3, -4), (4, -3)][i % 4]
                    (x, y), off = _word_point(U, i), Fraction(D[i]) / 5
                    re, im = _gauss_value(pcs, (x + c * off, y + s * off))
                    gap = (re - Fraction(v.real)) ** 2 + (im - Fraction(v.imag)) ** 2
                    assert gap <= Fraction(e) ** 2, (cs, zs[i])
                    if v:
                        size = Fraction(v.real) ** 2 + Fraction(v.imag) ** 2
                        widest = max(widest, float(gap * 2 ** 106 / size))
        beyond = np.array([complex(2 * hi, 0.0), complex(0.0, -2 * hi)])
        assert np.isinf(roots._comp_horner(_columns(cs), _word(beyond), np.zeros(2))[1]).all()
    assert widest > 10 ** 2


def test_compensated_horner_guards_tiny_partials():
    # z^40 + 1 at z = 2^-30: the Horner partials z^k fall below 2^-480, where
    # a TwoProduct's error term could underflow, so the err is inf
    cs = [1] + [0] * 39 + [1]
    zs = np.array([2.0 ** -30 + 0j, 0.5 + 0.5j])
    vals, errs = roots._comp_horner(_columns(cs), _word(zs), np.zeros(2))
    assert math.isinf(errs[0, 0]) and math.isfinite(errs[0, 1])


def _gauss(x):
    # the double x as a Gaussian rational (re, im)
    return Fraction(x.real), Fraction(x.imag)


def _gauss_square(w):
    return w[0] * w[0] - w[1] * w[1], 2 * w[0] * w[1]


def _gauss_value(cs, v):
    # sum cs[j] v^j at the Gaussian rational v
    re = im = Fraction(0)
    for a in reversed(cs):
        re, im = re * v[0] - im * v[1] + a, re * v[1] + im * v[0]
    return re, im


def _within(exact, parts, err):
    # |exact - sum of parts| <= err, exactly, for complex doubles parts
    re = exact[0] - sum(Fraction(x.real) for x in parts)
    im = exact[1] - sum(Fraction(x.imag) for x in parts)
    return re * re + im * im <= Fraction(err) ** 2


def _column(pairs, i):
    # the i-th complex double of each (2, m) array of real and imaginary parts
    return [complex(a[0, i], a[1, i]) for a in pairs]


@pytest.mark.parametrize("q,p", [(1, 0), (1, 2), (3, -1), (12, -7)])
def test_chain_level_bounds_hold(q, p):
    # one level of _levels from renormalized double words hi + lo at
    # distance 0 or D from the exact u, along (3, 4)/5 turned by k pi/2: the
    # exact w = q u - p and w^2 lie within e_w and the new D of the pairs
    # returned.  At distance 0 only the rounding terms cover them (w = u
    # exactly at (1, 0), so D holds the square's alone), past it the
    # propagated q D and 2 |w| e_w + e_w^2
    rng = random.Random(100 * q + p)
    m = 24
    hi = np.array([[rng.uniform(-2.0, 2.0) for _ in range(m)] for _ in range(2)])
    lo = hi * np.array([[rng.uniform(-0.5, 0.5) * 2.0 ** -53 for _ in range(m)] for _ in range(2)])
    turns = [(3, 4), (-4, 3), (-3, -4), (4, -3)]
    for dist in (0.0, 2.0 ** -60):
        D = dist * np.hypot(*hi)
        (wh, wl), ew, (uh, ul), D2 = roots._level(q, p, (hi, lo), D)
        for i in range(m):
            c, s = turns[i % 4]
            off = Fraction(D[i]) / 5
            u = (Fraction(hi[0, i]) + Fraction(lo[0, i]) + c * off,
                 Fraction(hi[1, i]) + Fraction(lo[1, i]) + s * off)
            w = (q * u[0] - p, q * u[1])
            assert _within(w, _column((wh, wl), i), ew[i])
            assert _within(_gauss_square(w), _column((uh, ul), i), D2[i])


def test_compensated_powers_hold_their_bound():
    # v^k by _dw_powers within 42 (k - 1) u^2 |v|^k of the exact power, at
    # seeded double words v = hi + lo about the unit circle, lo 0 or not,
    # and for runs up to the cap; a power whose squarings, or only its last
    # product, leave the TwoProducts' range is not in range
    rng = random.Random(42)
    ks = [2, 3, 7, 64, 126, 255, 511]
    zs = np.array([cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-math.pi, math.pi))
                   for _ in range(6)])
    U = _word(zs, np.array([0j] * 3 + [z * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                       * 2.0 ** -55 for z in zs[3:]]))
    assert U[1][:, 3:].all()
    powers, ok = roots._dw_powers(U, ks)
    assert ok.all()
    for k in ks:
        hi, lo = powers[k]
        for i in range(len(zs)):
            exact = (Fraction(1), Fraction(0))
            x, n = _word_point(U, i), k
            while n:
                if n & 1:
                    exact = (exact[0] * x[0] - exact[1] * x[1], exact[0] * x[1] + exact[1] * x[0])
                x, n = _gauss_square(x), n >> 1
            size = math.sqrt(float(exact[0] ** 2 + exact[1] ** 2))
            assert _within(exact, _column((hi, lo), i), 42 * (k - 1) * 2.0 ** -106 * size)
    with np.errstate(all="ignore"):
        for zs, k in (([2.0 ** -30 + 0j, 2.0 ** 30 + 0j], 39), ([2.0 ** -8 + 0j, 2.0 ** 15 + 0j], 63)):
            assert not roots._dw_powers(_word(np.array(zs)), [k])[1].any()


def test_levels_guard_their_range():
    # z = 2^-520 is below the TwoProducts' range, so z^2 loses its error
    # term, though w = z^2 + 1 and its square are in range: the bound is inf
    _, D, _ = roots._levels([(1, 0), (1, -1)], np.array([2.0 ** -520 + 0j, 0.5 + 0j]))
    assert math.isinf(D[0]) and math.isfinite(D[1])


def test_numpy_rung_values_hold_their_bounds():
    # the numpy rung's b and b' at u_L, _levels then _comp_horner as
    # _horner_ratio calls them, lie within e_b and e_b' of their exact
    # values b(u_L), b'(u_L), u_L taken exactly along the chain, at centres
    # near the roots of chained, sparse and Mignotte inputs and at points
    # off them; the lower bounds of the |w_l| hold, and the radius is at
    # least d |f/f'|, f/f' = b(u_L) / (b'(u_L) prod 2 q_l w_l).  Near a root
    # u |b^| is far below the error that evaluating b at the hi of u_L's
    # double word, not at hi + lo, makes, and that a step would make
    # without its s lo term: only the disk terms and the compensated power
    # cover them
    rng = random.Random(7)
    for f in (IntPoly.make([-1] + [0] * 511 + [1]), IntPoly.make([-2] + [0] * 126 + [1]),
              IntPoly.make([-2] + [0] * 123 + [1]), IntPoly.make([-2, 8, -8] + [0] * 83 + [1]),
              _preimage(5), _preimage(6), _preimage(7), _preimage(8)):
        chain, base = roots._chain(f.coeffs)
        d = f.degree
        centres = [z for z, _ in certified_roots(f)][::max(1, d // 8)]
        zs = np.array(centres + [z + cmath.rect(abs(z) * 10.0 ** rng.uniform(-15, -3),
                                                rng.uniform(0, 7)) for z in centres])
        A = _columns(base)
        U, D, ws = roots._levels(chain, zs)
        (b, bp), (eb, ebp) = roots._comp_horner(A, U, D)
        _, rads = roots._horner_ratio(chain, A, math.inf, zs)
        for i, z in enumerate(zs.tolist()):
            v, prod = _gauss(z), Fraction(1)
            for (q, p), (w_, low) in zip(chain, ws):
                w = (q * v[0] - p, q * v[1])
                size = w[0] * w[0] + w[1] * w[1]
                assert size >= Fraction(max(low[i], 0.0)) ** 2
                prod *= 4 * q * q * size
                v = _gauss_square(w)
            fv, gv = _gauss_value(base, v), _gauss_value(_derivative(base), v)
            assert _within(fv, [b[i]], eb[i]) and _within(gv, [bp[i]], ebp[i]), (f, z)
            fsize, gsize = fv[0] ** 2 + fv[1] ** 2, gv[0] ** 2 + gv[1] ** 2
            assert d * d * fsize <= Fraction(rads[i]) ** 2 * gsize * prod


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


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(roots, name)
    monkeypatch.setattr(roots, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def _count_numpy_roots(monkeypatch):
    degrees = []
    fn = np.roots
    monkeypatch.setattr(np, "roots", lambda p: degrees.append(len(p) - 1) or fn(p))
    return degrees


def _upper_half_oracle(cs, disks):
    # 60-digit findroot from each centre in the closed upper half plane, with
    # the conjugates (the coefficients are real), pairwise distinct, so the
    # oracle set is every root
    with mpmath.workdps(60):
        desc = [mpmath.mpf(c) for c in reversed(cs)]
        upper = [mpmath.findroot(lambda x: mpmath.polyval(desc, x), mpmath.mpc(z.real, z.imag))
                 for z, _ in disks if z.imag >= 0]
        oracle = upper + [mpmath.conj(r) for r in upper if r.imag]
        assert len(oracle) == len(cs) - 1
        assert min(abs(a - b) for i, a in enumerate(oracle) for b in oracle[i + 1:]) > 1e-40
    return oracle


@pytest.mark.parametrize("case", ["dense:64", "dense:96", "dense:192", "pow:127",
                                  "pow:48:3", "pow:61", "pow:122", "pow:124:5"])
def test_numpy_rung_disks_hold_roots(case):
    # above the crossover: dense inputs, and z^n - a through the chain (n
    # even) or alone (n odd), its base from Bini's circle; the oracle is
    # findroot's, or a^(1/n) e^(2 pi i k/n) at 60 digits
    kind, d, *a = case.split(":")
    d, a = int(d), int(a[0]) if a else 2
    cs = _dense(random.Random(d), d) if kind == "dense" else [-a] + [0] * (d - 1) + [1]
    f = IntPoly.make(cs)
    disks = certified_roots(f)
    if kind == "dense":
        oracle = _upper_half_oracle(cs, disks)
    else:
        with mpmath.workdps(60):
            r = mpmath.root(a, d)
            oracle = [r * mpmath.expjpi(mpmath.mpf(2 * k) / d) for k in range(d)]
    assert_disks_hold_roots(f, disks, oracle)


def test_chained_radii_are_second_order_in_the_levels():
    # z^122 - 2 is the base u^61 - 2 over one level u = z^2, evaluated at
    # u's double word hi + lo: the error of the levels enters the radii only
    # by the disk term 2 D b~'(R), D of order u^2, so they sum below 6e-13
    # (a first-order term |lo| in the disk would double them, to 1.07e-12);
    # test_numpy_rung_disks_hold_roots[pow:122] checks the disks
    disks = roots._certified_roots.__wrapped__(IntPoly.make([-2] + [0] * 121 + [1]), 1e-13)
    assert sum(r for _, r in disks) < 6e-13


def _disks_digest(disks):
    return hashlib.sha256(repr([(z.real, z.imag, r) for z, r in disks]).encode()).hexdigest()


def _centres_digest(disks):
    return hashlib.sha256(repr([(z.real, z.imag) for z, _ in disks]).encode()).hexdigest()


def test_rung_selection(monkeypatch):
    # a dense input of degree 96, z^256 - 1 and the depth-7 preimage of
    # z^2 - 2 (coefficients past 2^53, its chain constants and base u - 2
    # not) never take the exact evaluation, and estimate their roots by
    # numpy.roots only on a base below _BINI_MIN_DEGREE (z - 1, u - 2); the
    # centres of the last two are pinned to what the exact rung returned
    # before the numpy rung took them (their radii are the numpy rung's,
    # from float operations).  An input below the crossover and a
    # coefficient above 2^53 take only the exact rung, and their disks are
    # pinned to what it returned (x86-64, CPython 3.11)
    calls = _count_calls(monkeypatch, "_ratio")
    eig = _count_numpy_roots(monkeypatch)
    certify = roots._certified_roots.__wrapped__  # past the cache
    assert len(certify(IntPoly.make(_dense(random.Random(96), 96)), 1e-13)) == 96
    assert not calls and not eig
    unit = IntPoly.make([-1] + [0] * 255 + [1])
    disks = certify(unit, 1e-13)
    assert not calls and eig == [1]
    assert _centres_digest(disks) == "3b7959f55da5e10f6f1a7747c673c6e8a667b6f79a59bb6ec27a37551ed093cf"
    with mpmath.workdps(60):
        oracle = [mpmath.expjpi(mpmath.mpf(2 * k) / 256) for k in range(256)]
    assert_disks_hold_roots(unit, disks, oracle)
    cheb = _preimage(7)
    assert max(map(abs, cheb.coeffs)) > 2 ** 53
    disks = certify(cheb, 1e-13)
    assert not calls and eig == [1, 1]
    assert _centres_digest(disks) == "8c1691295160fb31cf7ca1206e9a0b7161a463d70f2df54156f0d6247b455cee"
    with mpmath.workdps(60):
        oracle = [2 * mpmath.cospi(mpmath.mpf(2 * k + 1) / 256) for k in range(128)]
    assert_disks_hold_roots(cheb, disks, oracle)
    rng = random.Random(64)
    big = [rng.randint(-50, 50) for _ in range(64)] + [50]
    big[0] = 2 ** 60 + 1
    rng = random.Random(8)
    for f, digest in (
            (IntPoly.make([rng.randint(-50, 50) for _ in range(8)] + [50]),
             "06a5c3adf04bd13c5a35bddad027f3023149f82b812f64dc7eb344005dd08e47"),
            (IntPoly.make(big), "af731c7937fa46d59ace3690bdf38b032c22fff308510215808530e42776556c")):
        del calls[:]
        assert _disks_digest(certify(f, 1e-13)) == digest
        assert len(calls) >= f.degree
    with pytest.raises(DomainError):
        certify(IntPoly.make([-(10 ** 8 + 1), 0, 1]), 1e-13)


def _preimage(depth):
    f = IntPoly.make([-2, 0, 1])
    for _ in range(depth - 1):
        f = (f * f).add_scalar(-2)
    return f


def _routing(monkeypatch, f, starts=None):
    # certify f past the cache; the numpy rung's sweeps, those whose
    # evaluator is _horner_ratio, as (estimates, centres, radii) before and
    # after, copied as _sweep moves them in place, and the exact rung's
    # points, with the estimates replaced by starts if given
    sweeps, sweep = [], roots._sweep

    def record(pts, rads, todo, ratio):
        before = pts.copy()
        sweep(pts, rads, todo, ratio)
        if ratio.func is roots._horner_ratio:
            sweeps.append((before, pts.copy(), rads.copy()))

    monkeypatch.setattr(roots, "_sweep", record)
    calls = _count_calls(monkeypatch, "_ratio")
    if starts is not None:
        monkeypatch.setattr(roots, "_starts", lambda base, chained: np.array(starts))
    disks = roots._certified_roots.__wrapped__(f, 1e-13)
    return disks, sweeps, [z for z, *_ in calls]


def _assert_routed(sweeps, points, certified, handed):
    # the numpy sweep certifies `certified` centres and stops the other
    # `handed` unmoved, the a priori term putting their radii out of reach;
    # the exact rung's first evaluation of each is at its estimate exactly
    (before, after, rads), = sweeps
    done = rads < 1e-13
    assert done.sum() == certified and len(done) - done.sum() == handed
    assert (after[~done] == before[~done]).all()
    assert points[:handed] == before[~done].tolist()


def test_numpy_rung_routes_each_centre(monkeypatch):
    # the depth-6 preimage of z^2 - 2 is evaluated along its chain, six
    # levels with constants 0 and 2 over the base u - 2, so no a priori term
    # grows with its coefficients (near 2^42): the sweep certifies all 64
    # centres from the lifted estimates, and none takes the exact rung
    f = _preimage(6)
    assert roots._chain(f.coeffs) == ([(1, 0)] + [(1, 2)] * 5, (-2, 1))
    disks, sweeps, points = _routing(monkeypatch, f)
    _assert_routed(sweeps, points, 64, 0)
    with mpmath.workdps(60):
        oracle = [2 * mpmath.cospi(mpmath.mpf(2 * k + 1) / 128) for k in range(64)]
    assert_disks_hold_roots(f, disks, oracle)


def test_numpy_rung_routes_a_close_pair(monkeypatch):
    # z^86 - 2 (2z - 1)^2, no chain, has two roots 8.0e-14 apart about 1/2
    # (Mignotte), where |f'| is so small that the a priori term is out of
    # reach; from estimates at its roots the sweep certifies the other 84,
    # and only the pair takes the exact rung
    cs = [-2, 8, -8] + [0] * 83 + [1]
    f = IntPoly.make(cs)
    disks = certified_roots(f)
    oracle = _upper_half_oracle(cs, disks)
    disks, sweeps, points = _routing(monkeypatch, f, [complex(r) for r in oracle])
    _assert_routed(sweeps, points, 84, 2)
    assert all(abs(z - 0.5) < 1e-12 for z in points)
    assert_disks_hold_roots(f, disks, oracle)


@pytest.mark.parametrize("n,c,a,handed", [(34, 3, 4, False), (40, 3, 4, True), (80, 2, 2, True)])
def test_numpy_rung_handoff(monkeypatch, n, c, a, handed):
    # z^n - c (a z - 1)^2 has two roots about 2 a^(-n/2 - 1)/sqrt(c) apart
    # near 1/a (Mignotte): the sweeps there still move after _STEPS
    # steps, so the last allowed sweep's radii are kept, and at the closer
    # pairs they are not below tol, so the pair, and only the pair, is
    # handed to the exact rung
    comps = _count_calls(monkeypatch, "_comp_horner")
    cs = [-c, 2 * c * a, -c * a * a] + [0] * (n - 3) + [1]
    f = IntPoly.make(cs)
    disks, sweeps, points = _routing(monkeypatch, f)
    assert len(sweeps) == 1 and len(comps) == roots._STEPS + 1
    assert bool(points) == handed and len(points) <= 2 * (roots._STEPS + 1)
    assert all(abs(z - 1 / a) < 1e-6 for z in points)
    assert_disks_hold_roots(f, disks, _upper_half_oracle(cs, disks))
    _assert_henrici(cs, disks)


def _assert_henrici(cs, disks):
    # each radius is at least Henrici's d |f/f'| at its centre, exactly
    d = len(cs) - 1
    for z, rad in disks:
        fr, fi = _exact_value(cs, z)
        gr, gi = _exact_value(_derivative(cs), z)
        assert d * d * (fr * fr + fi * fi) <= Fraction(rad) ** 2 * (gr * gr + gi * gi)


@pytest.mark.parametrize("n,c,a", [(21, 1, 9), (22, 3, 8)])
def test_exact_rung_certifies_a_close_pair(monkeypatch, n, c, a):
    # z^n - c (a z - 1)^2 below the numpy rung's degree: its roots about
    # 2 a^(-n/2 - 1)/sqrt(c) apart near 1/a (2e-11 here) are certified by
    # the exact rung alone, its sweep moving both at once
    comps = _count_calls(monkeypatch, "_comp_horner")
    cs = [-c, 2 * c * a, -c * a * a] + [0] * (n - 3) + [1]
    f = IntPoly.make(cs)
    disks = roots._certified_roots.__wrapped__(f, 1e-13)
    assert not comps
    assert_disks_hold_roots(f, disks, _upper_half_oracle(cs, disks))
    _assert_henrici(cs, disks)


@pytest.mark.parametrize("g", [[4, 5, -5, 8, -3, -5, -5, 5, -9, 4, -5, -1, -1, -2, 4, -3, 9],
                               [17, -2, 1, -2, 1, -3, 4, -1, 1, -9, 0, 0, -9, 7, -1, -5,
                                -3, 2, 2]])
def test_zero_root_on_a_chain(g):
    # f = g((3z + 1)^2) with g(1) = 0: its roots 0 and -2/3 pair up about
    # -1/3 like all the others, so f is certified on its chain and the
    # centre at 0 comes out exact.  f/z has no chain: from its full-degree
    # estimates _STEPS steps a centre do not certify the first input, nor
    # the second once all its centres move at once
    s = IntPoly.make([1, 6, 9])
    f = IntPoly.make([g[-1]])
    for c in reversed(g[:-1]):
        f = (f * s).add_scalar(c)
    assert sum(g) == 0 and roots._chain(f.coeffs)[0] == [(3, -1)]
    assert not roots._chain(f.coeffs[1:])[0]
    disks = roots._certified_roots.__wrapped__(f, 1e-13)
    assert 0j in [z for z, _ in disks]
    with mpmath.workdps(60):
        ts = mpmath.polyroots([mpmath.mpf(c) for c in reversed(g)], maxsteps=200, extraprec=200)
        oracle = [(e * mpmath.sqrt(t) - 1) / 3 for t in ts for e in (1, -1)]
    assert_disks_hold_roots(f, disks, oracle)


@pytest.mark.parametrize("factors", [[], [[-2, 1]], [[-2] + [0] * 23 + [1], [-2, 1]]])
def test_coefficients_past_binary64(factors):
    # (3^700 z - 3^700 - 1) times factors: coefficients past 2^1024, which
    # have no double, so the numpy rung takes nothing, and the quadratic's
    # chain level, centred at (3^701 + 1) / (2 3^700), is left in the base
    t = 3 ** 700
    f = IntPoly.make([-(t + 1), t])
    for g in factors:
        f = f * IntPoly.make(g)
    assert max(map(abs, f.coeffs)) > 2 ** 1024
    disks = roots._certified_roots.__wrapped__(f, 1e-13)
    with mpmath.workdps(60):
        oracle = [mpmath.mpf(t + 1) / t]
        if factors:
            oracle.append(mpmath.mpf(2))
        if len(factors) > 1:
            r = mpmath.root(2, 24)
            oracle += [r * mpmath.expjpi(mpmath.mpf(2 * k) / 24) for k in range(24)]
    assert_disks_hold_roots(f, disks, oracle)


def test_exact_rung_refuses_where_f_prime_vanishes(monkeypatch):
    # z^2 - 2 lifted from a base estimate 0 to two centres at 0.0, where f'
    # = 0: the exact evaluation returns inf for f/f' and the radius, and the
    # input is refused, never given a disk
    monkeypatch.setattr(roots, "_starts", lambda base, chained: np.array([0j]))
    got, fn = [], roots._ratio
    monkeypatch.setattr(roots, "_ratio", lambda *a: got.append(fn(*a)) or got[-1])
    with pytest.raises(DomainError):
        roots._certified_roots.__wrapped__(IntPoly.make([-2, 0, 1]), 1e-13)
    assert got == [(complex(math.inf), math.inf)] * 2


def test_chain_base_estimates_are_polished():
    # g(s^2), s = 36 (z + 1)^2 + 3, g of degree 57 with digits for
    # coefficients: a chain of two levels over the base g(9 u), whose
    # coefficients span 183 bits.  numpy.roots misses its roots by up to 14%,
    # and no level is refined on the way up, so 8 exact steps at the top do
    # not certify from those estimates; the Aberth sweeps polish them to
    # 1e-12, and the disks hold the roots
    g = [4, 3, 1, 3, 9, -4, 4, -2, 0, 2, -4, -4, -9, 1, 1, 9, -2, -8, 0, 4, 7, -6, -2, -7,
         -4, -3, 5, -8, -5, -3, -1, 4, 2, 1, -6, 1, -3, 1, -9, -2, 4, 6, 1, -9, 0, -2, 1, 0,
         -9, -7, 5, -7, -6, 8, 1, -6, -1, 4]
    s = IntPoly.make([39, 72, 36])
    f = IntPoly.make([g[-1]])
    for c in reversed(g[:-1]):
        f = (f * s * s).add_scalar(c)
    chain, base = roots._chain(f.coeffs)
    assert chain == [(1, -1), (12, -1)] and len(base) == 58
    with mpmath.workdps(60):  # base roots t/9, z = -1 +- sqrt((+-sqrt(t) - 3)/36), g(t) = 0
        desc = [mpmath.mpf(c) for c in reversed(g)]
        ts = [mpmath.findroot(lambda x: mpmath.polyval(desc, x), complex(t))
              for t in np.roots(desc)]
        oracle = [-1 + e * mpmath.sqrt((r - 3) / 36)
                  for t in ts for r in (mpmath.sqrt(t), -mpmath.sqrt(t)) for e in (1, -1)]
    miss = [min(abs(complex(t) / 9 - u) / abs(u) for u in roots._starts(base, chained))
            for chained in (False, True) for t in ts]
    assert max(miss[:57]) > 0.1 and max(miss[57:]) < 1e-12
    disks = roots._certified_roots.__wrapped__(f, 1e-13)
    assert_disks_hold_roots(f, disks, oracle)


def test_eig_refuses_where_numpy_roots_fails(monkeypatch):
    # numpy.roots raising LinAlgError (its eigenvalue iteration not
    # converging) is a refusal, not a crash: z^2 - 2's base z - 2 takes it
    def fail(p):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np, "roots", fail)
    with pytest.raises(DomainError, match="too far apart"):
        roots._certified_roots.__wrapped__(IntPoly.make([-2, 0, 1]), 1e-13)


def test_aberth_fallback_is_numpy_roots(monkeypatch):
    # Aberth sweeps that do not settle within their count give way to
    # numpy.roots, and the disks are certified from its estimates
    cs = _dense(random.Random(96), 96)
    a = np.array(cs, dtype=float)
    monkeypatch.setattr(roots, "_ABERTH_STEPS", 1)
    assert roots._aberth(a, roots._bini(a)) is None
    eig = _count_numpy_roots(monkeypatch)
    f = IntPoly.make(cs)
    disks = roots._certified_roots.__wrapped__(f, 1e-13)
    assert eig == [96]
    assert_disks_hold_roots(f, disks, _upper_half_oracle(cs, disks))


def _returns_ran(fn, *args):
    # fn(*args), and each return statement of fn that ran, with the line
    # before it, by a line tracer on fn's frames; a tracer already running
    # (a coverage run's) is put back after
    src, first = inspect.getsourcelines(fn)
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno - first)
        return local

    outer = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is fn.__code__ else None)
    try:
        out = fn(*args)
    finally:
        sys.settrace(outer)
    return out, [(src[k - 1].strip(), src[k].strip()) for k in sorted(ran)
                 if src[k].strip().startswith("return")]


def test_aberth_gives_up_on_a_zero_end_coefficient():
    out, ran = _returns_ran(roots._aberth, np.array([0.0, 1.0, 1.0]), np.array([1 + 1j, -1 + 0j]))
    assert out is None and ran == [("if not (a[0] and a[d]):", "return None")]


def test_aberth_gives_up_on_a_value_that_is_not_finite():
    # z^3 + 1 from a start at infinity: the first sweep's values are not
    # finite, and the sweeps stop there, not for want of steps
    start = np.array([complex(math.inf, 0.0), 1j, -1j])
    out, ran = _returns_ran(roots._aberth, np.array([1.0, 0.0, 0.0, 1.0]), start)
    assert out is None and len(ran) == 1
    guard, ret = ran[0]
    assert "isfinite" in guard and ret == "return None"


def test_exact_ratio_past_the_double_range_is_inf():
    # f = z + 3 2^1023 at z = 1: f/f' has no double, and _ratio returns inf
    # for it and the radius from the OverflowError
    out, ran = _returns_ran(roots._ratio, 1.0 + 0j, [], [(1, 1), (0, 3 << 1023)], [(0, 1)])
    assert out == (complex(math.inf), math.inf)
    assert ran[-1] == ("except OverflowError:", "return complex(math.inf), math.inf")


def test_abs_is_libm_hypot():
    # the numpy rung's moduli are libm's hypot, bit for bit the abs(complex)
    # of _disjoint and chordal_arch (math.hypot is CPython's own routine and
    # differs from both on a few inputs), and within 1 ulp of the exact
    # modulus, as _up_each and _down charge: on a seeded sample across scales
    rng = np.random.default_rng(53)
    z = (rng.standard_normal(20000) * 2.0 ** rng.integers(-60, 60, 20000)
         + 1j * rng.standard_normal(20000) * 2.0 ** rng.integers(-60, 60, 20000))
    got = roots._abs(z).tolist()
    assert all(g == abs(x) for g, x in zip(got, z.tolist()))
    for g, x in zip(got[:4000], z.tolist()):
        square = Fraction(x.real) ** 2 + Fraction(x.imag) ** 2
        ulp = Fraction(math.ulp(g))
        assert (Fraction(g) - ulp) ** 2 < square < (Fraction(g) + ulp) ** 2
