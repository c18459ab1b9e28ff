"""Certified complex root isolation for integer polynomials.

One path takes every polynomial, in three steps:

- starts: a polynomial whose roots are symmetric about their mean p/q is a
  polynomial in (q z - p)^2, as iterated quadratics are at every level
  (_chain).  Splitting such levels off leaves a base polynomial.  A root at
  0 is taken out first only when f has no such level, so it breaks no
  chain; a level whose p or q is past 2^1000 stays in the base.  From
  base degree _BINI_MIN_DEGREE = 80 on the base's roots are estimated by
  Bini's start and plain complex128 Aberth sweeps, O(d^2) each
  (_aberth; Bini, Numer. Algorithms 13 (1996), Aberth, Math. Comp. 27
  (1973)); below it by numpy.roots, the companion matrix's eigenvalues,
  O(d^3) but the cheaper there (LAPACK's QR switches method above order
  75), and those are polished by the same sweeps when a chain is lifted
  from them.  numpy.roots is also the fallback if the sweeps do not settle.
  The estimates are lifted through the chain in floats, u -> (p +- sqrt u)/q;
- the numpy rung, for a polynomial of degree at least 24 whose chain
  constants and the coefficients of its base b and of b' are exact in
  binary64 (at most 2^53): f/f' at every centre still moving by structure,
  f/f' = b(u_L) / (b'(u_L) prod 2 q_l w_l), the levels w_l = q_l u_l - p_l,
  u_(l+1) = w_l^2 in double words with a running error bound D (_levels),
  then b and b' at u_L's double word by one compensated Horner pass in
  float64 arrays that crosses each run of zero coefficients with one
  compensated power, with a stated error bound over the disk of radius D
  about it, which holds u_L, so that D enters by 2 D b~'(R) alone, second
  order (_comp_horner, _horner_ratio; Graillat, Langlois & Louvet 2009,
  Graillat & Menissier-Morain 2012, Graillat 2009).  A centre stops
  unmoved where the bound's terms that do not shrink at a root alone put
  its radius at tol or above, where its values are not finite, or where it
  leaves the range in which the error-free transformations are exact.
  Every centre whose radius is not below tol is left to the exact rung.
  On dense inputs (lc 50) the two rungs take the same time at degree
  16-20, at 24 the numpy one is 11% faster, at 192 about ten times;
- the exact rung, for every centre the numpy rung did not certify: f/f'
  evaluated exactly at each double, a dyadic rational, over the Gaussian
  integers along the whole chain (_ratio, _exact_ratio).

Both rungs run one loop, _sweep, with their own evaluator of f/f' and the
radius: Aberth-corrected Newton steps move all its centres at once, a
centre stopping when its step leaves the double unchanged or after _STEPS
steps, with the radius evaluated where it stops.

Each returned centre is a double, with radius an outward-rounded upper bound
of d*|f/f'| there, so its disk holds a root (Henrici, Applied and
Computational Complex Analysis I): the exact rung takes it from integers,
the numpy rung as d (|f^| + e_f) / (|f^'| - e_f').  The disks are pairwise
disjoint, so each holds exactly one.  A radius at or above tol, or two disks
that meet, is a refusal: once d |z| 2^-53 nears tol, no double centre can
meet it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .exact import DomainError, IntPoly, _down, _gamma, _up, _up_each

__all__ = ["certified_roots", "arch_support"]

DEGREE_CAP = 512
_STEPS = 8  # Aberth steps per centre, on either rung
_NUMPY_MIN_DEGREE = 24  # the numpy rung from this degree on
_BINI_MIN_DEGREE = 80  # Bini's start from this base degree on
_ABERTH_STEPS = 64  # plain Aberth sweeps before numpy.roots takes over


def certified_roots(f: IntPoly, tol: float = 1e-13) -> list[tuple[complex, float]]:
    """All complex roots of a squarefree integer polynomial, with radii.

    Returns (root, radius) pairs sorted by real then imaginary part; each
    disk of the given radius about the returned root contains exactly one
    root of f, and the radii are below tol.  Raises DomainError above
    degree 512 or if certification fails at the requested tolerance.
    Results are cached per (polynomial, tolerance), however tol is passed.
    """
    return _certified_roots(f, tol)


@functools.lru_cache(maxsize=256)
def _certified_roots(f: IntPoly, tol: float) -> list[tuple[complex, float]]:
    d = f.degree
    if d > DEGREE_CAP:
        raise DomainError("degree %d exceeds the certified-root cap %d" % (d, DEGREE_CAP))
    cs = f.coeffs
    if d and cs[0] == cs[1] == 0:
        raise DomainError("polynomial is not squarefree at 0")
    out = []
    chain, base = _chain(cs)
    if d and not chain and cs[0] == 0:
        out.append((0j, 0.0))
        cs = cs[1:]
        chain, base = _chain(cs)
    if len(cs) > 1:
        pts = _starts(base, bool(chain))
        for q, p in reversed(chain):
            r = np.sqrt(pts)
            pts = np.concatenate([(p + r) / q, (p - r) / q])
        pts, rads = _snap(pts), np.full(len(pts), np.inf)
        db = [j * c for j, c in enumerate(base)][1:]
        # the numpy rung needs the chain constants and the coefficients of b
        # and b' exact in binary64 (past 2^1024 they have no double at all);
        # its columns hold those of b and b', degree descending
        if (len(cs) - 1 >= _NUMPY_MIN_DEGREE
                and max(map(abs, [*base, *db, *(x for level in chain for x in level)])) <= 1 << 53):
            A = np.zeros((len(base), 2))
            A[:, 0], A[1:, 1] = base[::-1], db[::-1]
            _sweep(pts, rads, np.arange(len(pts)), functools.partial(_horner_ratio, chain, A, tol))
        terms, dterms = ([(j, c) for j, c in enumerate(g) if c or not j][::-1] for g in (base, db))
        _sweep(pts, rads, np.flatnonzero(~(rads < tol)), functools.partial(_exact_ratio, chain, terms, dterms))
        out += zip(map(complex, pts), rads.tolist())
    if len(out) != d or any(not rad < tol for _, rad in out):
        raise DomainError("could not certify roots to tolerance %g" % tol)
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    _disjoint(out)
    return out


certified_roots.cache_info = _certified_roots.cache_info
certified_roots.cache_clear = _certified_roots.cache_clear


def _disjoint(disks):
    # raise unless the disks, sorted by real part, are pairwise disjoint: a
    # lower bound of |zi - zj| (one rounding per component, hypot 1 ulp)
    # must pass an upper bound of ri + rj
    widest = max((r for _, r in disks), default=0.0)
    for i, (zi, ri) in enumerate(disks):
        for zj, rj in disks[i + 1:]:
            if zj.real - zi.real > 2 * (ri + widest):
                break
            if _down(abs(zi - zj), 0.0) <= _up(ri, rj):
                raise DomainError("certified root disks overlap")


def _chain(cs):
    # f = g1((q0 z - p0)^2)/lam0, g1 = g2((q1 u - p1)^2)/lam1, ... down to a
    # base; a level exists when H(s) = q^d f((s + p)/q) is even in s.  The
    # Taylor shift fixes H's coefficient i in pass i, so it stops at the
    # first odd one that is not zero.  A level whose p or q is past 2^1000
    # is left in the base, as the estimates are lifted through it in floats.
    chain = []
    while len(cs) > 2 and len(cs) % 2:
        d = len(cs) - 1
        mu = Fraction(-cs[d - 1], d * cs[d])
        p, q = mu.numerator, mu.denominator
        if max(abs(p), q).bit_length() > 1000:
            break
        h = [c * q ** (d - j) for j, c in enumerate(cs)]
        for i in range(d if p else 0):
            for j in range(d - 1, i - 1, -1):
                h[j] += p * h[j + 1]
            if i % 2 and h[i]:
                break
        if any(h[1::2]):
            break
        g = math.gcd(*h[::2])
        cs = tuple(c // g for c in h[::2])
        chain.append((q, p))
    return chain, cs


def _starts(cs, chained):
    # complex128 estimates of the roots of cs: from _BINI_MIN_DEGREE on,
    # plain Aberth sweeps from Bini's start; below it numpy.roots, polished
    # by the same sweeps when a chain is lifted from them, as no level is
    # refined on the way up; numpy.roots alone when the sweeps do not settle
    shift = max(0, max(abs(c).bit_length() for c in cs) - 900)
    a = np.array([c / (1 << shift) for c in cs])
    eig = None if len(cs) > _BINI_MIN_DEGREE else _eig(a)
    if eig is not None and not chained:
        return eig
    pts = _aberth(a, _bini(a) if eig is None else eig.copy())
    if pts is not None:
        return pts
    return _eig(a) if eig is None else eig


def _eig(a):
    # the roots of sum a_j z^j as the companion matrix's eigenvalues
    try:
        with np.errstate(all="ignore"):
            return np.roots(a[::-1]).astype(complex)
    except np.linalg.LinAlgError:
        raise DomainError("coefficients too far apart to estimate roots") from None


def _bini(a):
    # Bini's start (Numer. Algorithms 13 (1996)): for each edge (i, k) of the
    # upper convex hull of the points (j, log|a_j|), k - i points on the
    # circle of radius (|a_i|/|a_k|)^(1/(k - i)), the edge's root modulus,
    # turned by 2 pi i/d + 0.7 as Bini's are, off the real axis and each other
    d = len(a) - 1
    with np.errstate(all="ignore"):
        lg = np.log(np.abs(a))
    hull = []
    for j in np.flatnonzero(a).tolist():
        while len(hull) > 1 and ((lg[j] - lg[hull[-2]]) * (hull[-1] - hull[-2])
                                 >= (lg[hull[-1]] - lg[hull[-2]]) * (j - hull[-2])):
            hull.pop()
        hull.append(j)
    return np.concatenate([
        np.exp((lg[i] - lg[k]) / (k - i)
               + 1j * (2 * np.pi * (np.arange(k - i) / (k - i) + i / d) + 0.7))
        for i, k in zip(hull, hull[1:])])


def _aberth(a, z):
    """Root estimates of sum a_j z^j by plain Aberth sweeps from z, or None.

    A sweep evaluates p and p' at each point still moving by powers of z,
    or of w = 1/z when |z| > 1, where p/p' = z/(d - w q'/q) with q the
    reversed polynomial, so nothing overflows.  A point stops when |p| is
    within the rounding of its evaluation, sum |a_j| |z|^j times gamma_(4d+4),
    or its step no longer changes it; None if a coefficient at either end is
    0, a point is still moving after _ABERTH_STEPS sweeps, or a value is not
    finite.
    """
    d = len(a) - 1
    if not (a[0] and a[d]):
        return None
    # columns: p and q, p' and q' (the coefficient of w^k at row k), p~ and q~
    cols = np.zeros((d + 1, 6))
    cols[:, 0], cols[:, 1] = a, a[::-1]
    cols[:d, 2:4] = np.arange(1, d + 1)[:, None] * cols[1:, :2]
    cols[:, 4:] = np.abs(cols[:, :2])
    todo = np.arange(d)
    with np.errstate(all="ignore"):
        for _ in range(_ABERTH_STEPS):
            x = z[todo]
            rows = np.arange(len(x))
            out = (_abs(x) > 1).astype(int)
            w = np.where(out, 1 / x, x)
            V = _powers(w, d)
            S = np.stack([V.real, V.imag, _powers(_abs(w), d)], axis=1) @ cols
            p = S[rows, 0, out] + 1j * S[rows, 1, out]
            dp = S[rows, 0, 2 + out] + 1j * S[rows, 1, 2 + out]
            size = S[rows, 2, 4 + out]
            new = x - _aberth_step(np.where(out, x / (d - w * dp / p), p / dp), z, todo)
            done = (_abs(p) <= _gamma(4 * d + 4) * size) | (new == x)
            if not np.isfinite(np.where(done, x, new)).all():
                return None
            z[todo[~done]] = new[~done]
            todo = todo[~done]
            if not len(todo):
                return z
    return None


def _aberth_step(n, z, todo):
    # Aberth's step n_i / (1 - n_i sum_(j != i) 1/(z_i - z_j)) at the points
    # z_i, i in todo, from their Newton steps n
    diff = z[todo, None] - z
    diff[np.arange(len(todo)), todo] = 1.0
    return n / (1.0 - n * (np.reciprocal(diff, out=diff).sum(axis=1) - 1.0))


def _powers(w, d):
    # the rows 1, w_i, w_i^2, ..., w_i^d, by doubling blocks of columns
    V = np.empty((len(w), d + 1), dtype=w.dtype)
    V[:, 0] = 1.0
    n, wn = 1, w
    while n <= d:
        k = min(n, d + 1 - n)
        np.multiply(V[:, :k], wn[:, None], out=V[:, n:n + k])
        n, wn = n + k, wn * wn
    return V


def _gpow(a, n):
    out = None
    while True:
        if n & 1:
            out = a if out is None else (out[0] * a[0] - out[1] * a[1],
                                         out[0] * a[1] + out[1] * a[0])
        n >>= 1
        if not n:
            return out
        a = (a[0] + a[1]) * (a[0] - a[1]), 2 * a[0] * a[1]


def _horner(terms, e, N, K):
    # sum of c_j N^j 2^(K (e - j)) over the (j, c_j), degree descending down
    # to j = 0, with powers by squaring across runs of zero coefficients
    (j, c), *rest = terms
    x, y = c << K * (e - j), 0
    for i, c in rest:
        a, b = N if j - i == 1 else _gpow(N, j - i)
        x, y, j = x * a - y * b + (c << K * (e - i)), x * b + y * a, i
    return x, y


def _ratio(z, chain, terms, dterms):
    """(f/f' as a complex, upper bound of d*|f/f'|) at the double z.

    With u_0 = z = N/2^k, u_(l+1) = w_l^2 and w_l = q_l u_l - p_l = W_l/2^(k 2^l),
    f/f' = b(u_L) / (b'(u_L) prod 2 q_l w_l) = B / (2^k prod(2 q_l) B' prod W_l)
    for the scaled base values B, B'; these and the W_l are exact integers.
    """
    (a, s), (b, t) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    k = max(s, t).bit_length() - 1
    N, K, q2, den = ((a << k) // s, (b << k) // t), k, 1, []
    for q, p in chain:
        w = (q * N[0] - (p << K), q * N[1])
        den.append(w)
        q2 *= 2 * q
        N, K = _gpow(w, 2), 2 * K
    e = terms[0][0]
    den.append(_horner(dterms, e - 1, N, K))
    m, E, _, P = _split(_horner(terms, e, N, K))
    E, P, Q = E - k, P * (e << len(chain)) ** 2, q2 * q2
    for g in den:
        mg, s, lo, _ = _split(g)
        if not lo:
            return complex(math.inf), math.inf
        m, E, Q = m / mg, E - s, Q * lo
    try:
        return complex(math.ldexp(m.real, E), math.ldexp(m.imag, E)) / q2, _sqrt_up(P, Q, E)
    except OverflowError:
        return complex(math.inf), math.inf


def _split(g):
    # g = m 2^s to 64 bits, with lo <= |g|^2 / 4^s <= hi
    s = max(0, max(abs(g[0]).bit_length(), abs(g[1]).bit_length()) - 64)
    a, b, u = abs(g[0]) >> s, abs(g[1]) >> s, 1 if s else 0
    return complex(g[0] >> s, g[1] >> s), s, a * a + b * b, (a + u) ** 2 + (b + u) ** 2


def _sqrt_up(P, Q, E):
    # a double >= sqrt(P/Q) 2^E, from ceil(sqrt(ceil(P 4^t / Q))) ~ 2^64
    if not P:
        return 0.0
    t = 64 - (P.bit_length() - Q.bit_length()) // 2
    v = -(-(P << 2 * t) // Q) if t >= 0 else -(-P // (Q << -2 * t))
    r = math.isqrt(v - 1) + 1
    return math.nextafter(math.ldexp(math.nextafter(float(r), math.inf), E - t), math.inf)


def _sweep(pts, rads, todo, ratio):
    """Aberth sweeps over the centres of todo at once, in place.

    ratio(z) returns f/f' and an upper bound of d |f/f'| (or inf) at each
    double of z.  A sweep moves every centre still moving by z -= n / (1 -
    n sum_j 1/(z - z_j)), n = f/f'; a centre stops when its step leaves the
    double unchanged or exceeds 0.5 (1 + |z|), or after _STEPS steps, and
    its radius in rads is the one evaluated where it stops.
    """
    for sweep in range(_STEPS + 1):
        if not len(todo):
            return
        z = pts[todo]
        n, rad = ratio(z)
        if sweep == _STEPS:
            rads[todo] = rad
            return
        with np.errstate(all="ignore"):
            step = _aberth_step(n, pts, todo)
            new = _snap(z - step)
            move = (new != z) & (np.abs(step) <= 0.5 * (1.0 + np.abs(z)))
        rads[todo[~move]] = rad[~move]
        pts[todo[move]] = new[move]
        todo = todo[move]


def _horner_ratio(chain, A, tol, z):
    # the numpy rung's f/f' at the doubles z: the levels of the chain by
    # _levels, then the base b and b' at u_L's double word by _comp_horner,
    # its columns A, over the disk about it that holds u_L, and f/f' =
    # b(u_L) / (b'(u_L) prod 2 q_l w_l).  The radius is d (|f^| + e_f) /
    # (|f^'| - e_f'), rounded up, or inf: its denominator is the product of
    # lower bounds |b^'| - e_b' and 2 q_l (|w^_l| - e_w_l), each product
    # rounded down.  That radius is at least d e_f / |f^'|, and e_f at least
    # terms that do not shrink as a centre moves to its root: where d e_f >=
    # tol |f^'| the step is 0 and the radius inf, so the centre stops
    # unmoved and the exact rung takes it from there
    d = (len(A) - 1) << len(chain)
    with np.errstate(all="ignore"):
        U, D, ws = _levels(chain, z)
        (f, bp), (ef, efp) = _comp_horner(A, U, D)
        fp, den = bp, _down(_abs(bp), efp)
        for (q, _), (w, low) in zip(chain, ws):
            fp = fp * (2 * q * w)
            den = np.nextafter(den * np.maximum(low, 0.0), -np.inf)
            den = np.nextafter(den * (2 * q), -np.inf)
        afp = _abs(fp)
        rad = np.where(den > 0, _up_each(d * _up_each(_abs(f), ef) / den), np.inf)
        out = d * ef >= tol * afp
        return np.where(out, 0.0, f / fp), np.where(out, np.inf, rad)


def _levels(chain, z):
    """The chain's levels at the doubles z, in double words.

    From u_0 = z, each level (q, p) makes w = q u - p and then u <- w^2
    (_level), its values held as pairs hi + lo of (2, m) arrays of real and
    imaginary parts, renormalized by TwoSum so that |lo| <= u |hi| in each
    component, beside a running bound D >= |u - hi - lo| (Higham, Accuracy
    and Stability, 2nd ed., sec. 3.3).  Returns u_L's double word U = (hi,
    lo), the bound D of |u_L - hi - lo| (U = (z, 0) and D = 0 with no
    level), and each level's w^ = hi with a lower bound of |w|.  The
    TwoProducts are exact while every hi component is at most 2^900 and,
    unless 0, at least 2^-480; past that range the bound is inf.
    """
    U = np.array([z.real, z.imag]), np.zeros((2, len(z)))
    D, ok, ws = np.zeros(len(z)), np.ones(len(z), dtype=bool), []
    for q, p in chain:
        W, ew, U, D = _level(q, p, U, D)
        ws.append((W[0][0] + 1j * W[0][1], _down(np.hypot(*W[0]), ew)))
        ok &= _in_range(W[0]) & _in_range(U[0])
    return U, np.where(ok, D, np.inf), ws


def _level(q, p, U, D):
    """One level of _levels: from u = (hi, lo) with |u - hi - lo| <= D, w =
    q u - p and w^2 as double words, with e_w >= |w - hi - lo| and the new
    D.  With u = 2^-53:

    - w: q hi is split exactly by a TwoProduct and p subtracted by a
      TwoSum; the three terms left, the product's error and q lo, each at
      most u q |hi| a component, and the TwoSum's, at most u |w^| or so, are
      added with three roundings, so they leave at most 16 u^2 (q |u^| +
      |w^|), and e_w = q D + that; w = u exactly when q = 1 and p = 0;
    - w^2: by _dw_mul, at most 42 u^2 |w^|^2 from (hi + lo)^2, and |w^2 -
      (hi + lo)^2| <= e_w (2 |hi + lo| + e_w), so D = 2 |w^| e_w + e_w^2 +
      64 u^2 |w^|^2, the constants covering the rounding of D itself.
    """
    if q == 1 and p == 0:
        W, ew = U, D
    else:
        uh, ul = U
        P, E = _two_prod(float(q), uh)
        S = P.copy()
        S[0] -= p
        lo = E + q * ul
        lo[0] += _two_sum_err(P[0], -p, S[0])
        wh = S + lo
        W = wh, _two_sum_err(S, lo, wh)
        ew = _up_each(q * D, 16 * _gamma(1) ** 2 * (q * np.hypot(*uh) + np.hypot(*wh)))
    aw = _up_each(np.hypot(*W[0]))
    return W, ew, _dw_mul(W, W), _up_each(ew * (2 * aw + ew), 64 * _gamma(1) ** 2 * aw * aw)


def _in_range(x):
    # every component of x, (2, m), finite, at most 2^900 and, unless 0,
    # at least 2^-480
    a = np.abs(x)
    return ((a <= 2.0 ** 900) & ((a >= 2.0 ** -480) | (a == 0))).all(axis=0)


def _exact_ratio(chain, terms, dterms, z):
    # the exact rung's f/f' and radius at the doubles z, one _ratio each
    n, rad = zip(*(_ratio(x, chain, terms, dterms) for x in z.tolist()))
    return np.array(n), np.array(rad)


def _abs(z):
    # |z| elementwise by libm's hypot, within 1 ulp as _up_each and _down
    # assume; numpy's complex abs is its own routine, up to 1.9 ulp off
    return np.hypot(z.real, z.imag)


def _snap(z):
    # a component 2^60 below the other only lengthens the exact arithmetic;
    # dropping it is sound, the disk is certified about the centre returned
    x, y = z.real, z.imag
    return (np.where(np.abs(x) < 2.0 ** -60 * np.abs(y), 0.0, x)
            + 1j * np.where(np.abs(y) < 2.0 ** -60 * np.abs(x), 0.0, y))


def _veltkamp(x):
    # x = hi + lo exactly, hi and lo of 26 bits each (Dekker 1971)
    t = x * 134217729.0  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _two_sum_err(a, b, s):
    # the exact a + b - s for s = fl(a + b) (Knuth, TAOCP 2)
    bb = s - a
    return (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    # a b = p + e exactly (Dekker 1971), while nothing overflows or underflows
    p = a * b
    ah, al = _veltkamp(a)
    bh, bl = _veltkamp(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dw_mul(x, y):
    """The product of double words x = (xh, xl) and y = (yh, yl), complex.

    Each part is a (2, m) array of real and imaginary parts, with |xl| <= u
    |xh| and |yl| <= u |yh| in each component.  Returns (hi, lo), so
    renormalized, with |(xh + xl)(yh + yl) - hi - lo| <= 42 u^2 |xh| |yh|
    while the TwoProducts are exact: xh yh is four TwoProducts and two
    TwoSums; the seven terms left of each component, their errors and the
    cross products xh yl, xl yh, sum to at most 4u |xh| |yh| and are added
    with at most seven roundings each, sqrt2 gamma_7 4u < 40 u^2, and xl yl
    is dropped (Joldes, Muller & Popescu, ACM TOMS 44 (2017), for the
    double-word products).
    """
    (xh, xl), (yh, yl) = x, y
    X = np.concatenate([xh, xh])
    Y = np.array([yh[0], -yh[1], yh[1], yh[0]])
    P, E = _two_prod(X, Y)
    S = P[::2] + P[1::2]
    C = X * np.array([yl[0], -yl[1], yl[1], yl[0]]) + np.concatenate([xl, xl]) * Y
    lo = _two_sum_err(P[::2], P[1::2], S) + E[::2] + E[1::2] + (C[::2] + C[1::2])
    hi = S + lo
    return hi, _two_sum_err(S, lo, hi)


def _dw_powers(U, ks):
    # v^k for the double word U = (hi, lo), v = hi + lo, and each k of ks,
    # as double words, by squarings shared across the ks and products of
    # them: |v^k - hi - lo| <= 42 (k - 1) u^2 |v|^k, as the relative bounds
    # of the factors add, and _dw_mul adds 42 u^2 to them, up to terms of
    # order u^3; and where every factor was _in_range
    sq, out = [U], {}
    ok = _in_range(U[0])
    for k in ks:
        while 1 << len(sq) <= k:
            sq.append(_dw_mul(sq[-1], sq[-1]))
            ok &= _in_range(sq[-1][0])
        acc, *bits = [s for i, s in enumerate(sq) if k >> i & 1]
        for s in bits:
            acc = _dw_mul(acc, s)
            ok &= _in_range(acc[0])
        out[k] = acc
    return out, ok


def _comp_horner(A, U, D):
    """Compensated Horner values of b and b' over disks about double words.

    A holds the coefficients of b and b': (d + 1) x 2 float, row j those of
    x^(d - j), each an integer of at most 53 bits.  U = (hi, lo) holds the
    double words v = hi + lo, (2, m) arrays of real and imaginary parts with
    |lo| <= u |hi| in each component.  Returns, one column per v, the
    complex values p^ at v and upper bounds e of |p(x) - p^| for every x
    within D of v, inf where a value is not finite or leaves the range below.

    The pass is Horner's over the rows with a nonzero coefficient (and the
    last), s_t = fl(s_(t-1) y^ + a), y = v^k for a step of k rows, in
    float64 pairs with each rounding error caught exactly: s y^ by four
    TwoProducts (Dekker's split, there being no FMA) and two TwoSums, the
    sum with a by a TwoSum (Graillat, Langlois & Louvet, Japan J. Indust.
    Appl. Math. 26 (2009); Graillat & Menissier-Morain, Inform. and Comput.
    216 (2012), for complex v).  y is a double word, U itself for k = 1 and
    the compensated power v^k across a run of zeros, k > 1 (_dw_powers;
    Graillat, IEEE Trans. Comput. 58 (2009)); the step takes y^ = its hi
    and adds s lo to the error it catches, unless that lo is 0 at every v.
    Then s y + a = s_t + w_t + r_t, r_t = s (v^k - hi - lo) alone not
    caught (0 for k = 1), so p(v) = s_n + c + sum r_t v^(e_t), c = sum w_t
    v^(e_t), e_t the exponent at step t, and p^ = fl(s_n + c^) with c^ the
    plain complex Horner value of the rounded w^_t.  With u = 2^-53, n
    steps of which J take a y^ that is not y, each run and each step whose
    y carries a lo:

    - |w_t| <= |Re w_t| + |Im w_t| <= (2u + u^2) (|x_r| + |x_i|)(|y^_r| +
      |y^_i|) + u |h_r + a| (+ u |x| |y^| for s lo on such a step) <= 6u
      (|x| |y^| + |a|), or 7u on such a step, writing x = s_(t-1) and h =
      fl(x y^), |h| <= (1 + sqrt2 gamma_2) |x| |y^| (Higham, Accuracy and
      Stability, 2nd ed., Lemma 3.5), and |y^| <= (1 + gamma_2) |v|^k;
    - |s_t| <= (1 + u)^(5 (d - e_t)) p~_t(|v|), p~_t(r) = sum_(j >= e_t)
      |a_j| r^(j - e_t), as a step rounds 4 times, 5 on one row with a lo
      (|hi| <= (1 + gamma_1) |v|) and 6 <= 5k on a run of k, so sum |w_t|
      |v|^(e_t) <= (6n + 6 + J) u (1 + gamma_5d) p~(|v|);
    - rounding w^_t adds gamma_3 of the same sums (gamma_4 on such a step),
      and Horner on them gamma_4 a step (a complex product sqrt2 gamma_2, a
      sum u; the relative error of y^ adds gamma_2 on such a step), so |c -
      c^| <= gamma_(4n+2J+3) (6n + 6 + J) u (1 + gamma_5d) p~(|v|);
    - sum |r_t| |v|^(e_t) <= 42 u^2 sum (k_t - 1) (1 + gamma_5d) p~(|v|),
      and sum (k_t - 1) = d - n;
    - fl(s_n + c^) rounds each component once: u |p^|;
    - for x within D of v, |p(x) - p(v)| <= D max |p'| over the disk, at
      most D b~'(R) for b and D (d - 1) b~'(R) for b', R >= max(1, |hi| +
      |lo| + D), b~' being the second column's p~.

    So e = u |p^| + (2 gamma_(6n+6+J) gamma_(4n+2J+3) + 128 (d - n) u^2)
    p~(R) + 2 D b~'(R), or 2 D (d - 1) b~'(R): the factors 2 cover (1 +
    gamma_5d) and the gamma_2d by which p~ is evaluated low in floats at R
    (a step of k rows a product by libm's R^k, within 1 ulp, and n plus the
    runs are at most d), and as p~(R) >= R^(d-1), the most by which an
    error of c^ is multiplied, also the at most 2^-1075 per operation that
    an underflow adds.  With no lo at k = 1 a dense b has n = d and J = 0.
    The TwoProducts are exact while every product is finite and no nonzero
    factor is below 2^-480 (a product's error then is a multiple of
    2^-1074): the range guard asks p~(R) <= 2^900, which bounds every |s_t|
    and |v|^k, and every nonzero component of hi, of each power's hi and of
    each s_t at least 2^-480.
    """
    d, k = len(A) - 1, A.shape[1]
    m = U[0].shape[1]
    rows = (np.flatnonzero(A[1:d].any(axis=1)) + 1).tolist() + [d]
    runs = [j - i for i, j in zip([0] + rows, rows)]
    pw, fits = _dw_powers(U, sorted(set(runs) - {1}))
    pw[1] = U

    def layout(h):
        # (h_r, h_r), (-h_i, h_i), the factor of the products XX Y below
        return np.array([[h[0], h[0]], [-h[1], h[1]]])[:, :, None, :]

    ys = {r: (layout(hi), *_veltkamp(layout(hi)), layout(lo) if lo.any() else None)
          for r, (hi, lo) in pw.items()}
    coeff = np.zeros((d + 1, 2, k, 1))
    coeff[:, 0, :, 0] = A
    # XX = (x_r, x_i), (x_i, x_r) for x = s_(t-1), so that XX Y holds
    # (x_r y_r, x_i y_r), (-x_i y_i, x_r y_i); CC likewise for c^
    XX, CC = np.zeros((2, 2, 2, k, m))
    XX[0, 0] = XX[1, 1] = A[0][:, None]
    # the powers' range is in fits
    low = np.broadcast_to(np.frexp(ys[1][0])[1].min(axis=(0, 1, 2)), (2, k, m)).copy()
    for j, r in zip(rows, runs):
        Y, YH, YL, LO = ys[r]
        XH, XL = _veltkamp(XX)
        P = XX * Y
        E = XH * YH - P
        E += XH * YL
        E += XL * YH
        E += XL * YL
        H = P[0] + P[1]
        W = E[0] + E[1]
        if LO is not None:
            C = XX * LO
        X = np.add(H, coeff[j], out=XX[0])
        XX[1] = X[::-1]
        W += _two_sum_err(P[0], P[1], H)
        W += _two_sum_err(H, coeff[j], X)
        if LO is not None:
            W += C[0] + C[1]
        P = CC * Y
        C = np.add(P[0], P[1], out=CC[0])
        C += W
        CC[1] = C[::-1]
        np.minimum(low, np.frexp(X)[1], out=low)
    X, C = XX[0], CC[0]
    F = X + C
    vals = F[0] + 1j * F[1]
    R = np.maximum(_up_each(np.hypot(*U[0]), _up_each(np.hypot(*U[1]), D)), 1.0)
    tilde, absA = np.zeros((k, m)), np.abs(A)[:, :, None]
    n, J = len(rows), sum(r > 1 or ys[r][3] is not None for r in runs)
    with np.errstate(all="ignore"):
        for j, r in zip([0] + rows, [1] + runs):
            tilde = tilde * (R if r == 1 else R ** r) + absA[j]
        a_priori = (2.0 * _gamma(6 * n + 6 + J) * _gamma(4 * n + 2 * J + 3)
                    + 128.0 * (d - n) * _gamma(1) ** 2)
        disk = 2.0 * D * np.array([[1.0], [d - 1.0]]) * tilde[1]
        err = _up_each(_gamma(1) * _abs(vals), a_priori * tilde + disk)
    ok = (fits & (low.min(axis=(0, 1)) > -480) & np.isfinite(vals).all(axis=0)
          & (tilde <= 2.0 ** 900).all(axis=0))
    return vals, np.where(ok, err, np.inf)


def arch_support(divisor) -> list[tuple[complex, float, int]]:
    """Certified complex support of the finite part, with multiplicities.

    Returns (root, radius, multiplicity) triples across all squarefree
    factors, radii below 1e-13; the point at infinity is not included.
    """
    support = []
    for factor, mult in divisor.squarefree_factors:
        for z, rad in certified_roots(factor):
            support.append((z, rad, mult))
    return support
