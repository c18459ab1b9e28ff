"""Certified complex root isolation for integer polynomials.

A polynomial whose roots are symmetric about their mean p/q is a polynomial
in (q z - p)^2, as iterated quadratics are at every level.  Splitting such
levels off leaves a base polynomial, whose roots numpy estimates; they are
lifted back (u -> (p +- sqrt u)/q) and at each level moved to the nearest
double by Aberth-corrected Newton steps, with f/f' evaluated exactly at the
double, a dyadic rational, over the Gaussian integers along the chain.

Each returned centre is that double, with radius an outward-rounded upper
bound of d*|f/f'| there, so its disk holds a root (Henrici, Applied and
Computational Complex Analysis I); the disks are pairwise disjoint, so each
holds exactly one.  A radius at or above tol, or two disks that meet, is a
refusal: once d |z| 2^-53 nears tol, no double centre can meet it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .exact import DomainError, IntPoly

DEGREE_CAP = 512
_STEPS = 8  # Newton steps per point and level


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
    out = []
    if d and cs[0] == 0:
        if cs[1] == 0:
            raise DomainError("polynomial is not squarefree at 0")
        out.append((0j, 0.0))
        cs = cs[1:]
    if len(cs) > 1:
        chain, base = _chain(cs)
        terms = [(j, c) for j, c in enumerate(base) if c or not j][::-1]
        dterms = [(j - 1, j * c) for j, c in enumerate(base) if j and (c or j == 1)][::-1]
        shift = max(0, max(abs(c).bit_length() for c in base) - 900)
        try:
            with np.errstate(all="ignore"):
                pts = np.roots([c / (1 << shift) for c in reversed(base)])
        except np.linalg.LinAlgError:
            raise DomainError("coefficients too far apart to estimate roots") from None
        for level in range(len(chain), -1, -1):
            sub = chain[level:]
            pts, rads = _refine(pts, lambda z: _ratio(z, sub, terms, dterms))
            if level:
                q, p = chain[level - 1]
                r = np.sqrt(pts)
                pts = np.concatenate([(p + r) / q, (p - r) / q])
        out += zip(map(complex, pts), rads)
    if len(out) != d or any(not rad < tol for _, rad in out):
        raise DomainError("could not certify roots to tolerance %g" % tol)
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    widest = max((r for _, r in out), default=0.0)
    for i, (zi, ri) in enumerate(out):
        for zj, rj in out[i + 1:]:
            if zj.real - zi.real > 2 * (ri + widest):
                break
            # 1e-15 covers the rounding of |zi - zj|
            if abs(zi - zj) * (1 - 1e-15) <= ri + rj:
                raise DomainError("certified root disks overlap")
    return out


certified_roots.cache_info = _certified_roots.cache_info
certified_roots.cache_clear = _certified_roots.cache_clear


def _chain(cs):
    # f = g1((q0 z - p0)^2)/lam0, g1 = g2((q1 u - p1)^2)/lam1, ... down to a
    # base; a level exists when H(s) = q^d f((s + p)/q) is even in s.  The
    # Taylor shift fixes H's coefficient i in pass i, so it stops at the
    # first odd one that is not zero.
    chain = []
    while len(cs) > 2 and len(cs) % 2:
        d = len(cs) - 1
        mu = Fraction(-cs[d - 1], d * cs[d])
        p, q = mu.numerator, mu.denominator
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


def _snap(z):
    # a component 2^60 below the other only lengthens the exact arithmetic;
    # dropping it is sound, the disk is certified about the centre returned
    x, y = z.real, z.imag
    return complex(0.0 if abs(x) < 2.0 ** -60 * abs(y) else x,
                   0.0 if abs(y) < 2.0 ** -60 * abs(x) else y)


def _refine(pts, ratio):
    # Aberth steps z -= n / (1 - n sum_j 1/(z - z_j)), n = f/f' exact, one
    # point at a time until the step leaves the double unchanged; each
    # radius is the one evaluated at the point returned
    pts = np.array([_snap(complex(z)) for z in pts])
    rads = []
    for i, z in enumerate(map(complex, pts)):
        for _ in range(_STEPS):
            n, rad = ratio(z)
            diff = z - pts
            diff[i] = 1.0
            with np.errstate(all="ignore"):
                step = complex(n / (1.0 - n * ((1.0 / diff).sum() - 1.0)))
            new = _snap(z - step)
            if new == z or not abs(step) <= 0.5 * (1.0 + abs(z)):
                break
            z = pts[i] = new
        else:
            rad = ratio(z)[1]
        rads.append(rad)
    return pts, rads


def arch_support(divisor, tol: float = 1e-13) -> list[tuple[complex, float, int]]:
    """Certified complex support of the finite part, with multiplicities.

    Returns (root, radius, multiplicity) triples across all squarefree
    factors; the point at infinity is not included.
    """
    support = []
    for factor, mult in divisor.squarefree_factors:
        for z, rad in certified_roots(factor, tol):
            support.append((z, rad, mult))
    return support
