"""Values computed apart from the program, for checking its outputs.

Nothing here imports ``adelic``.  Root sets are closed forms where they
exist (roots of unity, 2^(1/n) times them, 2cos((2k+1)pi/2D) for the
iterated preimages of z^2 - 2) and otherwise independent refinements to
at least 60 digits: numpy eigenvalues of the companion matrix, then
Newton steps in fixed-point Gaussian integers, accepted only when every
step has converged, the points are distinct and their sum matches the
coefficient ratio to 45 digits.  Archimedean sums run in 30-digit mpmath;
finite-place values are exact Fractions from pairwise valuations.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

INF = "inf"          # the point at infinity in a support list
ROOT_DPS = 60        # digits of every oracle root set
SUM_DPS = 30         # digits of the archimedean sums
_FIX = 320           # fixed-point bits of the Newton refinement


class OracleError(RuntimeError):
    """An oracle could not certify its own value."""


# ---------------------------------------------------------------------------
# root sets


def unit_roots(n: int) -> list:
    with mpmath.workdps(ROOT_DPS):
        return [mpmath.expjpi(mpmath.mpf(2 * k) / n) for k in range(n)]


def pow_roots(n: int, a: int) -> list:
    with mpmath.workdps(ROOT_DPS):
        r = mpmath.root(mpmath.mpf(a), n)
        return [r * z for z in unit_roots(n)]


def chebyshev_roots(depth: int) -> list:
    D = 2 ** depth
    with mpmath.workdps(ROOT_DPS):
        return [mpmath.mpc(2 * mpmath.cospi(mpmath.mpf(2 * k + 1) / (2 * D)))
                for k in range(D)]


def rational_points(form_roots) -> list[tuple[Fraction, int]]:
    return [(Fraction(a, b), m) for a, b, m in form_roots]


def _fix_newton(coeffs: list[int], x: int, y: int):
    # one Newton step at (x + iy) / 2^_FIX; returns the new point and the
    # step size in units of 2^-_FIX
    F = _FIX
    fx = fy = 0
    dx = dy = 0
    for c in reversed(coeffs):
        dx, dy = ((dx * x - dy * y) >> F) + fx, ((dx * y + dy * x) >> F) + fy
        fx, fy = ((fx * x - fy * y) >> F) + (c << F), ((fx * y + fy * x) >> F)
    den = dx * dx + dy * dy
    if den == 0:
        raise OracleError("zero derivative during refinement")
    sx = ((fx * dx + fy * dy) << F) // den
    sy = ((fy * dx - fx * dy) << F) // den
    return x - sx, y - sy, max(abs(sx), abs(sy))


def refined_roots(coeffs: list[int]) -> list:
    """All complex roots of a squarefree integer polynomial to 60 digits."""
    import numpy as np

    d = len(coeffs) - 1
    if d == 1:
        with mpmath.workdps(ROOT_DPS):
            return [mpmath.mpc(mpmath.mpf(-coeffs[0]) / coeffs[1])]
    lead = coeffs[-1]
    comp = np.zeros((d, d))
    comp[1:, :-1] = np.eye(d - 1)
    comp[:, -1] = [-c / lead for c in coeffs[:-1]]
    start = np.linalg.eigvals(comp)
    F = _FIX
    tol = 1 << (F - 205)             # about 1e-62 relative to 1
    pts = []
    for z in start:
        x, y = int(round(z.real * 2.0 ** 60)) << (F - 60), int(round(z.imag * 2.0 ** 60)) << (F - 60)
        for _ in range(80):
            x, y, step = _fix_newton(coeffs, x, y)
            if step <= tol * max(1, (abs(x) + abs(y)) >> F):
                break
        else:
            raise OracleError("Newton refinement did not converge")
        pts.append((x, y))
    # acceptance: distinct points whose sum is -c[d-1]/c[d] to 45 digits
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    want = Fraction(-coeffs[d - 1], lead)
    err = abs(Fraction(sx, 1 << F) - want) + abs(Fraction(sy, 1 << F))
    if err > Fraction(1, 10 ** 45):
        raise OracleError("refined roots do not sum to the coefficient ratio")
    if len(set((x >> (F - 100), y >> (F - 100)) for x, y in pts)) != d:
        raise OracleError("refined roots are not distinct")
    with mpmath.workdps(ROOT_DPS + 10):
        scale = mpmath.ldexp(1, -F)
        out = [mpmath.mpc(mpmath.mpf(x) * scale, mpmath.mpf(y) * scale) for x, y in pts]
    return out


def support(inp: dict) -> list:
    """(point, multiplicity) pairs of the input's divisor; points are mpc
    values (Fractions for rational roots) or INF."""
    kind = inp["form"][0]
    if kind == "unit":
        pts = [(z, 1) for z in unit_roots(inp["form"][1])]
    elif kind == "pow":
        pts = [(z, 1) for z in pow_roots(inp["form"][1], inp["form"][2])]
    elif kind == "cheb":
        pts = [(z, 1) for z in chebyshev_roots(inp["form"][1])]
    elif kind == "rational":
        pts = rational_points(inp["form"][1])
    else:
        pts = [(z, 1) for z in refined_roots(inp["coeffs"])]
    if inp["inf_mult"]:
        pts.append((INF, inp["inf_mult"]))
    return pts


def _mp(z):
    # rounds to the working precision in force
    if isinstance(z, Fraction):
        return mpmath.mpc(mpmath.mpf(z.numerator) / z.denominator)
    return mpmath.mpc(z)


# ---------------------------------------------------------------------------
# archimedean values


def arch_weight(name: str, z):
    """The archimedean weight of the named family at z, from its definition:
    std is log max(1,|z|) - log sqrt(1+|z|^2) (0 at infinity); trivial and
    ex5 are the constant -1/4."""
    if name in ("trivial", "ex5"):
        return mpmath.mpf(-1) / 4
    if name != "std":
        raise ValueError(name)
    if z is INF:
        return mpmath.mpf(0)
    r2 = abs(z) ** 2
    return mpmath.log(max(1, r2)) / 2 - mpmath.log1p(r2) / 2


def pair_log_sum(pts):
    """Sum over ordered pairs of distinct finite support points of
    m_i m_j log|w_i - w_j|, in 30-digit arithmetic.

    The terms are accumulated as products of squared distances, one
    product per multiplicity weight m_i m_j, then logged once each.
    """
    with mpmath.workdps(SUM_DPS):
        xs = [(w.real, w.imag, m) for w, m in ((_mp(z), m) for z, m in pts if z is not INF)]
        prods: dict[int, object] = {}
        for i in range(len(xs)):
            xi, yi, mi = xs[i]
            for j in range(i + 1, len(xs)):
                xj, yj, mj = xs[j]
                k = mi * mj
                dx = xi - xj
                dy = yi - yj
                q = dx * dx + dy * dy
                prods[k] = prods[k] * q if k in prods else q
        total = mpmath.mpf(0)
        for k, q in prods.items():
            total += k * mpmath.log(q)      # ordered pairs: 2 * (1/2) log |d|^2
        return total


def arch_pair_sum(pts, weight: str, logs=None):
    """Sum over ordered pairs of distinct support points of m_i m_j times
    log chordal(w_i, w_j) - g(w_i) - g(w_j), in 30-digit arithmetic.

    Each point's own terms (its half of the chordal normalisation and its
    weight) enter once per pair it belongs to, D - m times; logs is
    pair_log_sum(pts) when already known.
    """
    with mpmath.workdps(SUM_DPS):
        D = sum(m for _, m in pts)
        total = pair_log_sum(pts) if logs is None else logs
        for z, m in pts:
            if z is INF:
                a = arch_weight(weight, INF)
            else:
                w = _mp(z)
                a = mpmath.log1p(abs(w) ** 2) / 2 + arch_weight(weight, w)
            total -= 2 * m * (D - m) * a
        return total


def arch_mahler(pts, weight: str):
    """Weighted archimedean Mahler term: sum of m (log sqrt(1+|w|^2) + g(w)),
    the point at infinity contributing its weight only."""
    with mpmath.workdps(SUM_DPS):
        total = mpmath.mpf(0)
        for z, m in pts:
            if z is INF:
                total += m * arch_weight(weight, INF)
            else:
                w = _mp(z)
                total += m * (mpmath.log1p(abs(w) ** 2) / 2 + arch_weight(weight, w))
        return total


def closed_form_arch_pairing(inp: dict):
    """n log n for z^n - 1 and n log n - (n - 1) log a for z^n - a under
    std; None for other inputs."""
    kind = inp["form"][0] if not inp["inf_mult"] else None
    with mpmath.workdps(SUM_DPS):
        if kind == "unit":
            n = inp["form"][1]
            return n * mpmath.log(n)
        if kind == "pow":
            n, a = inp["form"][1], inp["form"][2]
            return n * mpmath.log(n) - (n - 1) * mpmath.log(a)
    return None


def closed_form_height(inp: dict):
    """0 for z^n - 1 and (log a)/n for z^n - a under std; None otherwise."""
    kind = inp["form"][0] if not inp["inf_mult"] else None
    with mpmath.workdps(SUM_DPS):
        if kind == "unit":
            return mpmath.mpf(0)
        if kind == "pow":
            return mpmath.log(inp["form"][2]) / inp["form"][1]
    return None


# ---------------------------------------------------------------------------
# exact data


def _primitive(coeffs: list[int]) -> list[int]:
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    return [c // g for c in coeffs]


def primitive_lc(coeffs: list[int]) -> int:
    return abs(_primitive(coeffs)[-1])


def dstar(inp: dict) -> Fraction:
    """|d*|: the product of (w - w') over ordered pairs of distinct finite
    support points, with multiplicity exponents.

    Squarefree inputs use sympy's discriminant, d* = +/-disc/lc^(2d-2);
    rational-root inputs multiply the pairwise differences directly.
    """
    if inp["form"][0] == "rational":
        pts = rational_points(inp["form"][1])
        out = Fraction(1)
        for i, (a, mi) in enumerate(pts):
            for j, (b, mj) in enumerate(pts):
                if i != j:
                    out *= (a - b) ** (mi * mj)
        return abs(out)
    import sympy

    x = sympy.Symbol("x")
    cs = _primitive(inp["coeffs"])
    d = len(cs) - 1
    if d < 2:
        return Fraction(1)
    disc = int(sympy.discriminant(sympy.Poly(list(reversed(cs)), x)))
    return abs(Fraction(disc, cs[-1] ** (2 * d - 2)))


def diagonal_ratio(inp: dict) -> Fraction:
    if inp["form"][0] == "rational":
        ms = [m for _, _, m in inp["form"][1]]
    else:
        ms = [1] * (len(inp["coeffs"]) - 1)
    k = inp["inf_mult"]
    D = sum(ms) + k
    return Fraction(sum(m * m for m in ms) + k * k, D * D)


def height(inp: dict, pts, weight: str, finite_terms=None):
    """Weighted height: (log|lc| + arch Mahler term + finite weight terms)/D
    with lc the leading coefficient of the primitive polynomial.

    finite_terms maps each prime p to the exact coefficient of log p of
    the weight integrated against the divisor (ex5 only)."""
    with mpmath.workdps(SUM_DPS):
        D = sum(m for _, m in pts)
        total = mpmath.log(primitive_lc(inp["coeffs"])) + arch_mahler(pts, weight)
        # thousands of finite terms, summed in double precision: the error
        # (below 1e-12) is far under the prime-tail width of such heights
        total += math.fsum(float(c) * math.log(p) for p, c in (finite_terms or {}).items())
        return total / D


# ---------------------------------------------------------------------------
# the ex5 weight at finite places


class Ex5Oracle:
    """Finite-place values of the ex5 weight family for rational supports.

    At p the weight of a type I point w is clamp(h + s, -h, h) times log p,
    with s = -v_p(w) (minus infinity at w = 0), h = 1/(2 m_p) and
    m_p = ceil(p^2 log p); the point at infinity has weight h.
    """

    def __init__(self):
        self._m: dict[int, int] = {}

    def branch_count(self, p: int) -> int:
        """m_p = ceil(p^2 log p), always from 50-digit arithmetic: near
        p = 80000, p^2 log p is about 7e10 and one double ulp is 1.5e-5, so
        a double can land on the wrong side of an integer."""
        m = self._m.get(p)
        if m is None:
            with mpmath.workdps(50):
                t = mpmath.mpf(p) ** 2 * mpmath.log(p)
                if abs(t - mpmath.nint(t)) < mpmath.mpf(10) ** -30:
                    raise OracleError("p^2 log p is too close to an integer at p=%d" % p)
                m = int(mpmath.ceil(t))
            self._m[p] = m
        return m

    @staticmethod
    def valuations(pts, p: int, special: bool):
        """v_p of every finite support point (None at 0) and of every
        difference of two of them; all zero when p divides none of them."""
        fin = [w for w, _ in pts if w is not INF]
        if not special:
            return [None if w == 0 else 0 for w in fin], [[0] * len(fin) for _ in fin]
        vpt = [None if w == 0 else valuation(w, p) for w in fin]
        vpair = [[0 if i == j else valuation(a - b, p) for j, b in enumerate(fin)]
                 for i, a in enumerate(fin)]
        return vpt, vpair

    def pairing(self, pts, p: int, vpt, vpair) -> Fraction:
        """Exact coefficient of log p of the off-diagonal pairing.

        The sum over ordered pairs of distinct support points of
        m_i m_j (log_p chordal(w_i, w_j) - g(w_i) - g(w_j)), where
        log_p chordal is -v(w_i - w_j) - max(0, -v(w_i)) - max(0, -v(w_j))
        and -max(0, -v(w)) against infinity.
        """
        m2 = 2 * self.branch_count(p)
        ms = [m for w, m in pts if w is not INF]
        inf_m = sum(m for w, m in pts if w is INF)
        lam = [0 if v is None else max(0, -v) for v in vpt]
        g2 = [self._weight2(v, m2) for v in vpt]
        total = 0                                     # in units of 1/m2
        for i, mi in enumerate(ms):
            own = m2 * lam[i] + g2[i]
            row = vpair[i]
            for j, mj in enumerate(ms):
                if i != j:
                    total -= mi * mj * (m2 * (row[j] + lam[j]) + own + g2[j])
            if inf_m:
                total -= 2 * mi * inf_m * (own + 1)
        return Fraction(total, m2)

    @staticmethod
    def _weight2(v, m2: int) -> int:
        # m2 times clamp(h + s, -h, h) with h = 1/m2 and s = -v
        if v is None:
            return -1
        return max(-1, min(1, 1 - m2 * v))

    def integral(self, pts, p: int, vpt) -> Fraction:
        """Exact coefficient of log p of the weight against the divisor."""
        m2 = 2 * self.branch_count(p)
        ms = [m for w, m in pts if w is not INF]
        inf_m = sum(m for w, m in pts if w is INF)
        return Fraction(sum(m * self._weight2(v, m2) for v, m in zip(vpt, ms)) + inf_m, m2)


def primes_upto(n: int) -> list[int]:
    """Sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, int(n ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytearray(len(range(q * q, n + 1, q)))
    return [q for q in range(n + 1) if sieve[q]]


def valuation(x: Fraction, p: int) -> int:
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def rational_special_primes(pts) -> set[int]:
    """Primes dividing a numerator or denominator of a root or of a
    difference of two roots; at every other prime all valuations vanish."""
    import sympy

    fin = [w for w, _ in pts if w is not INF]
    nums = set()
    for a in fin:
        nums |= {abs(a.numerator), a.denominator}
        for b in fin:
            if a != b:
                nums |= {abs((a - b).numerator), (a - b).denominator}
    out: set[int] = set()
    for n in nums:
        if n > 1:
            out |= set(sympy.factorint(n))
    return out
