"""Exact integer and rational building blocks.

This module is the arithmetic bedrock of the package: p-adic valuations,
primality proven below 3.3e24 (a numpy sieve, then Miller-Rabin to as
many of the first 13 prime bases as n's size needs; nothing is called
prime at or above that bound), trial division below 2^15 and a
coprime base by gcds in place of factorization, so no call's effort grows
without bound with integer size, primitive integer polynomials,
squarefree decomposition (Yun's algorithm over a heuristic gcd), one
subresultant remainder sequence that gives the gcd's fallback and the
resultants of sparse or low-degree inputs, a multi-modular resultant (CRT
over primes below 2^31, in numpy, one reduction mod p per Euclidean step)
for dense inputs of high degree, discriminants, and Newton polygons, all
in exact integer or rational arithmetic.  The one numeric type, LogValue,
keeps finite-place values as exact rational multiples of log p and
archimedean values as balls, a float and an err bounding its distance from
the true value: each float operation here adds its own rounding, and
_arch_sum_err that of LocalData's loops."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import islice, zip_longest
from typing import Iterable, Union

import numpy as np

__all__ = [
    "DomainError",
    "INF",
    "IntPoly",
    "LogValue",
    "val_p",
    "float_sum",
    "squarefree_decomposition",
    "resultant",
    "discriminant",
    "newton_polygon",
]


class DomainError(ValueError):
    """Raised when an argument lies outside an operation's domain."""


def _index(x, what: str) -> int:
    # x as an int if it is one (bools and numpy integers are); a float, str
    # or Fraction is refused, never truncated
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError("%s must be an integer, got %r" % (what, x)) from None


def _rational(q) -> Fraction:
    # q as a Fraction (ints, Fractions, finite floats and decimal strings
    # are); a NaN, an infinity or a non-number is refused
    try:
        return Fraction(q)
    except (ValueError, OverflowError, TypeError):
        raise DomainError("not a finite rational: %r" % (q,)) from None


#: Marker for the valuation of a zero root (plus infinity).  A float so it
#: compares cleanly against Fraction slopes.
INF = math.inf

Rational = Union[int, Fraction]

#: The unit roundoff u: a rounded float operation is within u, relative, and an ulp.
_EPS = 2.0 ** -53
#: libm's log and log1p are assumed within _LIBM ulp (glibc documents 1).
_LIBM = 2


def _up(*terms: float) -> float:
    """An upper bound on the exact sum of nonnegative floats each at most two
    roundings low: 1 + 4u undoes (1 - u)^3 with fsum's; nextafter rounds up."""
    return math.nextafter(math.fsum(terms) * (1.0 + 4.0 * _EPS), math.inf)


def _up_each(a: np.ndarray, b=0.0) -> np.ndarray:
    """_up(a, b) elementwise over numpy arrays: a + b rounds once, as fsum
    does.  hypot, within 1 ulp, counts as two roundings (1 + 4u leaves
    room for it)."""
    return np.nextafter((a + b) * (1.0 + 4.0 * _EPS), np.inf)


def _down(a, b):
    """A lower bound on a - b, for a >= 0 at most three roundings high and b
    an upper bound: (1 + u)^4 (1 - 4u) < 1, and nextafter rounds down.
    Floats or numpy arrays, elementwise."""
    x = a * (1.0 - 4.0 * _EPS) - b
    if isinstance(x, np.ndarray):
        return np.nextafter(x, -np.inf)
    return math.nextafter(x, -math.inf)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), rounded up: a product of n factors
    1 + delta, |delta| <= u, lies within 1 +- gamma_n (requires n u < 1)."""
    return _up(n * _EPS / (1.0 - n * _EPS))


def _arch_sum_err(size: float, lip: float = 0.0, n: int = 1) -> float:
    """err of one of LocalData's archimedean sums over n terms or n pairs:
    24u size plus lip, both grown by 1 + 2(n + 8)u.

    A moment is an fsum of terms w x in plain floats, w = m or m^2 (exact),
    x a round term 0.5 log1p(|z|^2) or a weight g(z).  With libm at 4u
    (_LIBM ulp) relative, g(z) = shift - 0.5 log1p(r^2), r <= 1, is 3.2u +
    u |g| off and a round term 2.5u + 4u |x|; rounding w x and the fsum add
    u |w x| each: 24u times size = sum w (1 + G + |x|), G = max |g| on the
    support, covers them.

    The pairing, the sum over i < j of w (log d - g_i - g_j) with w = 2 m_i
    m_j and d = [z_i, z_j], is read from row products (LocalData._pair_sum):
    it is the fsum of 2 m_i k log F for each row i and multiplicity k, F the
    product of the np.frexp mantissas of the row's d to later points of
    multiplicity k; of 2E log 2, E the exact sum of m_i m_j times the
    exponents; and of -2 m_i (M - m_i) g_i, M = sum m.  Per unit of w: with
    hypot at 2u, d is chordal_arch's and 13u off relative (z - z' u, abs
    2u, each sqrt(1 + |z|^2) 4u, * and / u), which is 13u on log d; a
    product of K mantissas, each at least 1/2 and so normal while K < 1022,
    is gamma_{K-1} off, u per factor; the two g's and the products with
    them cost 6.4u + 4G u.  Each log F is 4u |log F| off and 2 m_i k log F
    rounds u; math.log(2) is 2u off, so 2E log 2 is (2 + log 2)u |2E| off;
    the fsum rounds u |value| <= u (A + B + 2G W).  With A = sum |2 m_i k
    log F|, B = |2E| log 2 and W = sum w = M^2 - sum m^2, the error is at
    most (20.4 + 6G)u W + 6u A + 4.9u B: 24u times size = (1 + G) W + (A +
    B) / 4 covers it, with 3.6u W to spare for second-order terms.  When
    every d < 1, A + B is sum w |log d|, read off the row logs with no
    per-pair log.

    lip sums slope times radius, bounding what a point's distance from its
    root does to x: for a pair, w (1/sep + 1/2 + lip)(r_i + r_j), sep the
    root disks' gap.  size and lip sum n floats each at most 8 roundings
    low, which 1 + 2(n + 8)u undoes."""
    grow = 1.0 + 2.0 * (n + 8) * _EPS
    return _up(grow * 24.0 * _EPS * size, grow * lip)


def require_prime(p: int) -> int:
    """p as an int, if isprime proves it prime; else DomainError, naming
    _MR_LIMIT for a p at or above it."""
    p = _index(p, "a prime")
    if isprime(p):
        return p
    if p >= _MR_LIMIT:
        raise DomainError(f"not a proven prime: {p} is not below {_MR_LIMIT},"
                          " the bound below which primality is proven")
    raise DomainError(f"not a prime: {p!r}")


def val_p(q: Rational, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    return _val(_rational(q), require_prime(p))


def _val(q: Rational, p: int) -> int:
    # val_p for a p already known to be prime; for an element b of a coprime
    # base, how often b divides q, the v_b that a base place reads
    n, d = q.numerator, q.denominator
    if n == 0:
        raise DomainError("valuation of zero is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


# a numpy sieve of Eratosthenes, built on first use and grown on demand;
# _sieve[k] is True iff k is prime
_sieve = np.zeros(0, dtype=bool)


def _sieve_to(n: int) -> np.ndarray:
    """The sieve, grown to cover every k < n."""
    global _sieve
    if n > len(_sieve):
        size = max(n, 2 * len(_sieve), 1 << 16)
        s = np.ones(size, dtype=bool)
        s[:2] = False
        for p in range(2, math.isqrt(size - 1) + 1):
            if s[p]:
                s[p * p::p] = False
        _sieve = s
    return _sieve


def _primes_below(n: int) -> list[int]:
    """The primes p < n, ascending."""
    return np.flatnonzero(_sieve_to(n)[:n]).tolist()


#: The first 13 primes: trial divisors and Miller-Rabin bases of isprime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: Below this, the 13 bases above prove primality (Sorenson & Webster,
#: Math. Comp. 86 (2017)); at and above it isprime proves nothing, so no
#: Place, valuation or Berkovich point is built at a prime there.
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
#: (bound, k): below bound the first k bases prove primality, as each bound
#: is the least strong pseudoprime to all of the first k bases (Jaeschke,
#: Math. Comp. 61 (1993); Sorenson & Webster).
_MR_GRADES = ((1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
              (2_152_302_898_747, 5), (3_474_749_660_383, 6),
              (341_550_071_728_321, 7), (3_825_123_056_546_413_051, 9),
              (318_665_857_834_031_151_167_461, 12), (_MR_LIMIT, 13))


def isprime(n: int) -> bool:
    """Whether n is a proven prime: read from the sieve where it reaches,
    else trial division by _MR_BASES, then strong probable-prime tests to
    as many of _MR_BASES as n's grade in _MR_GRADES needs, a proof below
    _MR_LIMIT.  At and above _MR_LIMIT nothing is proven: False."""
    if n < 2 or n >= _MR_LIMIT:
        return False
    if n < len(_sieve):
        return bool(_sieve[n])
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    k = next(k for bound, k in _MR_GRADES if n < bound)
    return all(_strong_prp(n, a) for a in _MR_BASES[:k])


def _strong_prp(n: int, a: int) -> bool:
    # Miller-Rabin: n odd is a strong probable prime to base a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


#: Trial division runs over the primes below _SMALL, so a rest below
#: _SMALL**2 is 1 or prime.
_SMALL = 1 << 15


def _trial_division(n: int) -> tuple[dict[int, int], int]:
    """Trial division of n >= 1 by the primes below 2^15: {p: exponent}
    over those dividing n, and the rest of n, which has none of them."""
    out: dict[int, int] = {}
    root = math.isqrt(n)
    for p in _primes_below(_SMALL):
        if p > root:
            # n is 1 or a prime; keep it here if it is below the bound
            if 1 < n < _SMALL:
                out[n], n = 1, 1
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
            root = math.isqrt(n)
    return out, n


def _coprime_base(ns: Iterable[int], against: Iterable[int]) -> set[int]:
    """Pairwise coprime b >= 2 whose primes are those of the ns, each
    dividing every nonzero x of the ns and of against to an exact power (x
    = b^k y, gcd(b, y) = 1), by factor refinement (Bach, Driscoll &
    Shallit, J. Algorithms 15 (1993)): a number sharing g > 1 with an
    element b gives way to g, b / g and its own quotient by g.  Each step
    divides the product of what is left by g, so the effort is bounded by
    the numbers' size.  Of each x, only its part over the ns' primes
    takes part."""
    ns = [n for n in ns if n > 1]
    m = math.prod(ns)
    todo = ns + [_part(abs(x), m) for x in against if x] if ns else []
    base: list[int] = []
    while todo:
        n = todo.pop()
        for i, b in enumerate(base):
            if (g := math.gcd(n, b)) > 1:
                del base[i]
                todo += [k for k in (g, b // g, n // g) if k > 1]
                break
        else:
            if n > 1:
                base.append(n)
    return set(base)


def _part(x: int, m: int) -> int:
    # the largest divisor of x >= 1 whose primes all divide m
    out, g = 1, math.gcd(x, m)
    while g > 1:
        out *= g
        x //= g
        g = math.gcd(x, g)
    return out


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

def _trim(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class IntPoly:
    """Nonzero polynomial in Z[z], coefficients ascending by degree."""

    coeffs: tuple[int, ...]

    @staticmethod
    def make(cs: Iterable[int]) -> "IntPoly":
        t = _trim([_index(c, "a coefficient") for c in cs])
        if not t:
            raise DomainError("zero polynomial")
        return IntPoly(t)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        return self.coeffs[-1]

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) == 1

    def derivative(self) -> "IntPoly":
        if self.is_constant:
            raise DomainError("derivative of a constant is zero")
        return IntPoly(_trim([j * c for j, c in enumerate(self.coeffs)][1:]))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(_trim(out))

    def add_scalar(self, c: int) -> "IntPoly":
        cs = list(self.coeffs)
        cs[0] += c
        return IntPoly.make(cs)

    def scale(self, c: int) -> "IntPoly":
        if c == 0:
            raise DomainError("scaling by zero")
        return IntPoly(tuple(c * x for x in self.coeffs))

    def __str__(self) -> str:
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                zj = "z" if j == 1 else f"z^{j}"
                parts.append(zj if c == 1 else f"-{zj}" if c == -1 else f"{c}*{zj}")
        return " + ".join(parts).replace("+ -", "- ") or "0"


def _content(cs: Iterable[int]) -> int:
    return reduce(math.gcd, (abs(c) for c in cs), 0)


def content_primitive(f: IntPoly) -> tuple[int, IntPoly]:
    """Split f = content * primitive with content > 0; sign stays on the
    primitive part."""
    c = _content(f.coeffs)
    return c, IntPoly(tuple(x // c for x in f.coeffs))


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, trimmed; a and
    b trimmed with deg a >= deg b."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    owed = len(a) - db  # factors of lc(b) still to multiply in
    while len(r) > db:
        top = r.pop()
        off = len(r) - db
        r = [lb * c for c in r[:off]] + [lb * c - top * d for c, d in zip(r[off:], b)]
        owed -= 1
        while r and not r[-1]:
            r.pop()
    if owed:
        scale = lb ** owed
        r = [scale * c for c in r]
    return r


def squarefree_decomposition(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun decomposition of f: pairwise coprime primitive squarefree factors
    with ascending multiplicities, f = +/- content * prod f_i^(m_i), from
    Yun's algorithm over Z with a heuristic gcd (_gcd).

    Factors come out with positive leading coefficient; content and the
    overall sign are dropped (neither affects a divisor), and a constant
    gives no factors."""
    _, prim = content_primitive(f)
    if prim.is_constant:
        return []
    p = list(prim.coeffs) if prim.lc > 0 else [-c for c in prim.coeffs]
    _, p, q = _gcd(p, _diff(p))
    out: list[tuple[IntPoly, int]] = []
    for i in range(1, f.degree + 1):
        h = _sub(q, _diff(p))
        if not h:
            out.append((IntPoly(tuple(p)), i))
            return out
        a, p, q = _gcd(p, h)
        if len(a) > 1:
            out.append((IntPoly(tuple(a)), i))
    raise AssertionError("Yun's loop outran the degree: a gcd was wrong")


# Dense helpers on coefficient lists, ascending by degree, with no trailing
# zero; [] is the zero polynomial.

def _diff(f: list[int]) -> list[int]:
    return [j * c for j, c in enumerate(f)][1:]


def _sub(f: list[int], g: list[int]) -> list[int]:
    return list(_trim([a - b for a, b in zip_longest(f, g, fillvalue=0)]))


def _primitive(f: list[int]) -> list[int]:
    c = _content(f)
    return [a // c for a in f]


def _quo(f: list[int], h: list[int]) -> list[int] | None:
    # f / h if h divides f in Z[z], else None; for primitive h, division in
    # Q[z] is division in Z[z] (Gauss), so each step's quotient is integral
    dh, lh = len(h) - 1, h[-1]
    r = list(f)
    q = [0] * (len(f) - dh)
    for k in range(len(f) - 1 - dh, -1, -1):
        c, rem = divmod(r[k + dh], lh)
        if rem:
            return None
        q[k] = c
        if c:
            for i in range(dh):
                r[k + i] -= c * h[i]
    return None if not q or any(r[:dh]) else q


def _gcd(f: list[int], g: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(h, f / h, g / h) for h = gcd(f, g) in Z[z] with lc(h) > 0, f and g
    nonzero.

    The heuristic gcd of Char, Geddes & Gonnet (J. Symb. Comp. 7 (1989)):
    the symmetric xi-adic digits of gcd(f(xi), g(xi)) are the candidate, and
    its primitive part is the gcd once it divides both.  xi starts at
    max(min(B, 99 sqrt(B)), 2 min(|f|/|lc f|, |g|/|lc g|) + 4) with
    B = 2 min(|f|, |g|) + 29 in the max norm: at least twice Cauchy's root
    bound, so a common divisor found is the greatest.  xi grows after a
    miss; after six misses the subresultant remainder sequence decides."""
    c = math.gcd(_content(f), _content(g))
    f, g = [a // c for a in f], [a // c for a in g]
    if len(f) == 1 or len(g) == 1:
        return [c], f, g
    nf, ng = max(map(abs, f)), max(map(abs, g))
    B = 2 * min(nf, ng) + 29
    x = max(min(B, 99 * math.isqrt(B)), 2 * min(nf // abs(f[-1]), ng // abs(g[-1])) + 4)
    for _ in range(6):
        ff, gg = _eval(f, x), _eval(g, x)
        if ff and gg:
            h = _primitive(_xi_digits(math.gcd(ff, gg), x))
            if (cf := _quo(f, h)) is not None and (cg := _quo(g, h)) is not None:
                break
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    else:
        A, B, _, _ = _subresultants(f, g)
        h = _primitive(B or A)
        if h[-1] < 0:
            h = [-a for a in h]
        cf, cg = _quo(f, h), _quo(g, h)
    return [c * a for a in h], cf, cg


def _eval(f: list[int], x: int) -> int:
    v = 0
    for c in reversed(f):
        v = v * x + c
    return v


def _xi_digits(v: int, x: int) -> list[int]:
    # the polynomial with digits in (-x/2, x/2] whose value at x is v > 0
    out = []
    while v:
        d = v % x
        if d > x // 2:
            d -= x
        out.append(d)
        v = (v - d) // x
    return out


def _subresultants(A: list[int], B: list[int]) -> tuple[list[int], list[int], int, int]:
    """The subresultant remainder sequence of A and B, nonzero and trimmed
    (Collins, J. ACM 14 (1967); Brown & Traub, J. ACM 18 (1971)), run until
    its last member is a constant or zero: (A, B, s, h), its last two
    members, its sign and its last h.

    The sequence starts from the input of higher degree, and s collects
    (-1)^(deg A deg B) for that swap and for each step.  The returned B is
    zero iff the inputs share a root; the last nonzero member is their gcd
    up to content."""
    s, g, h = 1, 1, 1
    if len(A) < len(B):
        A, B = B, A
        if (len(A) - 1) * (len(B) - 1) % 2:
            s = -s
    while len(B) > 1:
        delta = len(A) - len(B)
        if (len(A) - 1) * (len(B) - 1) % 2:
            s = -s
        R = _prem(A, B)
        div = g * h ** delta
        A, B = B, [c // div for c in R]
        g = A[-1]
        if delta:  # h^(1 - delta) g^delta, which is h for delta = 0
            h = g ** delta // h ** (delta - 1)
    return A, B, s, h


#: resultant takes the modular route when the larger degree is at least
#: this and at most an eighth of each input's coefficients are zero.  On
#: Res(f, f') of dense f with lc 50, best of 5 on 8 inputs a degree, the
#: modular route won every input at degrees 52-64 (3.7 against 5.0 ms at
#: 52) and lost every one at 24-40; 44-48 is about even
_MODULAR_MIN_DEGREE = 52
#: The modular route's primes lie in [2^31 - _WINDOW, 2^31): about 3000
#: primes, whose product covers a Hadamard bound of 93,000 bits
_WINDOW = 1 << 16


@lru_cache(maxsize=None)
def _window_primes() -> list[int]:
    """The primes in [2^31 - _WINDOW, 2^31), descending, from a segmented
    sieve over the primes below 46341 > sqrt(2^31); built on the first
    modular call."""
    lo = (1 << 31) - _WINDOW
    seg = np.ones(_WINDOW, dtype=bool)
    for p in _primes_below(46341):
        seg[-lo % p::p] = False
    return (lo + np.flatnonzero(seg)[::-1]).tolist()


def _residues(cs: list[int], p: np.ndarray) -> np.ndarray:
    # cs mod each prime of the column p: rows are primes, columns the cs
    if max(map(abs, cs)) >> 62:
        return np.array([[c % q for c in cs] for q in p[:, 0].tolist()], dtype=np.int64)
    return np.array(cs, dtype=np.int64) % p


def _powmod(x: np.ndarray, e: int, p: np.ndarray) -> np.ndarray:
    # x^e mod p elementwise, for e >= 0 and x < p < 2^31
    out = np.ones_like(x)
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def _modular_resultant(A: list[int], B: list[int]) -> int | None:
    """Res(A, B) for nonzero trimmed A and B by Collins' modular method
    (J. ACM 18 (1971)), or None when too few primes stay usable, as they
    do not when the resultant is zero.

    The primes are those of _window_primes() that do not divide
    lc(A) lc(B), taken until their product M passes 2 |A|_2^deg B
    |B|_2^deg A, Hadamard's bound on |Res|, and three more; a window whose
    primes cannot pass the bound is refused before any arithmetic.  The
    Euclidean remainder sequence runs on all of them at once, as rows of
    uint64 arrays with the leading coefficient first, by Res(A, B) =
    (-1)^(deg A deg B) lc(B)^(deg A - deg R) Res(B, R) and Res(B, cR) =
    c^deg B Res(B, R).  Each step is one pseudo-division, R = lc(B)^(d+1) A
    - Q B with d = deg A - deg B: Q's d + 1 coefficients come from A's
    leading d + 1 columns, then R from one pass that sums products of
    residues and reduces them mod p once, and also after every third
    product when d >= 2.  The powers of lc(B) go to one denominator per
    prime, inverted once at the end.  A prime whose remainder falls below
    the others' degree, or vanishes, is dropped; on a step where every
    remainder keeps degree deg B - 1 only R's leading column is read.
    Garner's CRT of all primes left but the last gives the symmetric
    residue, which is Res when their product still passes the bound; the
    last prime checks it."""
    a, b, s = len(A) - 1, len(B) - 1, 1
    if a < b:
        A, B, a, b = B, A, b, a
        s = (-1) ** (a * b)
    need = math.isqrt(4 * sum(c * c for c in A) ** b * sum(c * c for c in B) ** a)
    lcs = A[-1] * B[-1]
    usable = (q for q in _window_primes() if lcs % q)
    primes, M = [], 1
    for q in usable:
        primes.append(q)
        M *= q
        if M > need:
            break
    else:
        return None  # the window cannot pass the bound
    primes.extend(islice(usable, 3))
    p = np.array(primes, dtype=np.int64)[:, None]
    # residues lie below p < 2^31, so as uint64 a sum of three products of
    # two residues, plus one more residue, stays below 2^64
    F, G = _residues(A[::-1], p).view(np.uint64), _residues(B[::-1], p).view(np.uint64)
    p = p.view(np.uint64)
    den = acc = np.ones_like(p)
    while b > 0:
        d, lb = a - b, G[:, :1]
        # pseudo-division's d + 1 quotient multipliers t_k read only F's
        # first d + 1 columns: step k scales the columns after k by lb and
        # takes t_k G from them, t_k being column k when step k starts
        T = F[:, :d + 1].copy()
        for k in range(d):
            w = min(d - k, b)
            T[:, k + 1:] *= lb
            T[:, k + 1:k + 1 + w] += (p - T[:, k:k + 1]) * G[:, 1:w + 1]
            T[:, k + 1:] %= p
        # then R = lb^(d+1) F[d+1:] - sum_k lb^(d-k) t_k G[d+1-k:] in one
        # pass, reduced after every third product and once at the end
        pw = [np.ones_like(p), lb]
        for _ in range(d):
            pw.append(pw[-1] * lb % p)
        C, y = p - T * np.hstack(pw[d::-1]) % p, pw[-1]
        R = F[:, d + 1:] * y
        ks = range(d, max(d - b, -1), -1)  # the k whose t_k G reaches R
        for n, k in enumerate(ks, 2):
            R[:, :b - d + k] += C[:, k:k + 1] * G[:, d + 1 - k:]
            if n % 3 == 0 or k == ks[-1]:
                R %= p
        if R[:, 0].all():  # the normal step: every prime keeps degree b - 1
            m = 0
        else:
            nonzero = R != 0
            lead = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), b)
            m = int(lead.min())
            if m == b:
                return None
            keep = lead == m
            p, den, acc, G, R = p[keep], den[keep], acc[keep], G[keep], R[keep, m:]
            lb, y = lb[keep], y[keep]
        r = b - 1 - m
        # lc(B)'s exponent a - r - (a - b + 1) b is -((a - b)(b - 1) + r) <= 0,
        # that is -(d m + (d + 1) r): lb^(d m) goes into den now, and y^r =
        # lb^((d + 1) r) later, as each later step multiplies den by acc, the
        # product of the earlier steps' y, once per degree it drops
        owed = _powmod(acc, m + 1, p) * _powmod(lb, m * d, p) % p if m else acc
        den, acc = den * owed % p, acc * y % p
        s *= (-1) ** (a * b)
        F, G = G, R
        a, b = b, r
    *primes, spare = p[:, 0].tolist()
    if math.prod(primes) <= need:
        return None
    num = _powmod(G[:, :1], a, p)
    *res, check = [n * pow(d, -1, q) % q for n, d, q
                   in zip(num[:, 0].tolist(), den[:, 0].tolist(), p[:, 0].tolist())]
    x, M = 0, 1
    for q, v in zip(primes, res):
        x += (v - x) * pow(M, -1, q) % q * M
        M *= q
    x = x - M if 2 * x > M else x
    if x % spare != check:
        raise AssertionError("the modular resultant disagrees with its spare prime")
    return s * x


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) = lc(f)^deg(g) * lc(g)^deg(f) * prod (alpha_i - beta_j) over
    the roots alpha of f and beta of g, computed exactly from their
    primitive parts.

    Two routes give the same integer.  When the larger degree is at least
    _MODULAR_MIN_DEGREE and both parts are dense (at most an eighth of
    their coefficients zero), _modular_resultant runs CRT over primes below
    2^31.  Everywhere else, and whenever that route refuses, the
    subresultant remainder sequence decides: on sparse inputs such as
    z^n - a or iterates of z^2 + c the true resultant is far below the
    Hadamard bound that fixes the number of primes."""
    cf, pf = content_primitive(f)
    cg, pg = content_primitive(g)
    r = None
    if max(f.degree, g.degree) >= _MODULAR_MIN_DEGREE and all(
            8 * h.coeffs.count(0) <= len(h.coeffs) for h in (pf, pg)):
        r = _modular_resultant(list(pf.coeffs), list(pg.coeffs))
    if r is None:
        A, B, s, h = _subresultants(list(pf.coeffs), list(pg.coeffs))
        # Res of the primitive parts is s B[0]^d / h^(d - 1) with d = deg A;
        # B[0]^d h // h^d is that quotient with no negative power at d = 0
        d = len(A) - 1
        r = s * (B[0] ** d * h // h ** d) if B else 0
    return cf ** g.degree * cg ** f.degree * r


def discriminant(f: IntPoly) -> Fraction:
    """disc(f) = lc^(2d-2) * prod_{i<j} (alpha_i - alpha_j)^2, computed as
    (-1)^(d(d-1)/2) * Res(f, f') / lc(f).  Always an integer for f in Z[z]."""
    d = f.degree
    if d < 1:
        raise DomainError("discriminant needs degree >= 1")
    if d == 1:
        return Fraction(1)
    r = resultant(f, f.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    out = Fraction(sign * r, f.lc)
    if out.denominator != 1:
        raise AssertionError("discriminant was not integral")
    return out


def newton_polygon(f: IntPoly, p: int) -> list:
    """Multiset of valuations v_p(alpha) over the roots alpha of f in an
    algebraic closure of Q_p, from the lower convex hull of the points
    (j, v_p(c_j)).  Zero roots appear as INF entries.  Sorted ascending,
    INF entries last."""
    p = require_prime(p)
    if f.degree == 0:
        return []
    pts = [(j, _val(c, p)) for j, c in enumerate(f.coeffs) if c != 0]
    j0 = pts[0][0]
    vals: list = []
    hull: list[tuple[int, int]] = []
    for x, y in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop middle points on or above the segment (lower hull)
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append((x, y))
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        vals.extend([-slope] * (x2 - x1))
    vals.sort()
    return vals + [INF] * j0


# ---------------------------------------------------------------------------
# LogValue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogValue:
    """A logarithmic quantity attached to one place.

    Finite places carry an exact rational coefficient: the value is
    coeff * log(base) with base the residue prime.  Archimedean (or mixed)
    quantities are balls: the true value lies within err of the float value,
    and each float operation adds its rounding to err.  An exact zero has
    base None and combines with any base.
    """

    coeff: Fraction | None
    base: int | None
    value: float
    err: float

    # -- constructors --------------------------------------------------
    @staticmethod
    def exact_log(coeff: Rational, base: int) -> "LogValue":
        if not coeff:
            return _ZERO
        # Fraction(c) of a Fraction costs a microsecond and returns an equal copy
        c = coeff if type(coeff) is Fraction else Fraction(coeff)
        v = float(c) * math.log(base)
        return LogValue(c, base, v, 0.0)

    @staticmethod
    def real(value: float, err: float = 0.0) -> "LogValue":
        return LogValue(None, None, float(value), float(err))

    @staticmethod
    def zero() -> "LogValue":
        return _ZERO

    @staticmethod
    def minus_infinity() -> "LogValue":
        return LogValue(None, None, -math.inf, 0.0)

    @staticmethod
    def _log(q: Rational | float) -> "LogValue":
        # log q > 0 from the correctly rounded n / d, u off relative unless
        # exact; out of the float range, log(q / 2^k) + k log 2
        n, d = q.as_integer_ratio()
        k = n.bit_length() - d.bit_length()
        if abs(k) > 1000:
            return LogValue._log(Fraction(n, d) / Fraction(2) ** k) + LogValue._log(2).scaled(k)
        y = math.log(x := n / d)
        return LogValue(None, None, y, _up(_LIBM * math.ulp(y), 0.0 if x == q else _EPS))

    # -- predicates ----------------------------------------------------
    @property
    def is_exact(self) -> bool:
        return self.coeff is not None

    @property
    def is_minus_infinity(self) -> bool:
        return self.value == -math.inf

    # -- arithmetic ----------------------------------------------------
    def _as_float(self) -> tuple[float, float]:
        # float(coeff) * math.log(p): u, 2 _LIBM u (2.5u past the float range),
        # u for the product and 0.5u to spare, relative; nextafter below that
        if self.coeff is None or not self.coeff:
            return self.value, self.err
        return self.value, _up((2.5 + 2 * _LIBM) * _EPS * abs(self.value))

    def __add__(self, other: "LogValue") -> "LogValue":
        if not isinstance(other, LogValue):
            return NotImplemented
        if self.is_exact and other.is_exact:
            if self.base == other.base or not self.coeff or not other.coeff:
                return LogValue.exact_log(self.coeff + other.coeff, self.base or other.base)
            raise DomainError("cannot add exact logs at different primes")
        return LogValue.real(*float_sum((self, other)))

    def __neg__(self) -> "LogValue":
        if self.is_exact:
            return LogValue.exact_log(-self.coeff, self.base)
        return LogValue(None, None, -self.value, self.err)

    def __sub__(self, other: "LogValue") -> "LogValue":
        return self + (-other)

    def scaled(self, k: Rational) -> "LogValue":
        if self.is_exact:
            return LogValue.exact_log(self.coeff * k, self.base)
        # an ulp for the product, and (|value| + err) ulp(kf) if kf rounds k
        kf = float(k)
        x = self.value * kf
        rounds = kf.as_integer_ratio() != k.as_integer_ratio()
        off = (abs(self.value) + self.err) * math.ulp(kf) if rounds else 0.0
        return LogValue(None, None, x, _up(self.err * abs(kf), math.ulp(x), off))

    def to_json(self) -> dict:
        if self.is_exact:  # the exact zero's base is None
            return {"coeff": str(self.coeff), "log_base": self.base}
        return {"value": self.value, "err": self.err}

    def __repr__(self) -> str:
        if self.is_exact:
            if self.coeff == 0:
                return "LogValue(0)"
            return f"LogValue({self.coeff}*log{self.base})"
        return f"LogValue({self.value}+/-{self.err:.2g})"


# the exact zero; LogValue is frozen, so one instance serves every caller
_ZERO = LogValue(Fraction(0), None, 0.0, 0.0)


def float_sum(values: Iterable[LogValue]) -> tuple[float, float]:
    """Sum LogValues as floats: (value, err), or (-inf, 0) if a value is
    -inf.  math.fsum rounds once in any order (an ulp); the errs add."""
    balls = [v._as_float() for v in values]
    tot = math.fsum(x for x, _ in balls)
    if tot == -math.inf:
        return tot, 0.0
    return tot, _up(math.ulp(tot), *(e for _, e in balls))
