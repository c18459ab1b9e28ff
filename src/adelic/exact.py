"""Exact integer and rational building blocks.

This module is the arithmetic bedrock of the package: p-adic valuations,
primitive integer polynomials, squarefree decomposition (sympy's dense
routine over ZZ: a heuristic gcd inside Yun's algorithm),
resultants via the subresultant remainder sequence, discriminants, and
Newton polygons, all in exact integer or rational arithmetic.  The one
numeric type, LogValue, keeps finite-place values as exact rational
multiples of log p and archimedean values as floats with an explicit error
bound; float_sum adds LogValues across places as floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Union

from sympy import factorint, isprime
from sympy.polys.domains import ZZ
from sympy.polys.sqfreetools import dup_sqf_list

__all__ = [
    "DomainError",
    "INF",
    "IntPoly",
    "LogValue",
    "val_p",
    "factorize",
    "require_prime",
    "content_primitive",
    "squarefree_decomposition",
    "resultant",
    "discriminant",
    "newton_polygon",
]


class DomainError(ValueError):
    """Raised when an argument lies outside an operation's domain."""


#: Marker for the valuation of a zero root (plus infinity).  A float so it
#: compares cleanly against Fraction slopes.
INF = math.inf

Rational = Union[int, Fraction]

_EPS = 2.220446049250313e-16  # double precision unit roundoff


def require_prime(p: int) -> int:
    if not isinstance(p, int) or p < 2 or not isprime(p):
        raise DomainError(f"not a prime: {p!r}")
    return p


def val_p(q: Rational, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    return _val(Fraction(q), require_prime(p))


def _val(q: Rational, p: int) -> int:
    # val_p for a p already known to be prime
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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise DomainError("cannot factor zero")
    return {int(p): int(e) for p, e in factorint(abs(n)).items()}


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
        t = _trim([int(c) for c in cs])
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

    def __call__(self, x):
        # sparse Horner: cheap on polynomials like z^n - a
        terms = [(j, c) for j, c in enumerate(self.coeffs) if c != 0]
        acc = None
        prev = 0
        for j, c in reversed(terms):
            if acc is None:
                acc, prev = c, j
            else:
                acc = acc * x ** (prev - j) + c
                prev = j
        if acc is None:
            return 0 * x
        return acc * x ** prev if prev else acc + 0 * x

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


def _deg(cs: list[int]) -> int:
    for i in range(len(cs) - 1, -1, -1):
        if cs[i]:
            return i
    return -1


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, as a raw list."""
    da, db = _deg(a), _deg(b)
    lb = b[db]
    r = list(a)
    mults = 0
    while True:
        dr = _deg(r)
        if dr < db:
            break
        top = r[dr]
        r = [lb * c for c in r]
        off = dr - db
        for i in range(db + 1):
            r[off + i] -= top * b[i]
        r[dr] = 0  # exact cancellation by construction
        mults += 1
    want = da - db + 1
    if mults < want:
        scale = lb ** (want - mults)
        r = [scale * c for c in r]
    return r


def _dup(f: IntPoly) -> list:
    # sympy's dense form: coefficients over ZZ, descending by degree
    return [ZZ(c) for c in reversed(f.coeffs)]


def squarefree_decomposition(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun decomposition of f: pairwise coprime primitive squarefree factors
    with ascending multiplicities, f = +/- content * prod f_i^(m_i), from
    sympy's dense routine over ZZ (heuristic gcd inside Yun's loop).

    Factors come out with positive leading coefficient; content and the
    overall sign are dropped (neither affects a divisor), and a constant
    gives no factors."""
    _, factors = dup_sqf_list(_dup(f), ZZ)
    return [(IntPoly.make(reversed(g)), m) for g, m in factors]


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) = lc(f)^deg(g) * lc(g)^deg(f) * prod (alpha_i - beta_j) over
    the roots alpha of f and beta of g, computed exactly with the subresultant
    remainder sequence."""
    if f.degree == 0 and g.degree == 0:
        return 1
    s = 1
    A, B = list(f.coeffs), list(g.coeffs)
    if _deg(A) < _deg(B):
        if (_deg(A) & 1) and (_deg(B) & 1):
            s = -s
        A, B = B, A
    ca = _content(A)
    cb = _content(B)
    A = [c // ca for c in A]
    B = [c // cb for c in B]
    t = ca ** _deg(B) * cb ** _deg(A)
    gg = 1
    hh = 1
    while _deg(B) > 0:
        dA, dB = _deg(A), _deg(B)
        delta = dA - dB
        if (dA & 1) and (dB & 1):
            s = -s
        R = _prem(A, B)
        if _deg(R) < 0:
            return 0
        denom = gg * hh ** delta
        A = B
        B = [c // denom for c in R[: _deg(R) + 1]]
        gg = A[_deg(A)]
        if delta:  # h is unchanged when the degree drops by zero steps
            hh = gg ** delta // hh ** (delta - 1)
    dA = _deg(A)
    lB = B[0]
    h_final = lB ** dA // hh ** (dA - 1) if dA >= 1 else 1
    return s * t * h_final


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
    require_prime(p)
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
    quantities carry a float plus a nonnegative error bound.  An exact zero
    has base None and combines with any base.
    """

    coeff: Fraction | None
    base: int | None
    value: float
    err: float

    # -- constructors --------------------------------------------------
    @staticmethod
    def exact_log(coeff: Rational, base: int) -> "LogValue":
        c = Fraction(coeff)
        if c == 0:
            return LogValue.zero()
        v = float(c) * math.log(base)
        return LogValue(c, base, v, 0.0)

    @staticmethod
    def real(value: float, err: float = 0.0) -> "LogValue":
        return LogValue(None, None, float(value), float(err))

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(Fraction(0), None, 0.0, 0.0)

    @staticmethod
    def minus_infinity() -> "LogValue":
        return LogValue(None, None, -math.inf, 0.0)

    # -- predicates ----------------------------------------------------
    @property
    def is_exact(self) -> bool:
        return self.coeff is not None

    @property
    def is_minus_infinity(self) -> bool:
        return self.value == -math.inf

    # -- arithmetic ----------------------------------------------------
    def _as_float(self) -> tuple[float, float]:
        if self.coeff is None:
            return self.value, self.err
        return self.value, self.err + 2.0 * _EPS * (abs(self.value) + 1e-300)

    def __add__(self, other: "LogValue") -> "LogValue":
        if not isinstance(other, LogValue):
            return NotImplemented
        if self.is_minus_infinity or other.is_minus_infinity:
            return LogValue.minus_infinity()
        if self.is_exact and other.is_exact:
            if self.coeff == 0:
                return other
            if other.coeff == 0:
                return self
            if self.base == other.base:
                return LogValue.exact_log(self.coeff + other.coeff, self.base)
            raise DomainError("cannot add exact logs at different primes")
        a, ea = self._as_float()
        b, eb = other._as_float()
        return LogValue.real(a + b, ea + eb + _EPS * (abs(a + b) + 1e-300))

    def __neg__(self) -> "LogValue":
        if self.is_exact:
            if self.coeff == 0:
                return self
            return LogValue.exact_log(-self.coeff, self.base)
        return LogValue(None, None, -self.value, self.err)

    def __sub__(self, other: "LogValue") -> "LogValue":
        return self + (-other)

    def scaled(self, k: Rational) -> "LogValue":
        k = Fraction(k)
        if self.is_exact:
            if k == 0 or self.coeff == 0:
                return LogValue.zero()
            return LogValue.exact_log(self.coeff * k, self.base)
        kf = float(k)
        return LogValue(None, None, self.value * kf, self.err * abs(kf)
                        + _EPS * abs(self.value * kf))

    def to_json(self) -> dict:
        if self.is_exact and self.coeff != 0:
            return {"coeff": str(self.coeff), "log_base": self.base}
        if self.is_exact:
            return {"coeff": "0", "log_base": None}
        return {"value": self.value, "err": self.err}

    def __repr__(self) -> str:
        if self.is_exact:
            if self.coeff == 0:
                return "LogValue(0)"
            return f"LogValue({self.coeff}*log{self.base})"
        return f"LogValue({self.value}+/-{self.err:.2g})"


def float_sum(values: Iterable[LogValue]) -> tuple[float, float]:
    """Sum LogValues across places as floats, returning (value, error bound).

    The sum is rounded once (math.fsum), so its error is the terms' own
    errors plus one rounding of the total.
    """
    xs, errs = [], []
    for v in values:
        if v.is_minus_infinity:
            return -math.inf, 0.0
        x, e = v._as_float()
        xs.append(x)
        errs.append(e)
    tot = math.fsum(xs)
    return tot, math.fsum(errs) + _EPS * abs(tot)
