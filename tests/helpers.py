"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
from sympy.polys.domains import ZZ
from sympy.polys.sqfreetools import dup_sqf_list

from adelic.berkovich import INF_POINT
from adelic.divisors import EffectiveDivisor, divisor_from_poly
from adelic.exact import DomainError, IntPoly, val_p


def sympy_sqf(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """The squarefree oracle: sympy's dense decomposition over ZZ."""
    _, factors = dup_sqf_list([ZZ(c) for c in reversed(f.coeffs)], ZZ)
    return [(IntPoly.make(reversed(g)), m) for g, m in factors]


def dstar_cofactor(Z: EffectiveDivisor) -> int:
    """The cofactor oracle: |num(d*)| with every element of Z.primes, a
    prime or a base element, divided out, the C of a report whose weight
    lists no prime."""
    out = abs(Z.d_star.numerator)
    for b in Z.primes:
        while out % b == 0:
            out //= b
    return out


def random_divisor(rng: random.Random, max_deg: int = 8,
                   coeff_bound: int = 20, allow_inf: bool = True) -> EffectiveDivisor:
    """A random integer divisor, occasionally non-squarefree, never constant."""
    while True:
        d = rng.randint(1, max_deg)
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(d)]
        coeffs.append(rng.choice([1, -1]) * rng.randint(1, coeff_bound))
        if rng.random() < 0.25:
            # square a small factor to exercise multiplicities
            extra = IntPoly.make([rng.randint(-3, 3), 1])
            f = IntPoly.make(coeffs) * extra * extra
            coeffs = list(f.coeffs)
        inf_mult = rng.choice([0, 0, 0, 1, 2]) if allow_inf else 0
        try:
            return divisor_from_poly(coeffs, inf_mult)
        except DomainError:
            continue


def rational_root_divisor(rng: random.Random, max_roots: int = 5
                          ) -> tuple[EffectiveDivisor, list[tuple[Fraction, int]]]:
    """A divisor with all roots rational, together with the root list."""
    while True:
        n = rng.randint(2, max_roots)
        roots = {}
        for _ in range(n):
            q = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
            roots[q] = rng.choice([1, 1, 2])
        if len(roots) >= 2:
            break
    f = IntPoly.make([1])
    for q, m in roots.items():
        lin = IntPoly.make([-q.numerator, q.denominator])
        for _ in range(m):
            f = f * lin
    inf_mult = rng.choice([0, 0, 1])
    Z = divisor_from_poly(list(f.coeffs), inf_mult)
    return Z, sorted(roots.items())


def log_plus_coeff(q: Fraction, p: int) -> Fraction:
    """Coefficient of log p in log max(1, |q|_p); q must be nonzero."""
    return Fraction(max(0, -val_p(q, p)))


def chordal_coeff(x: Fraction, y: Fraction, p: int) -> Fraction:
    """Coefficient of log p in the chordal log distance of two rationals."""
    return Fraction(-val_p(x - y, p)) - log_plus_coeff_or_zero(x, p) - log_plus_coeff_or_zero(y, p)


def log_plus_coeff_or_zero(q: Fraction, p: int) -> Fraction:
    return Fraction(0) if q == 0 else log_plus_coeff(q, p)


def pairwise_fekete_nonarch(points, inf_mult: int, comp, p: int) -> Fraction:
    """Direct pairwise p-adic pairing sum for all-rational support.

    points is a list of (rational root, multiplicity) pairs; comp is the
    weight component at p.  Returns the exact coefficient of log p.
    """
    import math

    def wval(q):
        if q == 0:
            return comp.coeff_fn(-math.inf)
        return comp.coeff_fn(-Fraction(val_p(q, p)))

    def lplus(q):
        return Fraction(0) if q == 0 else Fraction(max(0, -val_p(q, p)))

    total = Fraction(0)
    for i, (x, mx) in enumerate(points):
        for j, (y, my) in enumerate(points):
            if i == j:
                continue
            chord = Fraction(-val_p(x - y, p)) - lplus(x) - lplus(y)
            total += mx * my * (chord - wval(x) - wval(y))
    if inf_mult:
        for x, mx in points:
            phi = -lplus(x) - wval(x) - comp.at_infinity
            total += 2 * mx * inf_mult * phi
    return total


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


LOG2 = math.log(2.0)


def arch_weight_mp(arch, z):
    # ArchWeight.__call__ in mpmath, at the working precision
    if arch.measure == "fubini_study" or z is INF_POINT:
        return mpmath.mpf(arch.shift)
    r = abs(mpmath.mpc(z))
    r = min(r, 1 / r)
    return arch.shift - mpmath.log1p(r * r) / 2


def assert_disks_hold_roots(f, disks, oracle):
    # every disk holds an oracle root (decided at 70 digits, where the double
    # centres and radii are exact), a radius-0 disk an exact root, and no
    # two disks share one
    assert len(disks) == f.degree
    held = set()
    with mpmath.workdps(70):
        for z, rad in disks:
            c = mpmath.mpc(z.real, z.imag)
            k = min(range(len(oracle)), key=lambda i: abs(oracle[i] - c))
            if rad == 0.0:
                x, y = Fraction(z.real), Fraction(z.imag)
                re = im = Fraction(0)
                for a in reversed(f.coeffs):
                    re, im = re * x - im * y + a, re * y + im * x
                assert re == im == 0, z
            else:
                assert abs(oracle[k] - c) <= mpmath.mpf(rad), (z, rad)
            held.add(k)
    assert len(held) == f.degree
