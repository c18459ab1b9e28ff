import math
import random
from fractions import Fraction

import pytest

from adelic.berkovich import (
    INF_POINT,
    BerkPoint,
    chordal_arch,
    gauss_point,
    hsia_kernel,
)
from adelic.exact import DomainError

from helpers import chordal_coeff


def test_chordal_arch_known_values():
    # [0, inf] = 1, [0, 1] = 1/sqrt 2, [i, -i] = 1
    assert chordal_arch(0.0, INF_POINT) == 1.0
    assert abs(chordal_arch(0.0, 1.0) - 1 / math.sqrt(2)) < 1e-15
    assert abs(chordal_arch(1j, -1j) - 1.0) < 1e-15
    assert chordal_arch(2.0, 2.0) == 0.0


def test_chordal_arch_symmetry_and_bound():
    rng = random.Random(3)
    for _ in range(300):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        w = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        d = chordal_arch(z, w)
        assert abs(d - chordal_arch(w, z)) < 1e-15
        assert 0.0 <= d <= 1.0 + 1e-15
        assert chordal_arch(z, INF_POINT) <= 1.0 + 1e-15


def test_chordal_arch_inversion_symmetry():
    # the chordal metric is invariant under z -> 1/z
    rng = random.Random(4)
    for _ in range(100):
        z = complex(rng.uniform(0.1, 4), rng.uniform(0.1, 4))
        w = complex(rng.uniform(0.1, 4), rng.uniform(0.1, 4))
        a = chordal_arch(z, w)
        b = chordal_arch(1 / z, 1 / w)
        assert abs(a - b) < 1e-12


def test_hsia_kernel_type_i_rationals():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        y = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if x == y:
            continue
        got = hsia_kernel(p, BerkPoint.type_i(p, x), BerkPoint.type_i(p, y))
        assert got.coeff == chordal_coeff(x, y, p)


def test_hsia_kernel_infinity_pairs():
    # [x, inf] = 1 / max(1, |x|)
    p = 5
    inf = BerkPoint.type_i(p, INF_POINT)
    assert hsia_kernel(p, BerkPoint.type_i(p, Fraction(25)), inf).coeff == 0
    assert hsia_kernel(p, BerkPoint.type_i(p, Fraction(1, 25)), inf).coeff == -2
    assert hsia_kernel(p, inf, inf).is_minus_infinity


def test_hsia_kernel_diagonal_and_disks():
    p = 3
    x = BerkPoint.type_i(p, Fraction(2))
    assert hsia_kernel(p, x, x).is_minus_infinity
    # self-pairing of a disk is its radius (diameter) contribution
    disk = BerkPoint.disk(p, 0, Fraction(-2))
    assert hsia_kernel(p, disk, disk).coeff == -2
    assert hsia_kernel(p, gauss_point(p), gauss_point(p)).coeff == 0
    # a point inside the disk pairs at the disk radius
    inside = BerkPoint.type_i(p, Fraction(9))
    assert hsia_kernel(p, disk, inside).coeff == -2


def test_hsia_kernel_ultrametric_in_small_distance():
    # for type I points, [x,y] <= max([x,z], [z,y]) in the p-adic chordal form
    rng = random.Random(23)
    p = 2
    for _ in range(200):
        xs = [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(3)]
        if len({xs[0], xs[1], xs[2]}) < 3:
            continue
        a = chordal_coeff(xs[0], xs[1], p)
        b = chordal_coeff(xs[0], xs[2], p)
        c = chordal_coeff(xs[2], xs[1], p)
        assert a <= max(b, c)


def test_berk_point_equality_and_hash():
    p = 5
    disk = BerkPoint.disk(p, 0, -1)
    # equal radii p^r: the disks coincide iff |a - b|_p <= p^r
    same = [BerkPoint.disk(p, 0, -1), BerkPoint.disk(p, 5, -1), BerkPoint.disk(p, -10, -1)]
    assert all(q == disk for q in same)  # |5|_5 = 5^-1 sits on the boundary
    assert len({disk, *same}) == 1
    assert all(hash(q) == hash(disk) for q in same)
    assert BerkPoint.disk(p, Fraction(1, 5), 1) == BerkPoint.disk(p, 0, 1)
    assert disk != BerkPoint.disk(p, 1, -1)
    assert disk != BerkPoint.disk(p, 0, -2)
    assert disk != BerkPoint.disk(7, 0, -1)
    # a type I point never equals a disk; two are equal iff their centers are
    point = BerkPoint.type_i(p, 0)
    assert point != disk and disk != point
    assert point != BerkPoint.disk(p, 0, 10)
    assert BerkPoint.type_i(p, Fraction(2, 6)) == BerkPoint.type_i(p, Fraction(1, 3))
    assert hash(BerkPoint.type_i(p, Fraction(2, 6))) == hash(BerkPoint.type_i(p, Fraction(1, 3)))
    assert BerkPoint.type_i(p, 1) != BerkPoint.type_i(p, 6)
    # the point infinity equals only infinity
    inf = BerkPoint.type_i(p, INF_POINT)
    assert inf == BerkPoint.type_i(p, INF_POINT)
    assert hash(inf) == hash(BerkPoint.type_i(p, INF_POINT))
    assert inf != point and point != inf
    assert inf != disk and disk != inf
    assert inf != BerkPoint.type_i(7, INF_POINT)
    assert disk.__eq__(0) is NotImplemented


def test_mismatched_prime_rejected():
    with pytest.raises(DomainError):
        hsia_kernel(3, BerkPoint.type_i(2, Fraction(1)), BerkPoint.type_i(3, Fraction(1)))
