import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from sympy import sieve

import adelic
from adelic.berkovich import BerkPoint, INF_POINT
from adelic.exact import DomainError
from adelic.places import ARCH, Place
from adelic.weights import (
    ArchWeight,
    FiniteWeight,
    _default_branch_count,
    _ramp,
    equilibrium_energy,
    ex5_weight,
    normalize,
    potential_kernel,
    radii,
    std_weight,
    trivial_weight,
    weight_eval,
    zero_weight,
)

from helpers import arch_weight_mp
from quadrature import circle_average, equilibrium_energy_quadrature, fs_average, fs_kernel_energy


def test_trivial_weight_shape():
    g = trivial_weight()
    assert not g.branching
    assert g.arch(0.0) == -0.25
    assert g.arch(INF_POINT) == -0.25
    assert g.finite(2).value_coeff(BerkPoint.type_i(2, Fraction(7))) == 0
    assert g.sup_abs(ARCH) == 0.25
    assert g.sup_abs(Place(3)) == 0.0
    assert g.tail_sum_bound(10) == 0.0


def test_std_weight_arch_values():
    g = std_weight()
    # log+ |z| - (1/2) log(1 + |z|^2)
    assert abs(g.arch(0.0) - 0.0) < 1e-15
    assert abs(g.arch(1.0) - (-0.5 * math.log(2))) < 1e-15
    assert abs(g.arch(2.0) - (math.log(2) - 0.5 * math.log(5))) < 1e-15
    assert abs(g.arch(INF_POINT) - 0.0) < 1e-15
    # symmetric under inversion
    for t in (0.3, 1.7, 4.2):
        assert abs(g.arch(t) - g.arch(1 / t)) < 1e-14
    assert not g.branching


def test_ex5_weight_components():
    g = ex5_weight()
    assert g.branching
    comp = g.finite(2)
    # branch count is the least integer >= p^2 log p
    m = int(1 / (2 * comp.sup_coeff))
    assert m == 3
    assert comp.at_infinity == Fraction(1, 6)
    # ramp: clamped between -1/(2m) and 1/(2m), linear in between
    assert comp.coeff_fn(Fraction(5)) == Fraction(1, 6)
    assert comp.coeff_fn(Fraction(-5)) == -Fraction(1, 6)
    assert comp.coeff_fn(Fraction(0)) == Fraction(1, 6)
    assert comp.coeff_fn(Fraction(-1, 3)) == -Fraction(1, 6)
    assert comp.coeff_fn(Fraction(-1, 4)) == Fraction(1, 6) - Fraction(1, 4)
    assert comp.measure_point.rad_exp == Fraction(-1, 3)


def _mp_branch_count(p):
    # 30 digits beyond those of p^2, so the ceiling is resolved at any p
    with mpmath.workdps(2 * len(str(p)) + 30):
        return int(mpmath.ceil(mpmath.mpf(p) ** 2 * mpmath.ln(p)))


def test_default_branch_count_float_matches_mpmath():
    # ceil(p^2 log p) in float, against 50 digits, at every prime below 2e5
    for p in sieve.primerange(2, 2 * 10 ** 5):
        assert _default_branch_count(p) == _mp_branch_count(p), p


def test_default_branch_count_falls_back_near_an_integer(monkeypatch):
    # 100183^2 log 100183 lies 3 ulp from an integer, where the float
    # ceiling is not certain: only there does mpmath decide
    x = 100183 * 100183 * math.log(100183)
    assert abs(x - round(x)) <= 8 * math.ulp(x)
    want = {p: _mp_branch_count(p) for p in (100183, 100189)}
    calls = []
    real = mpmath.ln

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(mpmath, "ln", counting)
    assert _default_branch_count(100189) == want[100189]
    assert calls == []
    assert _default_branch_count(100183) == want[100183]
    assert calls == [100183]


def test_default_branch_count_large_primes():
    # from 2^26 on p^2 is not exact in float, and past about 1.3e154 it
    # overflows: mpmath decides there, at a precision that grows with p
    for p in (2 ** 26 + 15, 2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1, 2 ** 521 - 1):
        m = _default_branch_count(p)
        with mpmath.workdps(2 * len(str(p)) + 30):
            assert m - 1 < mpmath.mpf(p) ** 2 * mpmath.ln(p) <= m, p
        assert m == _mp_branch_count(p)
    p = 3317044064679887385961813  # the largest prime below _MR_LIMIT
    assert ex5_weight().finite(p).half == Fraction(1, 2 * _default_branch_count(p))


def test_finite_component_refuses_what_place_refuses():
    # a composite and a prime past _MR_LIMIT are refused before a component
    # is built, so _ramp's unbounded cache never holds one
    before = _ramp.cache_info().currsize
    for g in (ex5_weight(), std_weight()):
        for n in (10403, 2 ** 521 - 1):
            with pytest.raises(DomainError):
                g.finite(n)
    assert _ramp.cache_info().currsize == before


def test_ex5_tail_bound_and_cutoff():
    g = ex5_weight()
    assert g.tail_sum_bound(100) <= 1 / 200 + 1e-15
    cut = g.prime_cutoff(1e-3)
    assert g.tail_sum_bound(cut) < 1e-3
    assert g.tail_sum_bound(cut - 1) >= g.tail_sum_bound(cut)
    # 1/(2 bound) overflows a float: refused, not an OverflowError
    with pytest.raises(DomainError, match="too small for a float cutoff"):
        g.prime_cutoff(1e-310)


def test_weight_eval_and_radii():
    g = ex5_weight()
    p = Place(5)
    x = BerkPoint.type_i(5, Fraction(1, 5))
    v = weight_eval(g, p, x)
    assert v.is_exact
    r = radii(g, p)
    assert r.log_outer.coeff + r.log_inner.coeff == 0
    assert r.log_outer.coeff > 0
    ra = radii(g, ARCH)
    assert abs(ra.log_outer.value - 0.25) < 1e-15
    # at ARCH each ball holds the 50-digit value, and stays narrow
    with mpmath.workdps(50):
        for g in (ex5_weight(), std_weight()):
            for z in (0.5, 2.0 - 1.0j, INF_POINT, 1e-3 + 0.7j):
                v = weight_eval(g, ARCH, z)
                assert not v.is_exact and v.value == g.arch(z)
                assert abs(v.value - arch_weight_mp(g.arch, z)) <= v.err < 1e-14
            ra = radii(g, ARCH)
            assert ra.log_outer.value == -g.arch.inf and ra.log_inner.value == -g.arch.sup
            low = arch_weight_mp(g.arch, 1.0)  # the least value, on the unit circle
            assert abs(ra.log_outer.value + low) <= ra.log_outer.err < 1e-14


def test_weight_closed_forms():
    # a ramp reads half + shift at infinity
    comp = FiniteWeight(5, Fraction(1, 3), Fraction(1, 7))
    assert comp.value_coeff(BerkPoint.type_i(5, INF_POINT)) == Fraction(10, 21)
    # std has no finite component, so no prime needs listing
    assert std_weight().prime_cutoff(1e-3) == 1
    # the kernel is -inf on equal type-I points at a finite place
    x = BerkPoint.type_i(5, Fraction(1, 5))
    assert potential_kernel(ex5_weight(), Place(5), x, x).is_minus_infinity
    # the ex5 ramp is symmetric, so its outer and inner radii are reciprocal
    r = radii(ex5_weight(), Place(5))
    assert r.outer > 1 > r.inner and abs(r.outer * r.inner - 1) <= 4 * math.ulp(1.0)


def test_unknown_arch_measure_is_refused():
    with pytest.raises(DomainError, match="unknown equilibrium measure"):
        ArchWeight("bogus")


def test_tail_sum_bound_below_one_is_refused():
    with pytest.raises(DomainError, match="prime_floor must be >= 1"):
        ex5_weight().tail_sum_bound(0)


def test_weight_eval_refuses_a_point_of_another_place():
    x = BerkPoint.type_i(5, Fraction(1, 5))
    with pytest.raises(DomainError, match="does not live at place 3"):
        weight_eval(std_weight(), Place(3), x)


def test_normalize_at_a_finite_place():
    # ex5 with its component at 3 shifted by 1/7: the energy there is
    # -2/7 log 3, and normalize takes the shift back off, exactly
    g0 = ex5_weight()
    g = dataclasses.replace(
        g0, overrides=(dataclasses.replace(g0.finite(3), shift=Fraction(1, 7)),))
    assert equilibrium_energy(g, Place(3)) == float(Fraction(-2, 7)) * math.log(3)
    gn = normalize(g, Place(3))
    assert equilibrium_energy(gn, Place(3)) == 0.0
    assert gn.finite(3) == g0.finite(3)
    assert gn.name == g.name + "+norm"
    # every other place is unchanged
    assert gn.arch == g.arch
    assert equilibrium_energy(gn, ARCH) == equilibrium_energy(g, ARCH)
    for p in (2, 5, 13):
        assert gn.finite(p) == g.finite(p)
        assert equilibrium_energy(gn, Place(p)) == equilibrium_energy(g, Place(p)) == 0.0


def test_equilibrium_at_a_base_place_is_refused_before_building_a_component():
    # 10403 = 101 * 103 as a base place under ex5: both calls refuse it as
    # not a prime before _ramp caches a component for it
    v = Place(10403, base=True)
    size = adelic.weights._ramp.cache_info().currsize
    for call in (equilibrium_energy, normalize):
        with pytest.raises(DomainError, match="not a prime"):
            call(ex5_weight(), v)
    assert adelic.weights._ramp.cache_info().currsize == size


def test_potential_kernel_arch():
    g = trivial_weight()
    v = potential_kernel(g, ARCH, 1.0, -1.0)
    assert abs(v.value - (math.log(1.0) + 0.5)) < 1e-14
    assert potential_kernel(g, ARCH, 2.0, 2.0).is_minus_infinity
    # the ball holds the 50-digit value of log chordal(z, w) - g(z) - g(w)
    g = std_weight()
    for z, w in ((0.3 + 0.4j, 2.0 - 1.0j), (0.1, INF_POINT), (1.5j, -0.7 + 0.2j)):
        v = potential_kernel(g, ARCH, z, w)
        with mpmath.workdps(50):
            zs = [mpmath.mpc(x) for x in (z, w) if x is not INF_POINT]
            norm = mpmath.fprod(mpmath.sqrt(1 + abs(x) ** 2) for x in zs)
            dist = abs(zs[0] - zs[1]) / norm if len(zs) == 2 else 1 / norm
            want = mpmath.log(dist) - arch_weight_mp(g.arch, z) - arch_weight_mp(g.arch, w)
            assert 0 < abs(v.value - want) <= v.err < 1e-14


def test_fs_kernel_energy_is_minus_half():
    val, err = fs_kernel_energy(tol=1e-8)
    assert abs(val - (-0.5)) < 1e-6
    assert err < 1e-6


def test_std_circle_energy_vanishes():
    e = equilibrium_energy(std_weight(), ARCH)
    assert abs(e) < 1e-6
    val, err = equilibrium_energy_quadrature(std_weight(), tol=1e-9)
    assert abs(val) < 1e-6


def test_normalize_zero_weight_gives_trivial():
    g0 = zero_weight()
    gn = normalize(g0, ARCH)
    for z in (0.0, 1.0, 2.5, INF_POINT):
        assert abs(gn.arch(z) - (-0.25)) < 5e-7
    # normalized weight has vanishing equilibrium energy
    assert abs(equilibrium_energy(gn, ARCH)) < 2e-6


def test_ex5_equilibrium_vanishes_exactly():
    g = ex5_weight()
    for p in (2, 3, 5, 13):
        x = g.finite(p).measure_point
        assert potential_kernel(g, Place(p), x, x).coeff == 0


def test_closed_form_energies_match_quadrature():
    weights = [trivial_weight(), std_weight(), zero_weight(), ex5_weight(),
               normalize(zero_weight(), ARCH)]
    for g in weights:
        val, err = equilibrium_energy_quadrature(g, tol=1e-8)
        gap = abs(equilibrium_energy(g, ARCH) - val)
        assert gap <= err and gap < 1e-6, (g.name, val, err)


def test_fs_average_of_std_weight():
    # on either side of the unit circle the std weight is (1/2) log(1 - t)
    # or (1/2) log t, t = r^2/(1+r^2): the mean is (log 2 - 1)/2
    val, err = fs_average(std_weight().arch)
    assert abs(val - (math.log(2.0) - 1.0) / 2.0) <= err


def test_circle_average_of_nonconstant_function():
    val, err = circle_average(lambda z: complex(z).real ** 2)
    assert abs(val - 0.5) <= err


def test_import_leaves_scipy_unloaded():
    # the quadrature cross-checks need numpy only: with scipy blocked,
    # import adelic, build the weights and run every quadrature function
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import adelic\n"
        "import quadrature as Q\n"
        "ws = adelic.trivial_weight(), adelic.std_weight(), adelic.ex5_weight()\n"
        "ws[2].finite(7)\n"
        "print(Q.fs_kernel_energy()[0], Q.fs_average(ws[0].arch)[0],\n"
        "      Q.circle_average(ws[1].arch)[0], Q.circle_kernel_energy_quadrature()[0],\n"
        "      Q.equilibrium_energy_quadrature(ws[1])[0])\n"
    )
    src = os.path.dirname(os.path.dirname(adelic.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    want = [-0.5, -0.25, -0.5 * math.log(2.0), -math.log(2.0), 0.0]
    got = [float(x) for x in out.stdout.split()]
    assert len(got) == len(want)
    assert all(abs(a - b) < 1e-6 for a, b in zip(got, want)), got


def test_runtime_leaves_sympy_unloaded(tmp_path):
    # sympy is the tests' oracle only: with it blocked, build the weights,
    # run reports and heights, an equidist run through the CLI, and a
    # report on N z^2 + z - N for a 60-digit semiprime N, a base place
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "import adelic, adelic.cli, adelic.exact\n"
        "ws = adelic.trivial_weight(), adelic.std_weight(), adelic.ex5_weight()\n"
        "Z = adelic.divisor_from_poly([-2, 0, 3], 1)\n"
        "for g in ws[1:]:\n"
        "    adelic.global_fekete(Z, g, 1e-3), adelic.height(Z, g, 1e-3)\n"
        "assert adelic.cli.main(['equidist', '--family', 'preimages:-2', '--n-min', '1',\n"
        f"                        '--n-max', '4', '--out', {str(tmp_path / 'e.json')!r}]) == 0\n"
        "N = (10 ** 30 + 57) * (3 * 10 ** 29 + 7)\n"
        "rep = adelic.global_fekete(adelic.divisor_from_poly([-N, 1, N]), ws[1])\n"
        "assert rep.dstar_product_formula and str(N) in [str(r.place) for r in rep.rows]\n"
        "print(sorted(m for m, v in sys.modules.items() if m.startswith('sympy') and v))\n"
    )
    src = os.path.dirname(os.path.dirname(adelic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
