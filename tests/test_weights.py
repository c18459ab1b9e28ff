import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import adelic
from adelic.berkovich import BerkPoint, INF_POINT
from adelic.exact import DomainError
from adelic.places import ARCH, Place
from adelic.weights import (
    equilibrium_energy,
    equilibrium_energy_quadrature,
    ex5_weight,
    fs_kernel_energy,
    normalize,
    potential_kernel,
    radii,
    std_weight,
    trivial_weight,
    weight_eval,
    zero_weight,
)


def test_trivial_weight_shape():
    g = trivial_weight()
    assert g.finitely_supported
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
    assert g.finitely_supported


def test_ex5_weight_components():
    g = ex5_weight()
    assert not g.finitely_supported
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


def test_ex5_branch_count_floor_enforced():
    with pytest.raises(DomainError):
        ex5_weight(branch_count=lambda p: p).finite(5)


def test_ex5_tail_bound_and_cutoff():
    g = ex5_weight()
    assert g.tail_sum_bound(100) <= 1 / 200 + 1e-15
    cut = g.prime_cutoff(1e-3)
    assert g.tail_sum_bound(cut) < 1e-3
    assert g.tail_sum_bound(cut - 1) >= g.tail_sum_bound(cut)


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


def test_potential_kernel_arch():
    g = trivial_weight()
    v = potential_kernel(g, ARCH, 1.0, -1.0)
    assert abs(v.value - (math.log(1.0) + 0.5)) < 1e-14
    assert potential_kernel(g, ARCH, 2.0, 2.0).is_minus_infinity


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


def test_import_leaves_scipy_unloaded():
    # scipy backs only the quadrature cross-checks, imported on first use
    code = (
        "import sys, adelic\n"
        "ws = adelic.trivial_weight(), adelic.std_weight(), adelic.ex5_weight()\n"
        "ws[2].finite(7)\n"
        "assert 'scipy' not in sys.modules\n"
        "from adelic.weights import fs_kernel_energy\n"
        "print(fs_kernel_energy()[0])\n"
    )
    src = os.path.dirname(os.path.dirname(adelic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert abs(float(out.stdout) + 0.5) < 1e-6
