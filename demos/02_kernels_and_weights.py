"""Kernels and weights: chordal distance on the sphere, Hsia kernel on
the Berkovich line, the built-in weight families, and normalization.

Run with  python3 demos/02_kernels_and_weights.py
"""

from fractions import Fraction

from adelic import (
    ARCH,
    INF_POINT,
    BerkPoint,
    Place,
    chordal_arch,
    equilibrium_energy,
    ex5_weight,
    hsia_kernel,
    normalize,
    potential_kernel,
    radii,
    std_weight,
    trivial_weight,
    weight_eval,
    zero_weight,
)


def main():
    print("== archimedean chordal distance ==")
    for a, b in ((0, 1), (0, 1j), (1j, -1j), (0, INF_POINT)):
        print("  [%s, %s] = %.6f" % (a, b, chordal_arch(a, b)))

    print()
    print("== Hsia kernel at p = 5 (exact coefficient of log 5) ==")
    pts = [
        ("25, 1/25", BerkPoint.type_i(5, 25), BerkPoint.type_i(5, Fraction(1, 25))),
        ("0, unit disk", BerkPoint.type_i(5, 0), BerkPoint.disk(5, 0, 0)),
        ("disk self-pair", BerkPoint.disk(5, 0, Fraction(-2)), BerkPoint.disk(5, 0, Fraction(-2))),
    ]
    for label, x, y in pts:
        print("  %-15s -> %s" % (label, hsia_kernel(5, x, y).to_json()))

    print()
    print("== built-in weights at a few points ==")
    for g in (trivial_weight(), std_weight(), ex5_weight()):
        vals = ", ".join("g(%g) = %+.4f" % (t, g.arch(t)) for t in (0.0, 1.0, 2.0))
        print("  %-8s arch: %s" % (g.name, vals))
        r2 = weight_eval(g, Place(2), BerkPoint.type_i(2, Fraction(1, 2)))
        print("           at p=2, x=1/2: %s" % (r2.to_json(),))

    print()
    print("== inner and outer radii multiply to 1 at finite places ==")
    g = ex5_weight()
    for p in (2, 3, 5, 13):
        r = radii(g, Place(p))
        s = r.log_outer.coeff + r.log_inner.coeff
        print("  p=%-3d log r_outer = %s log p, log r_inner = %s log p, sum %s"
              % (p, r.log_outer.coeff, r.log_inner.coeff, s))

    print()
    print("== normalization: shift a weight so its energy vanishes ==")
    e0 = equilibrium_energy(zero_weight(), ARCH)
    gn = normalize(zero_weight(), ARCH)
    en = equilibrium_energy(gn, ARCH)
    print("  energy of the zero weight on the sphere: %.9f" % e0)
    print("  normalized arch constant: %.9f (expect -0.25)" % gn.arch(1.0))
    print("  energy after normalization: %.2e" % en)

    print()
    print("== the branching family has zero self-energy by construction ==")
    for p in (2, 3, 7):
        comp = g.finite(p)
        k = potential_kernel(g, Place(p), comp.measure_point, comp.measure_point)
        print("  p=%d self-pair at the unit-mass disk: %s" % (p, k.to_json()))


if __name__ == "__main__":
    main()
