"""Local machinery: weighted Mahler measures and the two independent
routes to the off-diagonal pairing sum.

At finite places everything is an exact rational multiple of log p;
at the archimedean place values carry certified error bounds.

Run with  python3 demos/03_local_sums.py
"""

import math

from adelic import (
    ARCH,
    Place,
    divisor_from_poly,
    fekete_sum,
    fekete_sum_arch_identity,
    mahler_g,
    mahler_sharp,
    std_weight,
    trivial_weight,
)


def main():
    Z = divisor_from_poly([-2, 0, 1])  # z^2 - 2
    g = std_weight()

    print("== Mahler measures of z^2 - 2 ==")
    for v in (Place(2), Place(5), ARCH):
        plain = mahler_sharp(Z, v)
        weighted = mahler_g(Z, g, v)
        print("  at %-3s plain %s weighted %s"
              % (v, plain.to_json(), weighted.to_json()))

    print()
    print("== pairing sum, exact at finite places ==")
    for coeffs in ([-2, 0, 1], [-1, 0, 1], [1, 0, 2]):
        Z = divisor_from_poly(coeffs)
        row = ["%s: %s" % (p, fekete_sum(Z, g, Place(p)).to_json())
               for p in (2, 3, 5)]
        print("  %-10s %s" % (Z.finite_part, "   ".join(row)))

    print()
    print("== two archimedean routes agree within certified error ==")
    Z = divisor_from_poly([3, -1, -4, 0, 2], inf_mult=1)
    for gg in (trivial_weight(), g):
        a = fekete_sum(Z, gg, ARCH)
        b = fekete_sum_arch_identity(Z, gg)
        print("  %-8s direct %+.12f (err %.1e)   assembled %+.12f (err %.1e)"
              % (gg.name, a.value, a.err, b.value, b.err))
        assert abs(a.value - b.value) <= a.err + b.err + 1e-12

    print()
    print("== unit roots: the arch pairing has a closed form ==")
    print("   (sum over n-th roots of unity, std weight, divided by n^2)")
    for n in (4, 8, 16, 32):
        Z = divisor_from_poly([-1] + [0] * (n - 1) + [1])
        ratio = fekete_sum(Z, g, ARCH).value / n ** 2
        print("  n=%-3d ratio %.10f   (log n)/n = %.10f"
              % (n, ratio, math.log(n) / n))


if __name__ == "__main__":
    main()
