"""Exact arithmetic tour: valuations, Newton polygons, difference
products, and the product formula.

Run with  python3 demos/01_exact_arithmetic.py
"""

from fractions import Fraction

from adelic import (
    ARCH,
    IntPoly,
    Place,
    divisor_from_poly,
    log_abs,
    newton_polygon,
    product_formula_check,
    val_p,
)


def main():
    print("== p-adic valuations ==")
    q = Fraction(-84, 275)
    for p in (2, 3, 5, 7, 11):
        print("  val_%-2d(%s) = %s" % (p, q, val_p(q, p)))

    print()
    print("== log|q|_v as exact multiples of log p ==")
    for v in (Place(2), Place(5), Place(11), ARCH):
        lv = log_abs(q, v)
        print("  at %-3s -> %s" % (v, lv.to_json()))

    print()
    print("== Newton polygon: root valuations without computing roots ==")
    f = IntPoly.make([6, -3, 0, 2])  # 2z^3 - 3z + 6
    for p in (2, 3):
        print("  slopes of %s at p=%d: %s" % (f, p, newton_polygon(f, p)))

    print()
    print("== pairwise difference product D* ==")
    for coeffs in ([-1, 0, 1], [-2, 0, 1], [-1, 0, 0, 0, 1]):
        Z = divisor_from_poly(coeffs)
        ds = Z.d_star
        print("  D*(%s) = %s" % (Z.finite_part, ds))
        # every nonzero rational satisfies sum_v log|.|_v = 0, exactly
        assert product_formula_check(ds)
    print("  product formula verified exactly for each value above")


if __name__ == "__main__":
    main()
