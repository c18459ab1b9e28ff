"""Adelic heights and global reports.

The height of an effective divisor is the weighted Mahler measure summed
over places, per unit of degree.  A global report additionally carries
the per-place pairing rows, a certified truncation tail, and the sup of
the normalized pairing over all places.

Run with  python3 demos/04_heights_and_reports.py
"""

import json
import math

from adelic import divisor_from_poly, ex5_weight, global_fekete, height, std_weight


def main():
    g = std_weight()

    print("== heights of classical families ==")
    print("  h(z - 2)    = %.12f   (log 2 = %.12f)"
          % (height(divisor_from_poly([-2, 1]), g).value, math.log(2)))
    print("  h(2z - 1)   = %.12f" % height(divisor_from_poly([-1, 2]), g).value)
    for n in (2, 4, 8):
        Z = divisor_from_poly([-2] + [0] * (n - 1) + [1])
        print("  h(z^%d - 2)  = %.12f   (log 2)/%d = %.12f"
              % (n, height(Z, g).value, n, math.log(2) / n))
    Z = divisor_from_poly([-1] + [0] * 15 + [1])
    print("  h(z^16 - 1) = %.2e    (unit roots have height zero)"
          % height(Z, g).value)

    print()
    print("== a full global report, as JSON ==")
    Z = divisor_from_poly([-2, 0, 1], inf_mult=1)
    rep = global_fekete(Z, g)
    print(json.dumps(rep.to_json(), indent=2))

    print()
    print("== heights come with certified enclosures ==")
    h = height(Z, ex5_weight(), tail_eps=1e-3)
    print("  branching-family weight needs a prime cutoff, so the")
    print("  interval has positive width:")
    print("  value %.9f  err %.1e  tail %.1e" % (h.value, h.err, h.tail))
    print("  enclosure [%.9f, %.9f]" % (h.lo, h.hi))

    print()
    print("== equidistribution in action: uniform sup decays ==")
    for n in (8, 16, 32, 64):
        Z = divisor_from_poly([-1] + [0] * (n - 1) + [1])
        print("  n=%-3d uniform_sup = %.6f" % (n, global_fekete(Z, g).uniform_sup))


if __name__ == "__main__":
    main()
