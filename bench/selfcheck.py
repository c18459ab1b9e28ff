"""Self-checks of the benchmark's oracles and checkers.

Each checker must pass on its oracle's own values and fail on a
deliberately wrong one; the oracles must agree with each other where two
of them apply.  Exit status 0 when every check behaves, 1 otherwise.

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import math
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import mpmath  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, ok: bool) -> None:
    print("%-70s %s" % (name, "ok" if ok else "FAILED"))
    if not ok:
        FAILURES.append(name)


def same_roots(a: list, b: list, tol) -> bool:
    """Every point of a has a point of b within tol, and the sizes match."""
    return len(a) == len(b) and all(min(abs(x - y) for y in b) <= tol for x in a)


def polyroots(coeffs: list[int]) -> list:
    with mpmath.workdps(oracles.ROOT_DPS):
        return list(mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)],
                                     maxsteps=200, extraprec=300))


def oracle_agreement() -> None:
    tol = mpmath.mpf(10) ** -50
    with mpmath.workdps(oracles.ROOT_DPS):
        expect("closed-form unit roots = mpmath.polyroots (n = 8)",
               same_roots(oracles.unit_roots(8), polyroots(workloads.unit_roots(8)), tol))
        expect("closed-form 2^(1/n) roots = refined roots (n = 9)",
               same_roots(oracles.pow_roots(9, 2),
                          oracles.refined_roots(workloads.pow_minus(9, 2)), tol))
        expect("closed-form preimage roots = mpmath.polyroots (depth 3)",
               same_roots(oracles.chebyshev_roots(3),
                          polyroots(workloads.chebyshev_preimage(3)), tol))
        rng = random.Random(7)
        cs = workloads._random_squarefree(rng, 10, 30)
        expect("refined roots = mpmath.polyroots (random degree 10)",
               same_roots(oracles.refined_roots(cs), polyroots(cs), tol))
    for n in (8, 16):
        inp = {"form": ["unit", n], "coeffs": workloads.unit_roots(n), "inf_mult": 0}
        s = oracles.arch_pair_sum(oracles.support(inp), "std")
        expect("pair sum of z^%d - 1 under std = n log n" % n,
               abs(s - oracles.closed_form_arch_pairing(inp)) < 1e-25)
        inp = {"form": ["pow", n, 2], "coeffs": workloads.pow_minus(n, 2), "inf_mult": 0}
        s = oracles.arch_pair_sum(oracles.support(inp), "std")
        expect("pair sum of z^%d - 2 under std = n log n - (n-1) log 2" % n,
               abs(s - oracles.closed_form_arch_pairing(inp)) < 1e-25)
        h = oracles.height(inp, oracles.support(inp), "std")
        expect("height of z^%d - 2 under std = (log 2)/n" % n,
               abs(h - oracles.closed_form_height(inp)) < 1e-25)
    # d*: sympy's discriminant against the product of root differences
    roots = [Fraction(1, 2), Fraction(-3), Fraction(5, 7), Fraction(2)]
    f = [1]
    for q in roots:
        f = workloads.poly_mul(f, [-q.numerator, q.denominator])
    as_dense = oracles.dstar({"form": ["dense"], "coeffs": f, "inf_mult": 0})
    as_roots = oracles.dstar({"form": ["rational", [[q.numerator, q.denominator, 1] for q in roots]],
                              "coeffs": f, "inf_mult": 0})
    expect("d* from sympy.discriminant = product of root differences", as_dense == as_roots)
    import sympy

    expect("sieve = sympy.primepi up to 80001",
           len(oracles.primes_upto(80001)) == sympy.primepi(80001))
    # ex5: the pairing oracle against a literal double loop over the support
    ex5 = oracles.Ex5Oracle()
    pts = [(Fraction(1, 2), 2), (Fraction(-3), 1), (Fraction(0), 1), (Fraction(9, 4), 1),
           (oracles.INF, 2)]
    for p in (2, 3, 5, 7, 1009):
        vpt, vpair = ex5.valuations(pts, p, True)
        expect("ex5 pairing = literal double loop at p=%d" % p,
               ex5.pairing(pts, p, vpt, vpair) == literal_ex5_pairing(pts, p, ex5.branch_count(p)))


def literal_ex5_pairing(pts, p: int, m: int) -> Fraction:
    h = Fraction(1, 2 * m)

    def weight(w):
        if w is oracles.INF:
            return h
        s = -math.inf if w == 0 else -oracles.valuation(w, p)
        return -h if s == -math.inf else max(-h, min(h, h + s))

    def lam(w):
        return 0 if w == 0 else max(0, -oracles.valuation(w, p))

    total = Fraction(0)
    for a, ma in pts:
        for b, mb in pts:
            if a is b:
                continue
            if a is oracles.INF:
                chord = -lam(b)
            elif b is oracles.INF:
                chord = -lam(a)
            else:
                chord = -oracles.valuation(a - b, p) - lam(a) - lam(b)
            total += ma * mb * (chord - weight(a) - weight(b))
    return total


def checkers_pass_and_fail() -> None:
    inp = {"id": "pow", "form": ["pow", 8, 2], "coeffs": workloads.pow_minus(8, 2), "inf_mult": 0}
    o = checks.InputOracle(inp)
    x = o.pair_sum("std")
    good = {"value": float(x), "err": 1e-12}
    expect("enclosure passes on the oracle's value", not checks.encloses(good, x, "t"))
    expect("enclosure fails 1e-11 away",
           bool(checks.encloses({"value": float(x) + 1e-11, "err": 1e-12}, x, "t")))
    expect("enclosure fails with an inflated err that still contains the value",
           bool(checks.encloses({"value": float(x), "err": 1e-6}, x, "t")))
    h = float(oracles.closed_form_height(inp))
    tail_eps = 1e-9
    expect("height check passes on the closed form",
           not checks.check_height(o, "std", {"value": h, "lo": h - 1e-15, "hi": h + 1e-15},
                                   "t", tail_eps))
    expect("height check fails on an interval shifted off the closed form",
           bool(checks.check_height(o, "std", {"value": h + 2e-13, "lo": h + 1e-13,
                                                "hi": h + 3e-13}, "t", tail_eps)))
    expect("height check fails on an interval widened past tail_eps",
           bool(checks.check_height(o, "std", {"value": h, "lo": h - 1e-9, "hi": h + 1e-9},
                                    "t", tail_eps)))
    # root audit: oracle roots rounded to doubles, radius above the rounding
    disks = [[float(z.real), float(z.imag), 1e-15] for z in o.roots()]
    expect("audit finds no disk outside on the oracle's own roots",
           checks.audit_disks(disks, o.roots()) == 0)
    expect("audit finds no disk wider than the radius cap", checks.wide_disks(disks) == 0)
    moved = [list(d) for d in disks]
    moved[3] = [moved[3][0] + 1e-12, moved[3][1], 1e-13]
    expect("audit finds the disk whose centre moved by 1e-12",
           checks.audit_disks(moved, o.roots()) == 1)
    wide = [list(d) for d in disks]
    wide[2][2] = 1e-12
    expect("audit finds the disk whose radius grew to 1e-12", checks.wide_disks(wide) == 1)
    # d* rows
    dstar = o.dstar
    rows = [{"place": str(p), "log_dstar": {"coeff": str(-oracles.valuation(dstar, p)), "log_base": p}}
            for p in sympy_primes(dstar)]
    expect("d* rows rebuild |d*|", not checks.dstar_rows(rows, dstar, "t"))
    rows[0]["log_dstar"]["coeff"] = str(Fraction(rows[0]["log_dstar"]["coeff"]) - 1)
    expect("d* rows fail with one valuation off by one", bool(checks.dstar_rows(rows, dstar, "t")))
    ex5_branch_counts()
    ex5_rows()
    reports_under_the_other_weight()


def sympy_primes(q: Fraction) -> list[int]:
    import sympy

    return sorted(set(sympy.factorint(q.numerator)) | set(sympy.factorint(q.denominator)))


def ex5_branch_counts() -> None:
    # m_p = ceil(p^2 log p) is the least m with exp(m / p^2) >= p; check
    # that for the largest primes the workloads reach, in 80-digit arithmetic
    ex5 = oracles.Ex5Oracle()
    ok = True
    with mpmath.workdps(80):
        for p in (79979, 79987, 79997, 79999):
            m = ex5.branch_count(p)
            ok &= mpmath.exp(mpmath.mpf(m) / p ** 2) >= p > mpmath.exp(mpmath.mpf(m - 1) / p ** 2)
    expect("ex5 branch counts are the least m with exp(m/p^2) >= p near p = 80000", ok)


def ex5_rows() -> None:
    roots = [[1, 2, 2], [-3, 1, 1], [5, 4, 1]]
    f = [1]
    for a, b, m in roots:
        for _ in range(m):
            f = workloads.poly_mul(f, [-a, b])
    inp = {"id": "r", "form": ["rational", roots], "coeffs": f, "inf_mult": 1}
    o = checks.InputOracle(inp, oracles.Ex5Oracle())
    cutoff = 500
    tail_eps = 2 * o.degree / cutoff
    primes = o.ex5_listed_primes(cutoff)
    finite = [{"place": str(p), "fekete": {"coeff": str(o.ex5_row(p)[0]), "log_base": p}}
              for p in primes]
    rep = {"prime_cutoff": cutoff}
    expect("ex5 rows pass on the oracle's own Fractions",
           not checks.check_ex5_rows(o, rep, finite, "t", tail_eps))
    p = primes[5]
    finite[5]["fekete"]["coeff"] = str(o.ex5_row(p)[0] + Fraction(1, 2 * o.ex5.branch_count(p)))
    expect("ex5 rows fail with one Fraction changed by 1/(2 m_p)",
           bool(checks.check_ex5_rows(o, rep, finite, "t", tail_eps)))
    expect("ex5 rows fail with one prime missing",
           bool(checks.check_ex5_rows(o, rep, finite[:-1], "t", tail_eps)))


def reports_under_the_other_weight() -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import adelic

    for n, a in ((8, 2), (9, 1)):
        coeffs = workloads.pow_minus(n, a)
        form = ["unit", n] if a == 1 else ["pow", n, a]
        inp = {"id": "x", "form": form, "coeffs": coeffs, "inf_mult": 1}
        o = checks.InputOracle(inp)
        Z = adelic.divisor_from_poly(coeffs, 1)
        eps = 1e-9
        std = adelic.global_fekete(Z, adelic.std_weight(), tail_eps=eps).to_json()
        triv = adelic.global_fekete(Z, adelic.trivial_weight(), tail_eps=eps).to_json()
        expect("z^%d - %d report under std passes the std oracle" % (n, a),
               not checks.check_report(o, "std", std, "t", eps))
        expect("z^%d - %d report under trivial passes the trivial oracle" % (n, a),
               not checks.check_report(o, "trivial", triv, "t", eps))
        expect("z^%d - %d report under trivial fails the std oracle" % (n, a),
               bool(checks.check_report(o, "std", triv, "t", eps)))
        expect("z^%d - %d report under std fails the trivial oracle" % (n, a),
               bool(checks.check_report(o, "trivial", std, "t", eps)))
        loose = dict(std, identity_slack=std["identity_slack"] * 1e4)
        expect("z^%d - %d report fails with its identity_slack inflated 1e4-fold" % (n, a),
               bool(checks.check_report(o, "std", loose, "t", eps)))


def main() -> int:
    oracle_agreement()
    checkers_pass_and_fail()
    if FAILURES:
        print("%d self-checks failed" % len(FAILURES))
        return 1
    print("all self-checks behave")
    return 0


if __name__ == "__main__":
    sys.exit(main())
