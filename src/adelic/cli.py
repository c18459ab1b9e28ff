"""Command line front end.

Subcommands: dstar, height, fekete, equidist, verify.  All computation
happens first; printing and file output are single-threaded at the end.
Exit status 0 on success, 1 on a failed verify suite, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from .berkovich import BerkPoint
from .certify import lemma43_certify, random_adversarial_instance, random_certifier_instance
from .divisors import divisor_from_poly
from .exact import DomainError, _primes_below, val_p
from .heights import global_fekete, height
from .local import fekete_sum
from .places import ARCH, Place, _base_places, log_abs, product_formula_check
from .sequences import SequenceSpec, experiment_run
from .weights import (
    ex5_weight,
    potential_kernel,
    radii,
    std_weight,
    trivial_weight,
)

__all__ = ["main"]

_WEIGHTS = {"trivial": trivial_weight, "std": std_weight, "ex5": ex5_weight}


def _parse_poly(text: str) -> list[int]:
    try:
        return [int(tok.strip()) for tok in text.split(",")]
    except ValueError:
        raise DomainError("--poly wants comma separated integers, got %r" % text)


def _parse_place(text: str) -> Place:
    if text == "inf":
        return ARCH
    try:
        p = int(text)
    except ValueError:
        raise DomainError("--place wants 'inf', a prime, or 'all', got %r" % text)
    return Place(p)


def _parse_family(text: str) -> tuple[str, int | None]:
    if text == "unit_roots":
        return "unit_roots", None
    for tag, family in (("pow:", "pow_minus"), ("preimages:", "preimages")):
        if text.startswith(tag):
            try:
                return family, int(text[len(tag):])
            except ValueError:
                raise DomainError("family parameter must be an integer: %r" % text)
    raise DomainError(
        "unknown family %r (choose unit_roots, pow:<a>, preimages:<c>)" % text
    )


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=1)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_dstar(args) -> int:
    Z = divisor_from_poly(_parse_poly(args.poly), args.inf_mult)
    ds = Z.d_star
    # one row per place of d*'s coprime base, as product_formula_check reads
    table = [{"place": str(v), "log_abs": log_abs(ds, v).to_json()}
             for v in [ARCH] + _base_places(ds)]
    _emit({
        "degree": Z.degree,
        "dstar": str(ds),
        "log_table": table,
        "product_formula_ok": product_formula_check(ds),
    })
    return 0


def _cmd_height(args) -> int:
    Z = divisor_from_poly(_parse_poly(args.poly), args.inf_mult)
    g = _WEIGHTS[args.weight]()
    h = height(Z, g, tail_eps=args.tail_eps)
    out = {"degree": Z.degree, "weight": g.name}
    out.update(h.to_json())
    _emit(out)
    return 0


def _cmd_fekete(args) -> int:
    Z = divisor_from_poly(_parse_poly(args.poly), args.inf_mult)
    g = _WEIGHTS[args.weight]()
    if args.place == "all":
        report = global_fekete(Z, g, tail_eps=args.tail_eps)
        _emit(report.to_json())
        return 0
    v = _parse_place(args.place)
    value = fekete_sum(Z, g, v)
    _emit({
        "degree": Z.degree,
        "weight": g.name,
        "place": str(v),
        "fekete": value.to_json(),
        "exact": value.is_exact,
    })
    return 0


def _cmd_equidist(args) -> int:
    family, param = _parse_family(args.family)
    spec = SequenceSpec(family, n_max=args.n_max, n_min=args.n_min, param=param)
    g = _WEIGHTS[args.weight]()
    result = experiment_run(spec, g, out=args.out, tail_eps=args.tail_eps)
    last = result.rows[-1].report
    print("wrote %s: %d rows, final degree %d, final diag ratio %s"
          % (args.out, len(result.rows), last.degree, last.diagonal_ratio))
    if result.small_diagonal_suspect:
        print("note: sequence fails the small-diagonal hypothesis "
              "(diagonal ratio is not decaying)")
    return 0


# ---------------------------------------------------------------------------
# verify suites


def _suite_productformula(rng: random.Random) -> tuple[bool, str]:
    for i in range(100):
        q = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        if q == 0:
            q = Fraction(1, 3)
        if not product_formula_check(q):
            return False, "counterexample: rational %s" % q
    checked = 0
    while checked < 20:
        d = rng.randint(2, 8)
        coeffs = [rng.randint(-30, 30) for _ in range(d)] + [rng.randint(1, 30)]
        try:
            Z = divisor_from_poly(coeffs)
        except DomainError:
            continue
        ds = Z.d_star
        if not product_formula_check(ds):
            return False, "counterexample: coeffs %s, dstar %s" % (coeffs, ds)
        checked += 1
    return True, "product formula exact on 100 rationals and 20 divisor products"


def _suite_identity(rng: random.Random) -> tuple[bool, str]:
    weights = [(trivial_weight(), 1e-9), (std_weight(), 1e-9), (ex5_weight(), 5e-3)]
    for i in range(8):
        d = rng.randint(2, 8)
        coeffs = [rng.randint(-20, 20) for _ in range(d)] + [rng.randint(1, 20)]
        inf_mult = rng.choice([0, 0, 1, 2])
        try:
            Z = divisor_from_poly(coeffs, inf_mult)
        except DomainError:
            continue
        for g, tail in weights:
            report = global_fekete(Z, g, tail_eps=tail)
            if not report.identity_residual <= report.identity_slack:
                return False, (
                    "counterexample: coeffs %s inf %d weight %s residual %.3e slack %.3e"
                    % (coeffs, inf_mult, g.name, report.identity_residual,
                       report.identity_slack))
            if not report.dstar_product_formula:
                return False, "counterexample: coeffs %s product formula" % coeffs
    return True, "global identity within float slack on random divisors x 3 weights"


def _suite_ex5(rng: random.Random) -> tuple[bool, str]:
    import mpmath

    g = ex5_weight()
    primes = _primes_below(101)
    # (i) grid bound |g_p| <= t_p / 2 <= 1 / (2 p^2), in natural log units
    for p in primes:
        comp = g.finite(p)
        m = int(1 / (2 * comp.sup_coeff))
        with mpmath.workdps(40):
            if not mpmath.mpf(m) >= mpmath.mpf(p) ** 2 * mpmath.ln(p):
                return False, "counterexample: branch count %d at p=%d" % (m, p)
        for k in range(200):
            s = Fraction(k - 100, 25)
            c = comp.coeff_fn(s)
            if abs(c) > comp.sup_coeff:
                return False, "counterexample: grid p=%d s=%s coeff %s" % (p, s, c)
        if not float(comp.sup_coeff) * math.log(p) <= (1 + 1e-12) / (2 * p * p):
            return False, "counterexample: sup |g_p| above 1/(2p^2) at p=%d" % p
        r = radii(g, Place(p))
        if r.log_outer.coeff + r.log_inner.coeff != 0:
            return False, "counterexample: radii p=%d" % p
    # (ii) kernel equals the chordal log distance of scaled points, where
    # the scale has exact valuation -1/m at p
    for i in range(100):
        p = rng.choice([2, 3, 5, 7])
        comp = g.finite(p)
        shift = -comp.measure_point.rad_exp
        z = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        w = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        if z == w:
            continue

        def logplus(x):
            if x == 0:
                return Fraction(0)
            return max(Fraction(0), shift - val_p(x, p))

        want = (shift - val_p(z - w, p)) - logplus(z) - logplus(w)
        got = potential_kernel(g, Place(p), BerkPoint.type_i(p, z),
                               BerkPoint.type_i(p, w))
        if got.coeff != want:
            return False, ("counterexample: kernel p=%d z=%s w=%s got %s want %s"
                           % (p, z, w, got.coeff, want))
    # (iii) self-pairing of the unit-mass disk vanishes
    for p in primes:
        x = g.finite(p).measure_point
        got = potential_kernel(g, Place(p), x, x)
        if got.coeff != 0:
            return False, "counterexample: self pair p=%d coeff %s" % (p, got.coeff)
    return True, ("branching family: grid bound, kernel match, zero self-energy, "
                  "reciprocal radii all hold")


def _suite_lemma43(rng: random.Random) -> tuple[bool, str]:
    for i in range(300):
        rows, tails, tail_bound, eps = random_certifier_instance(rng)
        out = lemma43_certify(rows, tails, tail_bound, eps)
        if not out.ok:
            return False, "counterexample: valid instance %d refused: %s" % (i, out.to_json())
        brute = max(abs(a) for row in rows for a in row)
        if not brute < out.sup_bound:
            return False, "counterexample: certificate %d not confirmed, sup %g" % (i, brute)
    for i in range(300):
        rows, tails, tail_bound, eps, reason = random_adversarial_instance(rng)
        out = lemma43_certify(rows, tails, tail_bound, eps)
        if out.ok or out.reason != reason:
            return False, ("counterexample: adversarial %d expected %s got %s"
                           % (i, reason, out.to_json()))
    return True, "certifier: 300 valid certified and confirmed, 300 broken refused"


_SUITES = {
    "productformula": _suite_productformula,
    "identity": _suite_identity,
    "ex5": _suite_ex5,
    "lemma43": _suite_lemma43,
}


def _cmd_verify(args) -> int:
    rng = random.Random(20260821)
    ok, line = _SUITES[args.suite](rng)
    print(line)
    print("%s: %s" % (args.suite, "PASS" if ok else "FAIL"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="adelic",
        description="Exact adelic potential theory for divisors over Q",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_poly(p):
        p.add_argument("--poly", required=True,
                       help="comma separated integer coefficients, constant first")
        p.add_argument("--inf-mult", type=int, default=0,
                       help="multiplicity at infinity (default 0)")

    p = sub.add_parser("dstar", help="pairwise difference product, exact")
    add_poly(p)
    p.set_defaults(fn=_cmd_dstar)

    p = sub.add_parser("height", help="adelic height interval")
    add_poly(p)
    p.add_argument("--weight", default="std", choices=sorted(_WEIGHTS))
    p.add_argument("--tail-eps", type=float, default=1e-9)
    p.set_defaults(fn=_cmd_height)

    p = sub.add_parser("fekete", help="weighted pair sum at one or all places")
    add_poly(p)
    p.add_argument("--weight", default="std", choices=sorted(_WEIGHTS))
    p.add_argument("--place", default="all",
                   help="'inf', a prime, or 'all' (default all)")
    p.add_argument("--tail-eps", type=float, default=1e-9)
    p.set_defaults(fn=_cmd_fekete)

    p = sub.add_parser("equidist", help="tabulate a divisor sequence")
    p.add_argument("--family", required=True,
                   help="unit_roots, pow:<a>, or preimages:<c>")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--weight", default="std", choices=sorted(_WEIGHTS))
    p.add_argument("--tail-eps", type=float, default=1e-9)
    p.add_argument("--out", required=True, help="output path, .csv or .json")
    p.set_defaults(fn=_cmd_equidist)

    p = sub.add_parser("verify", help="run a named self-check suite")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
