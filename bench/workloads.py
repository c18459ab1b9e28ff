"""Inputs of the four workloads, generated from the run seed.

Everything here is plain data (integer coefficient lists, rational roots,
operation descriptions) built with the standard library only, so the
worker that runs the program and the parent that computes the oracles
derive identical inputs from the same seed without sharing objects.

Each workload is a list of operations.  A round runs every operation once,
in order, in one fresh interpreter; the same seed always gives the same
operations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("structured", "dense_arch", "generic_reports", "ex5_places")

# Rounds a run makes at least, whatever --seconds says: four on
# generic_reports, whose op_p50_s is a median of operations of a few
# milliseconds, and the median of one round's moved by a tenth from one
# interpreter to the next on the same inputs at the same sampled speed;
# one elsewhere, where each operation takes a second or more.
MIN_ROUNDS = {"structured": 1, "dense_arch": 1, "generic_reports": 4, "ex5_places": 1}

# z^n - 2 with n near 128: a round takes all four exponents, in seeded
# order.  Their reports cost about the same as z^128 - 1, and their
# archimedean rows enclose their closed form today.  n = 120, 121, 129 and 132-135 do not (see
# CHANGES.md); a failure that depends on the seed cannot be counted.
POW_EXPONENTS = (122, 123, 124, 127)

# Known faults, kept as operations that fail in every round: the op id,
# the fault, and the problems its failure is allowed to report, each as the
# words a problem must all contain.
KNOWN_FAULT_OPS = {
    "equidist:unit_roots:256": (
        "fekete_sum_arch's error bound omits the rounding of its running sum",
        (("identity_residual", "exceeds identity_slack"), ("fekete(inf)", "misses the oracle"))),
    "ex5:0.0001:deg8:fixed": (
        "float_sum's error bound omits the rounding of its running sum, so "
        "the identity slack of a report with thousands of places is too small",
        (("identity_residual", "exceeds identity_slack"),)),
}
AUDIT_FAULT = "roots._certify rounds each centre to a double after computing " \
              "its radius about the ~166-bit point"

# Three polynomials of degree 96 make the middle of a round, so op_p50_s
# is the middle of three similar reports on three seeded inputs rather
# than one input's report.
DENSE_DEGREES = (64, 96, 96, 96, 192)
DENSE_COEFF = 50
# The leading coefficient is fixed at the coefficient bound: the working
# precision of root certification grows with the coefficients' size
# relative to it (67 digits at degree 128 with lc 41-50, 105 with lc 13),
# so a random lc would let the seed pick the precision.
DENSE_LC = 50

# The generic polynomials come from one fixed corpus: factoring d* costs
# 0.02-2.4 s per polynomial, so independent draws per seed would make the
# seed, not the program, decide the workload's time.  The run seed picks
# each entry's variant (z -> -z, reversal, multiplicity at infinity) and
# the order; the variants keep the discriminant that factoring works on.
GENERIC_CORPUS_SEED = 20261017
GENERIC_PER_DEGREE = 6
# A round takes the first three of each degree: 15 polynomials whose first
# report costs 0.01-1.7 s, 4 s in all, so that four rounds fit in a run.
GENERIC_PER_ROUND = 3
GENERIC_DEGREES = (8, 9, 10, 11, 12)
GENERIC_COEFF = 30

# ex5 slots: (tail_eps, multiplicities of the rational roots, multiplicity
# at infinity), total degrees 3, 8 and four times 2: 432, 1007 and 2262
# places.  The four 2262-place reports are the middle of the round, so
# op_p50_s falls among four similar reports on four seeded divisors
# rather than on one divisor's report.  Larger reports at 1e-4 fail the
# identity check on some seeds (see CHANGES.md), so the 7838-place report
# is one fixed divisor that fails it every time.
EX5_SLOTS = (
    (1e-3, (1, 1, 1), 0),
    (1e-3, (2, 1, 1, 1, 1), 2),
    (1e-4, (1, 1), 0),
    (1e-4, (1, 1), 0),
    (1e-4, (1, 1), 0),
    (1e-4, (1, 1), 0),
)
EX5_FIXED = (1e-4, ((1, 5), (-7, 3), (4, 5), (9, 5), (-11, 7), (-2, 1)), 2)


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficients)


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def primitive(coeffs: list[int]) -> list[int]:
    """Content and sign removed, leading coefficient positive."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    g = 0
    for c in cs:
        g = gcd(g, c)
    cs = [c // g for c in cs]
    if cs[-1] < 0:
        cs = [-c for c in cs]
    return cs


_P = (1 << 61) - 1


def _poly_mod(cs, p):
    out = [c % p for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _gcd_degree_mod(a, b, p):
    a, b = _poly_mod(a, p), _poly_mod(b, p)
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] = (a[i + shift] - q * c) % p
            while a and a[-1] == 0:
                a.pop()
            if not a:
                break
        a, b = b, a
    return len(a) - 1


def squarefree_mod_p(coeffs: list[int]) -> bool:
    """Sufficient test for squarefreeness over Q: gcd(f, f') = 1 modulo the
    Mersenne prime 2^61 - 1 (which divides none of the leading coefficients
    used here)."""
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    return _gcd_degree_mod(coeffs, deriv, _P) == 0


def _random_squarefree(rng: random.Random, degree: int, bound: int, lc: int = 0) -> list[int]:
    while True:
        cs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
        if lc:
            cs[-1] = lc
        if cs[0] == 0 or cs[-1] == 0:
            continue
        if squarefree_mod_p(cs):
            return cs


# ---------------------------------------------------------------------------
# workloads


def unit_roots(n: int) -> list[int]:
    return [-1] + [0] * (n - 1) + [1]


def pow_minus(n: int, a: int) -> list[int]:
    return [-a] + [0] * (n - 1) + [1]


def chebyshev_preimage(depth: int) -> list[int]:
    """The depth-fold iterate of z^2 - 2, of degree 2^depth."""
    f = [-2, 0, 1]
    for _ in range(depth - 1):
        f = poly_mul(f, f)
        f[0] -= 2
    return f


def _structured(rng: random.Random) -> dict:
    n_pows = list(POW_EXPONENTS)
    rng.shuffle(n_pows)
    inputs = {}
    ops = []

    def equidist(op_id, family, n_min, n_max, rows):
        ids = []
        for inp in rows:
            inputs[inp["id"]] = inp
            ids.append(inp["id"])
        ops.append({
            "id": op_id,
            "kind": "equidist",
            "argv": ["equidist", "--family", family, "--n-min", str(n_min),
                     "--n-max", str(n_max), "--weight", "std", "--tail-eps", "1e-9"],
            "rows": ids,
            "weight": "std",
            "tail_eps": 1e-9,
        })

    def unit(n):
        equidist("equidist:unit_roots:%d" % n, "unit_roots", n, n,
                 [{"id": "unit:%d" % n, "coeffs": unit_roots(n), "inf_mult": 0,
                   "form": ["unit", n]}])

    def pow2(n):
        equidist("equidist:pow:2:%d" % n, "pow:2", n, n,
                 [{"id": "pow2:%d" % n, "coeffs": pow_minus(n, 2), "inf_mult": 0,
                   "form": ["pow", n, 2]}])

    def preimages():
        equidist("equidist:preimages:-2:1-7", "preimages:-2", 1, 7,
                 [{"id": "cheb:%d" % k, "coeffs": chebyshev_preimage(k), "inf_mult": 0,
                   "form": ["cheb", k]} for k in range(1, 8)])

    # op_p50_s is the mean of the middle two of the five mid-sized reports
    # (z^128 - 1 and the four z^n - 2, 1.7-2.1 s each), not one report; they
    # are spread over the round so that one slow stretch of the machine
    # does not hold all of them
    unit(64)
    pow2(n_pows[0])
    unit(128)
    pow2(n_pows[1])
    unit(256)
    pow2(n_pows[2])
    preimages()
    pow2(n_pows[3])
    return {"inputs": inputs, "ops": ops, "audit": sorted(inputs)}


def _dense_arch(rng: random.Random) -> dict:
    inputs = {}
    ops = []
    for k, d in enumerate(DENSE_DEGREES):
        iid = "dense:%d:%d" % (k, d)
        inputs[iid] = {"id": iid, "coeffs": _random_squarefree(rng, d, DENSE_COEFF, DENSE_LC),
                       "inf_mult": 0, "form": ["dense"]}
        ops.append({"id": "arch_row:%d:%d" % (k, d), "kind": "arch_row", "input": iid,
                    "weights": ["std", "trivial"]})
    return {"inputs": inputs, "ops": ops, "audit": sorted(inputs)}


def generic_corpus() -> list[list[int]]:
    """The fixed generic corpus: GENERIC_PER_DEGREE squarefree polynomials of
    each degree in GENERIC_DEGREES, coefficients in [-30, 30], f(0) != 0."""
    rng = random.Random(GENERIC_CORPUS_SEED)
    return [_random_squarefree(rng, d, GENERIC_COEFF)
            for d in GENERIC_DEGREES for _ in range(GENERIC_PER_DEGREE)]


def _generic_reports(rng: random.Random) -> dict:
    inputs = {}
    ops = []
    corpus = [cs for j, cs in enumerate(generic_corpus())
              if j % GENERIC_PER_DEGREE < GENERIC_PER_ROUND]
    order = list(range(len(corpus)))
    rng.shuffle(order)
    # every round has the same mix of variants and multiplicities at
    # infinity; the seed decides which polynomial gets which
    variants = [j % 4 for j in range(len(corpus))]
    inf_mults = [(0, 0, 1, 2)[j % 4] for j in range(len(corpus))]
    rng.shuffle(variants)
    rng.shuffle(inf_mults)
    # one report per polynomial, under std and trivial in turn, then its
    # height under both: 45 operations, whose median falls among the 30
    # heights (about 1-3 ms) rather than on the edge between the heights
    # and the reports (5-20 ms), where it would jump with the seed
    for pos, k in enumerate(order):
        cs = list(corpus[k])
        variant = variants[pos]
        if variant & 1:
            cs = [c if j % 2 == 0 else -c for j, c in enumerate(cs)]
        if variant & 2:
            cs = cs[::-1]
        inf_mult = inf_mults[pos]
        iid = "generic:%02d:v%d:i%d" % (k, variant, inf_mult)
        inputs[iid] = {"id": iid, "coeffs": cs, "inf_mult": inf_mult, "form": ["dense"]}
        for kind, w in (("global_fekete", ("std", "trivial")[pos % 2]),
                        ("height", "std"), ("height", "trivial")):
            ops.append({"id": "%s:%s:%s" % (iid, kind, w), "kind": kind,
                        "input": iid, "weight": w, "tail_eps": 1e-9})
    return {"inputs": inputs, "ops": ops, "audit": []}


def _rational_roots(rng: random.Random, count: int) -> list[Fraction]:
    roots: list[Fraction] = []
    while len(roots) < count:
        q = Fraction(rng.randint(-12, 12), rng.randint(1, 8))
        if q not in roots:
            roots.append(q)
    return roots


def _ex5_input(iid: str, roots: list[Fraction], mults, inf_mult: int) -> dict:
    f = [1]
    for q, m in zip(roots, mults):
        for _ in range(m):
            f = poly_mul(f, [-q.numerator, q.denominator])
    return {"id": iid, "coeffs": f, "inf_mult": inf_mult,
            "form": ["rational", [[q.numerator, q.denominator, m]
                                  for q, m in zip(roots, mults)]]}


def _ex5_places(rng: random.Random) -> dict:
    inputs = {}
    ops = []
    slots = [(eps, _rational_roots(rng, len(mults)), mults, inf_mult, str(k))
             for k, (eps, mults, inf_mult) in enumerate(EX5_SLOTS)]
    eps, roots, inf_mult = EX5_FIXED
    slots.append((eps, [Fraction(a, b) for a, b in roots], (1,) * len(roots), inf_mult, "fixed"))
    for eps, roots, mults, inf_mult, tag in slots:
        iid = "ex5:" + tag
        inputs[iid] = _ex5_input(iid, roots, mults, inf_mult)
        ops.append({"id": "ex5:%g:deg%d:%s" % (eps, sum(mults) + inf_mult, tag),
                    "kind": "global_fekete", "input": iid, "weight": "ex5",
                    "tail_eps": eps})
    return {"inputs": inputs, "ops": ops, "audit": []}


_GENERATORS = {
    "structured": _structured,
    "dense_arch": _dense_arch,
    "generic_reports": _generic_reports,
    "ex5_places": _ex5_places,
}


def build(workload: str, seed: int) -> dict:
    """Inputs and operations of one round of the workload for this seed.

    Returns {"inputs": {id: input}, "ops": [op], "audit": [input ids whose
    certified root sets are audited]}.  An op that fails in every round
    because of a recorded fault carries "known_fault", its description, and
    "allowed", the problems that failure may report.
    """
    if workload not in _GENERATORS:
        raise ValueError("unknown workload %r (choose %s)" % (workload, ", ".join(WORKLOADS)))
    spec = _GENERATORS[workload](random.Random("%s:%d" % (workload, seed)))
    for op in spec["ops"]:
        if op["id"] in KNOWN_FAULT_OPS:
            op["known_fault"], op["allowed"] = KNOWN_FAULT_OPS[op["id"]]
    return spec
