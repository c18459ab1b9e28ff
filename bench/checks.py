"""Checkers: compare the program's outputs with the oracles.

Every checker returns a list of problems, empty when the output passes.
Outputs arrive as the JSON the worker wrote: LogValues as
{"value", "err"} (archimedean) or {"coeff", "log_base"} (exact), reports
as GlobalReport.to_json(), height intervals as HeightInterval.to_json().
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import mpmath

import oracles

# Width caps.  An enclosure must also be tight, so that a change trading
# accuracy for speed (coarser certification, lower working precision, a
# looser error bound) fails a check instead of reading as a gain.  The
# widest values seen on every workload are 6e-13 for err / max(1, |value|),
# 1.9e-12 for identity_slack / max(1, |arch pairing|) and 5.1e-14 for a
# disk radius.
ERR_CAP = 1e-10          # err of a float value, relative to max(1, |value|)
SLACK_CAP = 1e-10        # identity_slack, relative to max(1, |arch pairing|)
RADIUS_CAP = 1e-13       # the tolerance arch_support asks certified_roots for


def encloses(lv: dict, want, what: str) -> list[str]:
    """The float value +/- err must contain the oracle value, with err
    within ERR_CAP."""
    if "value" not in lv:
        return ["%s: expected a float value, got %r" % (what, lv)]
    out = []
    if not lv["err"] <= ERR_CAP * max(1.0, abs(lv["value"])):
        out.append("%s: err %.3g is wider than %g relative to %r"
                   % (what, lv["err"], ERR_CAP, lv["value"]))
    with mpmath.workdps(oracles.SUM_DPS + 10):
        off = abs(mpmath.mpf(lv["value"]) - want)
        if off > mpmath.mpf(lv["err"]):
            out.append("%s: %r +/- %.3g misses the oracle %s by %.3g"
                       % (what, lv["value"], lv["err"], mpmath.nstr(want, 20), float(off)))
    return out


def interval_encloses(h: dict, want, what: str, tail_eps: float) -> list[str]:
    """[lo, hi] must contain the oracle value and be no wider than the
    program promises: tail_eps plus twice an archimedean err within ERR_CAP."""
    out = []
    width_cap = tail_eps + 2 * ERR_CAP * max(1.0, abs(h["value"]))
    if not h["hi"] - h["lo"] <= width_cap:
        out.append("%s: interval width %.3g exceeds %.3g (tail_eps %g)"
                   % (what, h["hi"] - h["lo"], width_cap, tail_eps))
    with mpmath.workdps(oracles.SUM_DPS + 10):
        if not mpmath.mpf(h["lo"]) <= want <= mpmath.mpf(h["hi"]):
            out.append("%s: [%r, %r] misses the oracle %s"
                       % (what, h["lo"], h["hi"], mpmath.nstr(want, 20)))
    return out


def exact_coeff(lv: dict) -> Fraction:
    return Fraction(lv["coeff"])


def dstar_rows(rows: list[dict], dstar: Fraction, what: str) -> list[str]:
    """The finite rows of log_dstar must rebuild |d*| exactly."""
    got = Fraction(1)
    for r in rows:
        if r["place"] == "inf":
            continue
        c = exact_coeff(r["log_dstar"])       # -v_p(d*)
        if c.denominator != 1:
            return ["%s: log_dstar at %s is not an integer multiple of log p" % (what, r["place"])]
        got *= Fraction(int(r["place"])) ** int(-c)
    if got != dstar:
        return ["%s: finite log_dstar rows rebuild %s, not |d*| = %s" % (what, got, dstar)]
    return []


def audit_disks(disks: list, roots: list) -> int:
    """Number of returned disks (re, im, radius) that contain no oracle root.

    Containment is decided in 70-digit arithmetic; the centres and radii are
    doubles, so they are exact there."""
    import numpy as np

    approx = np.array([complex(z) for z in roots])
    outside = 0
    with mpmath.workdps(oracles.ROOT_DPS + 10):
        for re, im, rad in disks:
            near = np.nonzero(np.abs(approx - complex(re, im)) <= rad + 1e-6)[0]
            c = mpmath.mpc(re, im)
            r = mpmath.mpf(rad)
            if not any(abs(c - roots[k]) <= r for k in near):
                outside += 1
    return outside


def wide_disks(disks: list) -> int:
    """Number of disks (re, im, radius) with a radius above RADIUS_CAP."""
    return sum(1 for _, _, rad in disks if not rad <= RADIUS_CAP)


class InputOracle:
    """Every oracle value one input needs, computed once per run."""

    def __init__(self, inp: dict, ex5: "oracles.Ex5Oracle | None" = None):
        self.inp = inp
        self.pts = oracles.support(inp)
        self.degree = sum(m for _, m in self.pts)
        self.diag_ratio = oracles.diagonal_ratio(inp)
        self.ex5 = ex5
        self._pair: dict[str, object] = {}
        self._mahler: dict[str, object] = {}
        self._height: dict[tuple, object] = {}
        self._ex5_rows: dict[int, tuple[Fraction, Fraction]] = {}

    @cached_property
    def dstar(self) -> Fraction:
        return oracles.dstar(self.inp)

    @cached_property
    def _logs(self):
        return oracles.pair_log_sum(self.pts)

    @cached_property
    def _special(self) -> set[int]:
        return oracles.rational_special_primes(self.pts)

    def pair_sum(self, weight: str):
        if weight not in self._pair:
            self._pair[weight] = oracles.arch_pair_sum(self.pts, weight, self._logs)
        return self._pair[weight]

    def mahler(self, weight: str):
        if weight not in self._mahler:
            self._mahler[weight] = oracles.arch_mahler(self.pts, weight)
        return self._mahler[weight]

    def roots(self) -> list:
        with mpmath.workdps(oracles.ROOT_DPS):
            return [oracles._mp(z) for z, _ in self.pts if z is not oracles.INF]

    # -- ex5 --------------------------------------------------------------
    def ex5_row(self, p: int) -> tuple[Fraction, Fraction]:
        """(pairing, weight integral) coefficients of log p."""
        row = self._ex5_rows.get(p)
        if row is None:
            vpt, vpair = self.ex5.valuations(self.pts, p, p in self._special)
            row = (self.ex5.pairing(self.pts, p, vpt, vpair), self.ex5.integral(self.pts, p, vpt))
            self._ex5_rows[p] = row
        return row

    def ex5_listed_primes(self, cutoff: int) -> list[int]:
        """Primes up to the cutoff, and beyond it the primes of lc and d*."""
        import sympy

        out = set(oracles.primes_upto(cutoff))
        if len(out) != sympy.primepi(cutoff):
            raise oracles.OracleError("sieve disagrees with primepi(%d)" % cutoff)
        lc = oracles.primitive_lc(self.inp["coeffs"])
        extra = set(sympy.factorint(lc)) if lc > 1 else set()
        for p in self._special:
            if oracles.valuation(self.dstar, p) != 0:
                extra.add(p)
        return sorted(out | {p for p in extra if p > cutoff})

    def height(self, weight: str, primes: tuple = ()):
        key = (weight, primes)
        if key not in self._height:
            finite = {p: self.ex5_row(p)[1] for p in primes} if weight == "ex5" else None
            self._height[key] = oracles.height(self.inp, self.pts, weight, finite)
        return self._height[key]


def check_arch_values(o: InputOracle, weight: str, fekete: dict, mahler: dict | None,
                      what: str, identity: dict | None = None) -> list[str]:
    out = encloses(fekete, o.pair_sum(weight), what + " fekete(inf)")
    if identity is not None:
        out += encloses(identity, o.pair_sum(weight), what + " fekete_identity(inf)")
    if mahler is not None:
        out += encloses(mahler, o.mahler(weight), what + " mahler_g(inf)")
    if weight == "std":
        closed = oracles.closed_form_arch_pairing(o.inp)
        if closed is not None:
            out += encloses(fekete, closed, what + " fekete(inf) closed form")
    return out


def check_height(o: InputOracle, weight: str, h: dict, what: str, tail_eps: float,
                 primes: tuple = ()) -> list[str]:
    out = interval_encloses(h, o.height(weight, primes), what + " height", tail_eps)
    if weight == "std":
        closed = oracles.closed_form_height(o.inp)
        if closed is not None:
            out += interval_encloses(h, closed, what + " height closed form", tail_eps)
    return out


def check_report(o: InputOracle, weight: str, rep: dict, what: str,
                 tail_eps: float) -> list[str]:
    """All checks on one GlobalReport."""
    out = []
    if rep["degree"] != o.degree or rep["inf_mult"] != o.inp["inf_mult"]:
        out.append("%s: degree %s / inf_mult %s, want %s / %s"
                   % (what, rep["degree"], rep["inf_mult"], o.degree, o.inp["inf_mult"]))
    if Fraction(rep["diagonal_ratio"]) != o.diag_ratio:
        out.append("%s: diagonal ratio %s, want %s" % (what, rep["diagonal_ratio"], o.diag_ratio))
    if not rep["identity_residual"] <= rep["identity_slack"]:
        out.append("%s: identity_residual %.3g exceeds identity_slack %.3g"
                   % (what, rep["identity_residual"], rep["identity_slack"]))
    if rep["dstar_product_formula"] is not True:
        out.append("%s: product formula flag is %r" % (what, rep["dstar_product_formula"]))
    arch = [r for r in rep["rows"] if r["place"] == "inf"]
    if len(arch) != 1:
        return out + ["%s: %d archimedean rows" % (what, len(arch))]
    slack_cap = SLACK_CAP * max(1.0, abs(arch[0]["fekete"]["value"]))
    if not rep["identity_slack"] <= slack_cap:
        out.append("%s: identity_slack %.3g exceeds %.3g" % (what, rep["identity_slack"], slack_cap))
    out += check_arch_values(o, weight, arch[0]["fekete"], arch[0]["mahler_weighted"], what)
    out += dstar_rows(rep["rows"], o.dstar, what)
    finite = [r for r in rep["rows"] if r["place"] != "inf"]
    primes = tuple(int(r["place"]) for r in finite)
    if weight == "ex5":
        out += check_ex5_rows(o, rep, finite, what, tail_eps)
    out += check_height(o, weight, rep["height"], what, tail_eps, primes)
    return out


def check_ex5_rows(o: InputOracle, rep: dict, finite: list[dict], what: str,
                   tail_eps: float) -> list[str]:
    """Prime listing and every finite-place pairing Fraction."""
    out = []
    cutoff = rep["prime_cutoff"]
    # the cutoff must certify the tail: 1/(2P) <= tail_eps / (2 D)
    if cutoff is None or cutoff * tail_eps < o.degree * (1 - 1e-9):
        out.append("%s: prime cutoff %s too small for tail_eps %g at degree %d"
                   % (what, cutoff, tail_eps, o.degree))
        return out
    want = o.ex5_listed_primes(cutoff)
    got = [int(r["place"]) for r in finite]
    if got != want:
        out.append("%s: %d finite places listed, want %d (primepi(%d) plus special primes)"
                   % (what, len(got), len(want), cutoff))
        return out
    bad = 0
    for r in finite:
        p = int(r["place"])
        if exact_coeff(r["fekete"]) != o.ex5_row(p)[0]:
            if bad < 3:
                out.append("%s: pairing at p=%d is %s, oracle %s"
                           % (what, p, r["fekete"]["coeff"], o.ex5_row(p)[0]))
            bad += 1
    if bad > 3:
        out.append("%s: %d finite pairings differ in all" % (what, bad))
    return out
