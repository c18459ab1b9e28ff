"""Adelic aggregation: weighted heights and global pairing reports.

Everything here folds the per-place data of ``local`` over the finite
list of relevant places.  Finite-place entries stay exact rationals
times log p; the archimedean entry and the omitted-place tail are the
only sources of interval width.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from .divisors import EffectiveDivisor
from .exact import LogValue, float_sum
from .local import LocalData, PlaceRow, mahler_g
from .places import ARCH, Place, _coprime, relevant_places
from .weights import Weight

__all__ = [
    "HeightInterval",
    "GlobalReport",
    "height",
    "global_fekete",
]


@dataclass(frozen=True)
class HeightInterval:
    """Certified enclosure of a weighted adelic height.

    value carries the computed sum over relevant places, err the
    archimedean evaluation error and the rounding of the float fold of the
    exact rows, and tail a bound on the total contribution of every
    omitted place (0 for a finitely supported weight).
    """

    value: float
    err: float
    tail: float

    @property
    def lo(self) -> float:
        return self.value - self.err - self.tail

    @property
    def hi(self) -> float:
        return self.value + self.err + self.tail

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __contains__(self, x: float) -> bool:
        return self.lo <= float(x) <= self.hi

    def to_json(self) -> dict:
        return {**asdict(self), "lo": self.lo, "hi": self.hi}


def height(
    Z: EffectiveDivisor,
    g: Weight,
    tail_eps: float = 1e-9,
) -> HeightInterval:
    """Weighted height of the divisor: sum over places of the weighted
    Mahler measure, divided by the degree.

    The place list is the certified relevant set for half of tail_eps,
    so the interval width never exceeds tail_eps plus the archimedean
    evaluation error.  A prime of d* left out of the set adds no Mahler
    term: it is a unit prime, and above the cutoff, inside tail_bound,
    when the weight branches.
    """
    rel = relevant_places(Z, g, tail_eps / 2.0)
    total = LogValue.real(*float_sum(mahler_g(Z, g, v) for v in rel.places))
    return _interval(total, Z.degree, rel.tail_bound)


def _interval(total: LogValue, d: int, tail: float) -> HeightInterval:
    # the height from the summed weighted Mahler measure and the degree d
    h = total.scaled(Fraction(1, d))
    return HeightInterval(h.value, h.err, tail)


@dataclass(frozen=True)
class GlobalReport:
    """Adelic summary of one divisor against one weight.

    rows holds one row per relevant place: primes ascending, then base
    places, C's last (see global_fekete), then the archimedean one.
    cofactor is C, what the other finite rows' d* terms leave of |num(d*)|
    (1 if nothing).  The aggregates are fields filled by global_fekete's
    one fold, so the rows refold to them.
    uniform_sup is the largest pairing magnitude plus error over d^2
    (exact zeros skipped), and at least 4 times the tail of the weight's
    sup norms, which bounds every omitted place; log C over d^2 enters it
    and fekete_max_finite, and bounds the d* term of every prime of C.
    """

    degree: int
    inf_mult: int
    diagonal_mass: int
    diagonal_ratio: Fraction
    rows: tuple[PlaceRow, ...]
    tail_bound: float
    prime_cutoff: int | None
    cofactor: int
    identity_residual: float
    identity_slack: float
    dstar_product_formula: bool
    height_interval: HeightInterval
    fekete_total_ratio: float
    fekete_arch: float
    fekete_max_finite: float
    uniform_sup: float

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "inf_mult": self.inf_mult,
            "diagonal_mass": self.diagonal_mass,
            "diagonal_ratio": str(self.diagonal_ratio),
            "rows": [r.to_json() for r in self.rows],
            "tail_bound": self.tail_bound,
            "prime_cutoff": self.prime_cutoff,
            "height": self.height_interval.to_json(),
            "fekete_total_ratio": self.fekete_total_ratio,
            "fekete_arch": self.fekete_arch,
            "fekete_max_finite": self.fekete_max_finite,
            "uniform_sup": self.uniform_sup,
            "identity_residual": self.identity_residual,
            "identity_slack": self.identity_slack,
            "dstar_product_formula": self.dstar_product_formula,
        }


def global_fekete(
    Z: EffectiveDivisor,
    g: Weight,
    tail_eps: float = 1e-9,
) -> GlobalReport:
    """Per-place pairing table with the assembled global identity.

    For each relevant place the row carries the round and weighted
    Mahler measures, the off-diagonal pairing sum, and the local size of
    the pairwise difference product.  The report's identity_residual is
    the defect of the global relation

        sum_v (Z,Z)_v  =  -2 d^2 h + 2 sum_w m_w^2 (G(w) + R(w))

    with G(w) the adelic sum of weight values at the support point and
    R(w) the adelic sum of its round-metric terms (the log of its
    projective norm at each place); it must vanish within identity_slack.
    The primes of d* that relevant_places leaves out share the row of the
    base place C, what the other finite rows' d* terms leave of |num(d*)|:
    a unit place, so its Mahler entries are exact zeros and its pairing
    and log_dstar are -log C.  dstar_product_formula checks the printed
    rows exactly: they rebuild |d*|, at pairwise coprime places.
    """
    rel = relevant_places(Z, g, tail_eps / 2.0)
    d = Z.degree
    rows, diags = [], []
    listed = Fraction(1)  # the product of b^v_b(d*) over the finite rows

    def fold(v):
        nonlocal listed
        data = LocalData(Z, g, v)
        row, diag = data.row()
        rows.append(row)
        diags.extend(diag)
        if k := row.log_dstar.coeff:  # -v_b(d*); None at ARCH
            listed *= Fraction(v.prime) ** -k
        return data

    for v in rel.places[:-1]:
        fold(v)
    # what the rows leave of |num(d*)| is C, the last finite row's base place
    if (cofactor := abs(Z.d_star.numerator) // listed.numerator) > 1:
        fold(Place(cofactor, base=True))
    data = fold(ARCH)
    formula = listed == abs(Z.d_star) and _coprime([r.place for r in rows[:-1]])
    pairings = [r.fekete for r in rows]
    # the largest |pairing| + error; exact zeros give 0
    sup = max(abs(x) + e for x, e in map(LogValue._as_float, pairings))

    # the identity's two sides and the archimedean row against its
    # difference-product route: each gap's true value is 0
    mahlers = (r.mahler_weighted for r in rows)
    lhs, h, dg = (LogValue.real(*float_sum(xs)) for xs in (pairings, mahlers, diags))
    gap = lhs - (h.scaled(-2 * d) + dg.scaled(2))
    residual, slack = abs(gap.value), gap.err
    if d >= 2:
        gap = pairings[-1] - data.pairing()
        residual, slack = max(residual, abs(gap.value)), max(slack, gap.err)

    d2 = d ** 2
    return GlobalReport(
        degree=d,
        inf_mult=Z.inf_mult,
        diagonal_mass=Z.diagonal_mass,
        diagonal_ratio=Z.small_diagonal_ratio,
        rows=tuple(rows),
        tail_bound=rel.tail_bound,
        prime_cutoff=rel.prime_cutoff,
        cofactor=cofactor,
        identity_residual=residual,
        identity_slack=slack,
        dstar_product_formula=formula,
        height_interval=_interval(h, d, rel.tail_bound),
        fekete_total_ratio=lhs.value / d2,
        fekete_arch=pairings[-1].value / d2,
        fekete_max_finite=max((abs(x.value) for x in pairings[:-1]), default=0.0) / d2,
        uniform_sup=max(4.0 * rel.tail_bound, sup / d2),
    )
