"""Finite-stage certifier for uniform smallness of a doubly indexed array.

Setting: real entries a[n][m] for m <= M whose columns are capped by
nonnegative reals b[m] (a[n][m] <= b[m]), together with a caller
certified bound B_tail on the sum of the caps past M.  If the tail is
below eps/4, a row's sum (widened by the tail bound) is below eps/4 in
absolute value, and the row's sup over the supplied columns is below
eps/(4M), then the row's sup over ALL columns, including every
unsupplied one, is below eps.

The engine is a three-term decomposition of any unseen entry: it equals
the full row sum minus the supplied part minus the other tail entries,
so it is bounded below by -eps/4 - eps/4 - eps/4 and above by the tail
cap.  Certification therefore asserts the stronger bound 3*eps/4.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Sequence

from .exact import DomainError

__all__ = ["Certificate", "Refusal", "lemma43_certify"]


@dataclass(frozen=True)
class Certificate:
    """Successful outcome: sup over all columns of |a[n][m]| < eps for
    every supplied row, with the sharper certified bound 3*eps/4."""

    eps: float
    columns: int
    rows: int
    sup_bound: float
    checked_sup: float

    ok = True  # unannotated: a class constant, not a dataclass field

    def to_json(self) -> dict:
        return {"certified": self.ok, **asdict(self)}


@dataclass(frozen=True)
class Refusal:
    """Failed outcome, naming the first violated hypothesis.

    reason is one of "tail_bound" (the cap tail is not below eps/4),
    "row_sum" (a row sum plus the tail bound is not below eps/4), or
    "row_sup" (a supplied entry is not below eps/(4M)); row gives the
    offending row for the latter two.
    """

    reason: str
    row: int | None
    detail: str

    ok = False  # unannotated: a class constant, not a dataclass field

    def to_json(self) -> dict:
        return {"certified": self.ok, **asdict(self)}


def lemma43_certify(
    rows: Sequence[Sequence[float]],
    tails: Sequence[float],
    tail_bound: float,
    eps: float,
):
    """Certify sup_m |a[n][m]| < eps for every row n, or refuse.

    rows is the matrix a, tails the column caps b (one per supplied
    column), tail_bound a caller-certified bound on the sum of caps past
    the supplied columns.  Violations of the input contract (a <= b
    columnwise, caps and tail nonnegative, eps positive, rectangular
    shape) raise DomainError; hypothesis failures return a Refusal with
    the first violated check in row order.
    """
    if not eps > 0:  # NaN included
        raise DomainError(f"eps must be positive, got {eps!r}")
    if not tail_bound >= 0:
        raise DomainError(f"tail bound must be nonnegative, got {tail_bound!r}")
    m_cols = len(tails)
    if m_cols == 0:
        raise DomainError("at least one column is required")
    if len(rows) == 0:
        raise DomainError("at least one row is required")
    for m, b in enumerate(tails):
        if not b >= 0:
            raise DomainError("cap %d is negative" % m)
    for n, row in enumerate(rows):
        if len(row) != m_cols:
            raise DomainError("row %d has %d entries, expected %d" % (n, len(row), m_cols))
        for m, a in enumerate(row):
            if not a <= tails[m]:
                raise DomainError(
                    "hypothesis a <= b fails at row %d column %d: %r > %r"
                    % (n, m, a, tails[m])
                )

    quarter = eps / 4.0
    if not tail_bound < quarter:
        return Refusal(
            "tail_bound", None,
            "cap tail %g is not below eps/4 = %g" % (tail_bound, quarter),
        )
    col_limit = eps / (4.0 * m_cols)
    checked = 0.0
    for n, row in enumerate(rows):
        total = abs(sum(row)) + tail_bound
        if not total < quarter:
            return Refusal(
                "row_sum", n,
                "row %d sum with tail %g is not below eps/4 = %g" % (n, total, quarter),
            )
        sup = max(abs(a) for a in row)
        if not sup < col_limit:
            return Refusal(
                "row_sup", n,
                "row %d sup %g is not below eps/(4M) = %g" % (n, sup, col_limit),
            )
        checked = max(checked, sup)
    return Certificate(
        eps=eps,
        columns=m_cols,
        rows=len(rows),
        sup_bound=0.75 * eps,
        checked_sup=checked,
    )


def random_certifier_instance(rng: random.Random):
    """A (rows, tails, tail_bound, eps) tuple satisfying every hypothesis."""
    m_cols = rng.randint(1, 6)
    n_rows = rng.randint(1, 5)
    eps = rng.uniform(0.05, 2.0)
    col_limit = eps / (4.0 * m_cols)
    q = 0.9 * min(col_limit, eps / (8.0 * m_cols))
    rows = [[rng.uniform(-q, q) for _ in range(m_cols)] for _ in range(n_rows)]
    tail_bound = 0.1 * eps / 4.0
    tails = [q for _ in range(m_cols)]
    return rows, tails, tail_bound, eps


def random_adversarial_instance(rng: random.Random):
    """A broken instance plus the reason the certifier must give."""
    rows, tails, tail_bound, eps = random_certifier_instance(rng)
    m_cols = len(tails)
    kind = rng.randint(0, 2)
    if kind == 2 and m_cols == 1:
        kind = rng.choice([0, 1])
    if kind == 0:
        return rows, tails, eps / 4.0 * rng.uniform(1.0, 3.0), eps, "tail_bound"
    col_limit = eps / (4.0 * m_cols)
    row = rng.randrange(len(rows))
    if kind == 1:
        rows[row] = [0.93 * col_limit] * m_cols
        tails = [0.95 * col_limit] * m_cols
        return rows, tails, tail_bound, eps, "row_sum"
    bad = 1.5 * col_limit
    rows[row] = [0.0] * m_cols
    rows[row][0] = bad
    rows[row][1] = -bad * 0.999
    tails = [1.01 * bad] * m_cols
    return rows, tails, tail_bound, eps, "row_sup"
