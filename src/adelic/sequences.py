"""Divisor sequence generators and the tabulating experiment runner.

Three integer-coefficient families with degree growing along the index:
roots of unity, roots of z^n - a, and iterated preimages of 0 under
z^2 + c.  Every instance is exactly representable, so the per-divisor
reports inherit the exact finite-place arithmetic.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .divisors import EffectiveDivisor, divisor_from_poly
from .exact import DomainError, IntPoly
from .heights import GlobalReport, global_fekete
from .roots import DEGREE_CAP
from .weights import Weight

__all__ = [
    "SequenceSpec",
    "generate",
    "ExperimentResult",
    "experiment_run",
]

_FAMILIES = ("unit_roots", "pow_minus", "preimages")


@dataclass(frozen=True)
class SequenceSpec:
    """A family tag with its parameter and an index range.

    unit_roots: index n gives z^n - 1.
    pow_minus:  index n gives z^n - a for the integer parameter a, |a| >= 2.
    preimages:  index n gives the n-fold composition of z^2 + c, evaluated
                as a divisor of degree 2^n.
    n_max is capped so that every degree stays within the certified-root limit.
    """

    family: str
    n_max: int
    n_min: int = 1
    param: int | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError("unknown family %r" % (self.family,))
        if self.n_min < 1 or self.n_max < self.n_min:
            raise DomainError("empty index range [%d, %d]" % (self.n_min, self.n_max))
        if self.family == "pow_minus":
            if self.param is None or abs(self.param) < 2:
                raise DomainError("pow_minus needs an integer parameter with |a| >= 2")
        pre = self.family == "preimages"
        if pre and self.param is None:
            raise DomainError("preimages needs the integer parameter c")
        # the final degree, n_max or 2^n_max (exponent clipped, so a huge n_max
        # builds no huge integer), checked before any divisor is built
        if (2 ** min(self.n_max, DEGREE_CAP) if pre else self.n_max) > DEGREE_CAP:
            raise DomainError("index %d gives degree %s%d beyond the certified-root cap %d"
                              % (self.n_max, "2^" if pre else "", self.n_max, DEGREE_CAP))

    def indices(self) -> range:
        return range(self.n_min, self.n_max + 1)


def generate(spec: SequenceSpec) -> Iterator[EffectiveDivisor]:
    """The divisor stream of the family, one per index."""
    if spec.family == "preimages":
        f = IntPoly.make([spec.param, 0, 1])
        for n in range(1, spec.n_max + 1):
            if n > 1:
                f = (f * f).add_scalar(spec.param)
            if n >= spec.n_min:
                yield divisor_from_poly(f.coeffs)
    else:
        a = 1 if spec.family == "unit_roots" else spec.param
        for n in spec.indices():
            yield divisor_from_poly([-a] + [0] * (n - 1) + [1])


CSV_COLUMNS = (
    "n",
    "degree",
    "diag_ratio",
    "h_lo",
    "h_hi",
    "fekete_arch",
    "fekete_max_finite",
    "uniform_sup",
)


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    report: GlobalReport

    def csv_record(self) -> dict:
        h = self.report.height_interval
        return {
            "n": self.n,
            "degree": self.report.degree,
            "diag_ratio": float(self.report.diagonal_ratio),
            "h_lo": h.lo,
            "h_hi": h.hi,
            "fekete_arch": self.report.fekete_arch,
            "fekete_max_finite": self.report.fekete_max_finite,
            "uniform_sup": self.report.uniform_sup,
        }


@dataclass(frozen=True)
class ExperimentResult:
    """All rows of one experiment plus the small-diagonal verdict.

    The small-diagonal hypothesis asks the repeated-point mass ratio to
    decay along the sequence; a family whose final ratio is no smaller
    than its first, or stays at 1/2 or above, is flagged rather than
    dropped, so degenerate controls stay visible in the output.
    """

    spec: SequenceSpec
    weight_name: str
    rows: tuple[ExperimentRow, ...]

    @property
    def small_diagonal_suspect(self) -> bool:
        ratios = [r.report.diagonal_ratio for r in self.rows]
        stuck = len(ratios) > 1 and ratios[-1] >= ratios[0]
        return stuck or ratios[-1] >= Fraction(1, 2)

    def to_json_dict(self) -> dict:
        return {
            "family": self.spec.family,
            "param": self.spec.param,
            "weight": self.weight_name,
            "small_diagonal_suspect": self.small_diagonal_suspect,
            "rows": [dict(r.report.to_json(), n=r.n) for r in self.rows],
        }

    def write(self, path: str) -> None:
        """Emit the table; the format follows the file suffix."""
        fmt = _out_format(path)
        try:
            with open(path, "w", newline="" if fmt == "csv" else None) as fh:
                if fmt == "csv":
                    w = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
                    w.writeheader()
                    w.writerows(r.csv_record() for r in self.rows)
                else:
                    json.dump(self.to_json_dict(), fh, indent=1)
        except OSError as e:
            raise DomainError("cannot write %s %s: %s" % (fmt.upper(), path, e))


def _out_format(path: str) -> str:
    # "csv" or "json" from the output path's suffix
    for fmt in ("csv", "json"):
        if path.endswith("." + fmt):
            return fmt
    raise DomainError("output path must end in .csv or .json: %s" % path)


def experiment_run(
    spec: SequenceSpec,
    g: Weight,
    out: str | None = None,
    tail_eps: float = 1e-9,
) -> ExperimentResult:
    """One global report per index of the family, with optional emission.

    Rows are independent and evaluate in index order; the result is a
    deterministic fold of the per-row reports.
    """
    if out is not None:
        _out_format(out)  # a bad suffix is refused before the first report
    rows = []
    for n, Z in zip(spec.indices(), generate(spec)):
        rows.append(ExperimentRow(n, global_fekete(Z, g, tail_eps)))
    result = ExperimentResult(spec, g.name, tuple(rows))
    if out is not None:
        result.write(out)
    return result
