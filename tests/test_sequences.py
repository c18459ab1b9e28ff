import csv
import json
from fractions import Fraction

import pytest

from adelic.exact import DomainError
from adelic.sequences import (
    CSV_COLUMNS,
    SequenceSpec,
    experiment_run,
    generate,
)
from adelic.weights import std_weight, trivial_weight


def test_unit_roots_family():
    spec = SequenceSpec("unit_roots", n_max=5, n_min=2)
    divs = list(generate(spec))
    assert [Z.degree for Z in divs] == [2, 3, 4, 5]
    assert divs[2].finite_part.coeffs == (-1, 0, 0, 0, 1)


def test_pow_minus_family():
    spec = SequenceSpec("pow_minus", n_max=4, n_min=1, param=-3)
    divs = list(generate(spec))
    assert [Z.finite_part.coeffs for Z in divs] == [
        (3, 1), (3, 0, 1), (3, 0, 0, 1), (3, 0, 0, 0, 1)]


def test_preimages_family_composes():
    spec = SequenceSpec("preimages", n_max=3, param=1)
    divs = list(generate(spec))
    assert [Z.degree for Z in divs] == [2, 4, 8]
    # (z^2+1)^2 + 1
    assert divs[1].finite_part.coeffs == (2, 0, 2, 0, 1)


def test_preimages_of_zero_single_point():
    spec = SequenceSpec("preimages", n_max=4, param=0)
    for n, Z in zip(spec.indices(), generate(spec)):
        assert Z.degree == 2 ** n
        assert Z.small_diagonal_ratio == 1


def test_spec_validation():
    with pytest.raises(DomainError):
        SequenceSpec("pow_minus", n_max=3, param=0)
    with pytest.raises(DomainError):
        SequenceSpec("pow_minus", n_max=3, param=1)
    with pytest.raises(DomainError):
        SequenceSpec("preimages", n_max=10, param=1)
    with pytest.raises(DomainError):
        SequenceSpec("preimages", n_max=3)
    with pytest.raises(DomainError):
        SequenceSpec("unit_roots", n_max=2, n_min=3)
    with pytest.raises(DomainError):
        SequenceSpec("mystery", n_max=2)
    # every family's final degree is held to the certified-root cap of 512
    with pytest.raises(DomainError):
        SequenceSpec("unit_roots", n_max=513, n_min=511)
    with pytest.raises(DomainError):
        SequenceSpec("pow_minus", n_max=513, param=2)
    SequenceSpec("unit_roots", n_max=512, n_min=511)
    SequenceSpec("pow_minus", n_max=512, param=2)


def test_experiment_rows_and_flags():
    res = experiment_run(SequenceSpec("unit_roots", n_max=8, n_min=2), std_weight())
    assert len(res.rows) == 7
    ratios = [r.report.diagonal_ratio for r in res.rows]
    assert ratios[0] == Fraction(1, 2) and ratios[-1] == Fraction(1, 8)
    assert not res.small_diagonal_suspect

    res = experiment_run(SequenceSpec("preimages", n_max=3, param=0), trivial_weight())
    assert all(r.report.diagonal_ratio == 1 for r in res.rows)
    assert res.small_diagonal_suspect
    assert res.to_json_dict()["small_diagonal_suspect"] is True


def test_csv_emission_columns(tmp_path):
    out = tmp_path / "t.csv"
    experiment_run(SequenceSpec("pow_minus", n_max=4, n_min=2, param=2),
                   std_weight(), out=str(out))
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0].keys()) == CSV_COLUMNS
    assert [r["n"] for r in rows] == ["2", "3", "4"]
    # h(2^(1/n)) = (log 2)/n: check the CSV numbers directly
    import math
    for r in rows:
        n = int(r["n"])
        assert abs(float(r["h_lo"]) - math.log(2) / n) < 1e-9
        assert float(r["h_lo"]) <= float(r["h_hi"])
        assert float(r["diag_ratio"]) == 1.0 / n


def test_json_emission_mirrors_report(tmp_path):
    out = tmp_path / "t.json"
    res = experiment_run(SequenceSpec("unit_roots", n_max=3, n_min=2),
                         std_weight(), out=str(out))
    data = json.loads(out.read_text())
    assert data["family"] == "unit_roots"
    assert data["weight"] == "std"
    assert len(data["rows"]) == 2
    row = data["rows"][0]
    rep = res.rows[0].report.to_json()
    for key in rep:
        assert key in row
    assert row["n"] == 2


def test_write_failures_carry_path(tmp_path):
    res = experiment_run(SequenceSpec("unit_roots", n_max=2, n_min=2), std_weight())
    with pytest.raises(DomainError) as err:
        res.write(str(tmp_path / "missing_dir" / "t.csv"))
    assert "missing_dir" in str(err.value)
    with pytest.raises(DomainError):
        res.write(str(tmp_path / "t.txt"))


def test_bad_suffix_is_refused_before_any_report(tmp_path, monkeypatch):
    import adelic.sequences

    calls = [0]
    real = adelic.sequences.global_fekete

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(adelic.sequences, "global_fekete", counting)
    out = tmp_path / "x.txt"
    with pytest.raises(DomainError):
        experiment_run(SequenceSpec("unit_roots", n_max=4, n_min=2), std_weight(), out=str(out))
    assert calls[0] == 0 and not out.exists()
    experiment_run(SequenceSpec("unit_roots", n_max=3, n_min=2), std_weight(),
                   out=str(tmp_path / "x.csv"))
    assert calls[0] == 2
