import json
import math
import time
from fractions import Fraction

import pytest

from adelic.cli import _SUITES, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dstar_json(capsys):
    code, out, _ = run_cli(capsys, "dstar", "--poly=-1,0,0,0,1")
    assert code == 0
    data = json.loads(out)
    assert data["dstar"] == "-256"
    assert data["product_formula_ok"] is True
    places = {row["place"] for row in data["log_table"]}
    assert places == {"inf", "2"}
    two = next(r for r in data["log_table"] if r["place"] == "2")
    assert two["log_abs"] == {"coeff": "-8", "log_base": 2}


def test_dstar_of_a_semiprime_takes_bounded_time(capsys):
    # N z^2 + z - N, N = p q of 60 digits: d* = -(4 N^2 + 1) / N^2, and the
    # table's rows are one per place of its coprime base, N^2 a base place
    # of its own; nothing factors N, so the command answers at once
    N = (10 ** 30 + 57) * (3 * 10 ** 29 + 7)
    t = time.perf_counter()
    code, out, _ = run_cli(capsys, "dstar", "--poly=%d,1,%d" % (-N, N))
    assert time.perf_counter() - t < 1.0
    assert code == 0
    data = json.loads(out)
    assert data["product_formula_ok"] is True
    assert data["log_table"][0]["place"] == "inf"
    rebuilt = Fraction(1)
    for row in data["log_table"][1:]:
        rebuilt *= Fraction(int(row["place"])) ** Fraction(row["log_abs"]["coeff"])
    assert rebuilt == 1 / abs(Fraction(data["dstar"])) == Fraction(N ** 2, 4 * N ** 2 + 1)
    assert str(N ** 2) in [row["place"] for row in data["log_table"]]


def test_height_json(capsys):
    code, out, _ = run_cli(capsys, "height", "--poly=-2,0,0,0,1", "--weight", "std")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - math.log(2) / 4) < 1e-9
    assert data["lo"] <= data["value"] <= data["hi"]


def test_fekete_single_place(capsys):
    code, out, _ = run_cli(capsys, "fekete", "--poly=-1,0,1",
                           "--weight", "trivial", "--place", "2")
    assert code == 0
    data = json.loads(out)
    assert data["fekete"] == {"coeff": "-2", "log_base": 2}
    assert data["exact"] is True


def test_fekete_all_places(capsys):
    code, out, _ = run_cli(capsys, "fekete", "--poly=-2,0,1",
                           "--weight", "trivial", "--place", "all")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 2
    assert {r["place"] for r in data["rows"]} == {"2", "inf"}
    assert data["dstar_product_formula"] is True


def test_fekete_ex5_at_a_large_prime(capsys):
    # 2^521 - 1 is prime; p^2 overflows a float there
    p = 2 ** 521 - 1
    code, out, _ = run_cli(capsys, "fekete", "--poly=-2,0,1",
                           "--weight", "ex5", "--place", str(p))
    assert code == 0
    data = json.loads(out)
    assert data["fekete"]["log_base"] == p
    assert data["exact"] is True


def test_equidist_preimages_start_at_n_min(capsys, tmp_path):
    # depth 6 of z^2 - 2 is degree 64 even when the run starts there
    out_path = tmp_path / "pre.csv"
    code, out, _ = run_cli(capsys, "equidist", "--family", "preimages:-2",
                           "--n-min", "6", "--n-max", "6", "--out", str(out_path))
    assert code == 0
    assert "1 rows, final degree 64" in out


def test_equidist_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "runs.csv"
    code, out, _ = run_cli(capsys, "equidist", "--family", "unit_roots",
                           "--n-max", "6", "--n-min", "2",
                           "--weight", "std", "--out", str(out_path))
    assert code == 0
    assert out_path.exists()
    assert "5 rows" in out
    assert "small-diagonal" not in out


def test_equidist_flags_degenerate_family(capsys, tmp_path):
    out_path = tmp_path / "flat.json"
    code, out, _ = run_cli(capsys, "equidist", "--family", "preimages:0",
                           "--n-max", "3", "--weight", "trivial",
                           "--out", str(out_path))
    assert code == 0
    assert "fails the small-diagonal hypothesis" in out
    data = json.loads(out_path.read_text())
    assert data["small_diagonal_suspect"] is True


def test_bad_inputs_exit_2(capsys):
    code, _, err = run_cli(capsys, "dstar", "--poly=1,a,1")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "dstar", "--poly=")
    assert code == 2 and "--poly wants comma separated integers" in err
    code, _, err = run_cli(capsys, "height", "--poly=5")
    assert code == 2
    code, _, err = run_cli(capsys, "equidist", "--family", "pow:1",
                           "--n-max", "3", "--weight", "std", "--out", "/tmp/x.csv")
    assert code == 2 and "pow_minus" in err
    for weight in ("std", "trivial", "ex5"):
        code, _, err = run_cli(capsys, "height", "--poly=-2,0,1", "--weight", weight,
                               "--tail-eps", "nan")
        assert code == 2 and "tail_eps must be positive" in err
    # a tail target too small for a float cutoff is past the prime limit
    for poly, tail_eps in (("--poly=-2,1", "1e-310"), ("--poly=-2,0,1", "1e-323")):
        code, _, err = run_cli(capsys, "height", poly, "--weight", "ex5", "--tail-eps", tail_eps)
        assert code == 2 and "above the limit" in err


def test_fekete_at_the_archimedean_place(capsys):
    # the one archimedean pairing is the full report's last row
    poly = "--poly=-2,0,1"
    code, out, _ = run_cli(capsys, "fekete", poly, "--weight", "trivial", "--place", "inf")
    assert code == 0
    data = json.loads(out)
    assert data["place"] == "inf" and data["exact"] is False
    _, out, _ = run_cli(capsys, "fekete", poly, "--weight", "trivial")
    arch = json.loads(out)["rows"][-1]
    assert arch["place"] == "inf" and data["fekete"] == arch["fekete"]


@pytest.mark.parametrize("argv, message", [
    (["fekete", "--poly=-2,0,1", "--place", "x"], "--place wants"),
    (["equidist", "--family", "pow:x", "--n-max", "3", "--out", "x.csv"],
     "family parameter must be an integer"),
    (["equidist", "--family", "bogus", "--n-max", "3", "--out", "x.csv"], "unknown family"),
], ids=["place", "family_param", "family"])
def test_bad_place_and_family_exit_2(capsys, argv, message):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and err.startswith("error:") and message in err


def test_verify_suites_pass(capsys):
    for suite in sorted(_SUITES):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0
        assert "PASS" in out
