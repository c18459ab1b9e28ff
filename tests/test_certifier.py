import random

import pytest

from adelic.certify import Certificate, Refusal, lemma43_certify
from adelic.certify import random_adversarial_instance, random_certifier_instance
from adelic.exact import DomainError


def test_worked_example_certifies():
    # caps 4^-m for m = 1, 2; tail sum past column 2 is 1/48 < 0.025
    rows = [[0.002, -0.001], [0.0, 0.003]]
    tails = [0.25, 0.0625]
    out = lemma43_certify(rows, tails, 1.0 / 48, 0.1)
    assert isinstance(out, Certificate)
    assert out.ok
    assert out.sup_bound == 0.75 * 0.1
    assert out.checked_sup == 0.003
    assert out.to_json()["certified"] is True
    # the output layout: "certified" first, then the fields in declared order
    assert list(out.to_json()) == ["certified", "eps", "columns", "rows", "sup_bound",
                                   "checked_sup"]


def test_huge_eps_certifies():
    # entries of order one are far below every threshold when eps = 10
    rows = [[0.9, -0.8]]
    tails = [1.0, 1.0]
    out = lemma43_certify(rows, tails, 0.5, 10.0)
    assert out.ok


def test_tail_refusal_comes_first():
    rows = [[5.0]]  # would also fail the row checks
    out = lemma43_certify(rows, [6.0], 1.0, 0.1)
    assert isinstance(out, Refusal)
    assert out.reason == "tail_bound"
    assert out.row is None
    assert out.to_json()["certified"] is False
    assert list(out.to_json()) == ["certified", "reason", "row", "detail"]


def test_row_sum_refusal_names_row():
    # row 1 sums too large although each entry is individually small
    eps = 0.4
    rows = [[0.001, 0.001], [0.04, 0.04]]
    tails = [0.05, 0.05]
    out = lemma43_certify(rows, tails, 0.02, eps)
    assert out.reason == "row_sum" and out.row == 1


def test_row_sup_refusal_names_row():
    # row sum cancels but one entry breaks the per-column limit
    eps = 0.4
    rows = [[0.001, 0.001], [0.06, -0.06]]
    tails = [0.07, 0.07]
    out = lemma43_certify(rows, tails, 0.02, eps)
    assert out.reason == "row_sup" and out.row == 1


def test_check_order_row_sum_before_row_sup():
    # a row violating both reports the sum check, mirroring the
    # decomposition order of the underlying argument
    eps = 0.4
    rows = [[0.09, 0.09]]
    tails = [0.1, 0.1]
    out = lemma43_certify(rows, tails, 0.02, eps)
    assert out.reason == "row_sum"


def test_input_contract_violations_raise():
    with pytest.raises(DomainError):
        lemma43_certify([[0.1]], [0.2], 0.01, 0.0)
    with pytest.raises(DomainError):
        lemma43_certify([[0.1]], [0.2], -0.1, 1.0)
    with pytest.raises(DomainError):
        lemma43_certify([], [0.2], 0.01, 1.0)
    with pytest.raises(DomainError):
        lemma43_certify([[0.1]], [], 0.01, 1.0)
    with pytest.raises(DomainError):
        lemma43_certify([[0.1, 0.2]], [0.3], 0.01, 1.0)
    with pytest.raises(DomainError):
        lemma43_certify([[0.1]], [-0.2], 0.01, 1.0)
    # entry above its cap is an input error, not a refusal
    with pytest.raises(DomainError):
        lemma43_certify([[0.3]], [0.2], 0.01, 1.0)
    # a NaN eps or tail bound is an input error too, not a tail refusal
    with pytest.raises(DomainError, match="eps must be positive"):
        lemma43_certify([[0.1]], [0.2], 0.01, float("nan"))
    with pytest.raises(DomainError, match="tail bound must be nonnegative"):
        lemma43_certify([[0.1]], [0.2], float("nan"), 1.0)


def test_certified_bound_is_three_quarters():
    rng = random.Random(6)
    for _ in range(200):
        rows, tails, tail_bound, eps = random_certifier_instance(rng)
        out = lemma43_certify(rows, tails, tail_bound, eps)
        assert out.ok
        brute = max(abs(a) for row in rows for a in row)
        assert brute < out.sup_bound < eps


def test_adversarial_instances_are_refused():
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        rows, tails, tail_bound, eps, reason = random_adversarial_instance(rng)
        out = lemma43_certify(rows, tails, tail_bound, eps)
        assert not out.ok
        assert out.reason == reason
        seen.add(reason)
    assert seen == {"tail_bound", "row_sum", "row_sup"}
