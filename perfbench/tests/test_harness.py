"""Percentile helper, op accounting and the unit loop."""

import pytest

from harness import OpLedger, run_units, tail_percentile


def test_tail_percentile_leaves_ten_samples_beyond():
    percentile, value, count = tail_percentile(list(range(100, 0, -1)))
    assert (percentile, value, count) == (90.0, 90.0, 100)


def test_tail_percentile_floors_to_a_tenth():
    percentile, value, count = tail_percentile([float(i) for i in range(1, 34)])
    # 33 samples: the 23rd smallest has exactly 10 above it; 23/33 = 69.69..%.
    assert (percentile, value, count) == (69.6, 23.0, 33)


@pytest.mark.parametrize("size", [0, 5, 10])
def test_tail_percentile_needs_more_than_ten_samples(size):
    assert tail_percentile([1.0] * size) == (None, None, size)


def test_tail_percentile_smallest_supported_sample():
    assert tail_percentile([float(i) for i in range(11)]) == (9.0, 0.0, 11)


def test_failed_pct_counts_failures_against_attempts():
    ledger = OpLedger()
    ledger.attempt(40)
    ledger.attempt()
    ledger.fail(2, "two wrong answers")
    ledger.fail(0, "nothing")
    assert ledger.attempted == 41
    assert ledger.failed == 2
    assert ledger.failed_pct == pytest.approx(100 * 2 / 41)
    assert ledger.ok_pct == pytest.approx(100 - 100 * 2 / 41)
    assert ledger.problems == ["two wrong answers"]


def test_failed_pct_caps_at_every_op_failed():
    ledger = OpLedger()
    ledger.attempt(3)
    ledger.fail(2, "a")
    ledger.fail(5, "b")
    assert ledger.failed == 3
    assert ledger.failed_pct == 100.0


def test_failed_pct_without_attempts_is_total_failure():
    assert OpLedger().failed_pct == 100.0


def test_run_units_stops_before_overrunning():
    calls = []

    def unit(measured):
        calls.append(1)
        measured.op_ms.append(3.0)
        return 6, 3.0

    measured = run_units(10.0, unit)
    # 3 s units: a fourth would end at 12 s > 10 s.
    assert len(calls) == 3
    assert measured.wall_s == 9.0
    assert measured.rate == 2.0
    assert measured.op_ms == [3.0, 3.0, 3.0]


def test_run_units_runs_at_least_two_units():
    measured = run_units(0.0, lambda measured: (1, 5.0))
    assert measured.unit_rates == [0.2, 0.2]

