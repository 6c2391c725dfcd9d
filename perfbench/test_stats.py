"""Tests for the benchmark's own helpers.

Run: ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from perfbench.stats import (
    Rung,
    percentile,
    rung_passes,
    self_times,
    sustained_rate,
    tail_percentile,
    w1_histogram,
)
from perfbench.speed import REFERENCE_KERNEL_S, HostSpeed
from perfbench.trace import Tracer


# -- tail percentile: at least ten samples beyond ---------------------------
def test_tail_needs_eleven_samples():
    assert tail_percentile(range(10)) is None
    assert tail_percentile(range(11)) == (100.0 / 11, 0.0)


def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    q, value = tail_percentile(values)
    assert q == 90.0 and value == 90.0
    assert sum(1 for v in values if v > value) == 10


def test_tail_is_order_independent_and_grows_with_sample():
    rng = np.random.default_rng(0)
    values = rng.exponential(size=400).tolist()
    q, value = tail_percentile(values)
    assert q == pytest.approx(97.5)
    assert tail_percentile(sorted(values, reverse=True)) == (q, value)
    assert percentile(values, 50) < value


def test_percentile_nearest_rank():
    assert percentile([5, 1, 3, 2, 4], 50) == 3
    assert percentile([5, 1, 3, 2, 4], 100) == 5
    assert percentile([5, 1, 3, 2, 4], 0) == 1
    assert np.isnan(percentile([], 50))


# -- sustained-rung rule ----------------------------------------------------
def _rung(rate, *, failed=0, p99=5.0, backlog=0, achieved=None):
    return Rung(rate, attempted=100, failed=failed, p99_ms=p99, backlog=backlog,
                achieved_per_s=rate * 0.99 if achieved is None else achieved)


def test_refused_uploads_fail_the_rung():
    assert rung_passes(_rung(100), 50.0, 2)
    assert not rung_passes(_rung(100, failed=1), 50.0, 2)


def test_growing_backlog_fails_the_rung():
    assert rung_passes(_rung(100, backlog=4), 50.0, 2)
    assert not rung_passes(_rung(100, backlog=5), 50.0, 2)


def test_p99_limit_and_nan_fail_the_rung():
    assert not rung_passes(_rung(100, p99=50.1), 50.0, 2)
    assert not rung_passes(_rung(100, p99=float("nan")), 50.0, 2)


def test_sustained_is_highest_passing_rung_achieved_rate():
    rungs = [_rung(100), _rung(200, failed=3), _rung(400), _rung(1000, backlog=300)]
    assert sustained_rate(rungs, 50.0, 2) == pytest.approx(400 * 0.99)
    assert sustained_rate([_rung(100, failed=1)], 50.0, 2) == 0.0


def test_sustained_counts_a_rate_when_any_attempt_passes():
    attempts = [_rung(400, achieved=390.0), _rung(400, p99=80.0, achieved=380.0),
                _rung(400, achieved=396.0), _rung(1000, backlog=300)]
    assert sustained_rate(attempts, 50.0, 2) == pytest.approx(393.0)
    assert sustained_rate([_rung(400, failed=1), _rung(400, p99=60.0)], 50.0, 2) == 0.0


# -- W1 -------------------------------------------------------------------------
def test_w1_of_a_shift_is_the_shift():
    p = np.zeros(10)
    q = np.zeros(10)
    p[2], q[5] = 1.0, 1.0
    assert w1_histogram(p, q, width=0.1) == pytest.approx(0.3)


def test_w1_normalises_and_is_symmetric():
    p = np.array([2.0, 2.0, 0.0, 0.0])
    q = np.array([0.0, 0.5, 0.5, 0.0])
    assert w1_histogram(p, q, 0.25) == pytest.approx(w1_histogram(q, p, 0.25))
    assert w1_histogram(p, q, 0.25) == pytest.approx(0.25)
    assert w1_histogram(p, p / 2, 1.0) == 0.0
    with pytest.raises(ValueError):
        w1_histogram(p, q[:3], 1.0)


# -- span self time ---------------------------------------------------------
def test_self_time_subtracts_children():
    spans = [(1, None, 0.0, 10.0), (2, 1, 1.0, 3.0), (3, 1, 5.0, 6.0), (4, 2, 1.5, 2.0)]
    got = self_times(spans)
    assert got == {1: pytest.approx(7.0), 2: pytest.approx(1.5), 3: pytest.approx(1.0),
                   4: pytest.approx(0.5)}
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [(1, None, 0.0, 10.0), (2, 1, 2.0, 6.0), (3, 1, 4.0, 8.0), (4, 1, 9.0, 12.0)]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_and_inherits_request_id():
    tracer = Tracer()

    def inner():
        return tracer.call("inner", lambda: 7, (), {})

    assert tracer.call("outer", inner, (), {}, rid="req-1") == 7
    other = threading.Thread(target=lambda: tracer.call("elsewhere", lambda: None, (), {}))
    other.start()
    other.join(timeout=5)
    assert not other.is_alive()
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["inner"][6] == "req-1"
    assert by_name["elsewhere"][4] is None and by_name["elsewhere"][6] is None


def test_tracer_records_errors_and_reraises():
    tracer = Tracer()
    with pytest.raises(KeyError):
        tracer.call("boom", lambda: {}["x"], (), {})
    assert tracer.spans[0][7] == {"error": "KeyError"}


def test_host_speed_scales_by_the_probes_around_a_sample():
    speed = HostSpeed()
    speed.times = [10.0, 20.0, 30.0]
    speed.kernel_s = [REFERENCE_KERNEL_S, 3 * REFERENCE_KERNEL_S, 2 * REFERENCE_KERNEL_S]
    # Between the first two probes the host ran at half the reference
    # speed on average, so a 1 s duration reads as 0.5 s.
    assert speed.duration(1.0, 15.0) == pytest.approx(0.5)
    assert speed.duration(1.0, 25.0) == pytest.approx(0.4)
    # Before the first probe and after the last, the nearest one alone.
    assert speed.duration(1.0, 5.0) == pytest.approx(1.0)
    assert speed.duration(1.0, 35.0) == pytest.approx(0.5)


def test_host_speed_probe_records_a_positive_time():
    speed = HostSpeed()
    speed.probe()
    assert len(speed.kernel_s) == len(speed.times) == 1
    assert speed.kernel_s[0] > 0
