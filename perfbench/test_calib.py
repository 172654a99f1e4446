"""Tests of the calibrated timer, its reference kernel and the span
aggregation. Run with ``python3 -m pytest perfbench``."""

import gc
from fractions import Fraction

import pytest

import bench
import calib
import tracer


def fake_clock(steps):
    """A clock that advances by the given steps, one per reading."""
    now = [0.0]
    it = iter(steps)

    def clock():
        now[0] += next(it)
        return now[0]

    return clock


def kernel_readings(seconds):
    """Clock steps for one probe whose three passes each take ``seconds``."""
    return [1.0, seconds] * 3


def test_kernel_inverts_the_hilbert_matrix():
    inv, acc = calib.kernel()
    assert inv == [
        [16, -120, 240, -140],
        [-120, 1200, -2700, 1680],
        [240, -2700, 6480, -4200],
        [-140, 1680, -4200, 2800],
    ]
    assert all(isinstance(x, Fraction) for row in inv for x in row)
    # two passes over the same pairs: every kept coefficient is doubled
    assert acc and all(c.numerator % 2 == 0 for c in acc.values())
    assert calib.kernel() == (inv, acc)


def test_calibrate_scales_by_nominal_over_mean_kernel():
    assert calib.calibrate(2.0, 0.001, 0.003, nominal=0.002) == pytest.approx(2.0)
    assert calib.calibrate(2.0, 0.004, 0.004, nominal=0.002) == pytest.approx(1.0)


def test_probe_takes_the_median_pass():
    clock = fake_clock([1.0, 0.5, 1.0, 0.1, 1.0, 0.3])
    assert calib.probe(clock) == pytest.approx(0.3)


def test_timed_brackets_the_call_with_kernel_passes():
    n = calib.NOMINAL_S
    # kernel before: 2n per pass; the call: 10 units; kernel after: 4n
    steps = kernel_readings(2 * n) + [1.0, 10.0] + kernel_readings(4 * n)
    s = calib.timed(lambda x: x + 1, 41, clock=fake_clock(steps))
    assert s.result == 42 and s.error is None
    assert s.raw == pytest.approx(10.0)
    assert s.factor == pytest.approx(1 / 3)
    assert s.calibrated == pytest.approx(10.0 / 3)


def test_timed_pauses_the_collector_and_restores_it():
    seen = []
    assert gc.isenabled()
    calib.timed(lambda: seen.append(gc.isenabled()))
    assert seen == [False] and gc.isenabled()


def test_timed_keeps_an_exception_and_still_times_it():
    def boom():
        raise ValueError("capped")

    s = calib.timed(boom)
    assert isinstance(s.error, ValueError) and s.result is None
    assert s.raw >= 0 and s.calibrated >= 0 and gc.isenabled()


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert bench.nearest_rank(values, 50) == 50
    assert bench.nearest_rank(values, 90) == 90
    assert bench.nearest_rank([3.0], 95) == 3.0


def test_self_time_subtracts_child_spans():
    metrics = tracer.empty_layer_metrics()
    spans = [
        ["ring.convert", 0.0, 10.0, -1, True],
        ["linalg.invert", 1.0, 4.0, 0, False],
        ["partitions.partitions_of", 5.0, 6.0, 0, False],
    ]
    tracer.add_spans(metrics, spans, factor=2.0)
    assert metrics["ring.calls"] == 1
    assert metrics["ring.self_ms"] == pytest.approx((10 - 3 - 1) * 2 * 1000)
    assert metrics["ring.cold_calls"] == 1
    assert metrics["ring.cold_ms"] == pytest.approx(10 * 2 * 1000)
    assert metrics["linalg.invert_ms"] == pytest.approx(3 * 2 * 1000)
    assert metrics["partitions.self_ms"] == pytest.approx(2 * 1000)
