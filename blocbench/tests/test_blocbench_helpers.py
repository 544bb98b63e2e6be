"""Tests of the benchmark's own helpers (run: python3 -m pytest blocbench/tests).

They need numpy only: no workload runs and nothing from ``repro``.
"""

import threading

import numpy as np
import pytest

import common
import openloop
import reference


class TestTailRule:
    def test_median_only_below_40_samples(self):
        assert common.tail_percentile(1) == 50.0
        assert common.tail_percentile(39) == 50.0
        assert common.tail_percentile(40) == 75.0

    @pytest.mark.parametrize(
        "count, expected",
        [(99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
    )
    def test_highest_percentile_with_ten_beyond(self, count, expected):
        assert common.tail_percentile(count) == expected

    def test_tail_of_few_samples_is_the_median(self):
        values = list(range(1, 40))
        assert common.tail(values) == common.median(values) == 20.0

    def test_percentile_interpolates(self):
        assert common.percentile([0.0, 10.0], 25.0) == 2.5
        assert common.percentile([3.0], 99.0) == 3.0


class FakeClock:
    """Simulated time: sleeping and serving advance it, nothing waits."""

    def __init__(self):
        self.now = 100.0
        self.lock = threading.Lock()

    def __call__(self):
        with self.lock:
            return self.now

    def sleep(self, seconds):
        with self.lock:
            self.now += seconds

    def server(self, service_s):
        def send(payload):
            self.sleep(service_s)
            return 200, {"payload": payload}

        return send


class TestOpenLoop:
    def test_latency_counts_from_due_time_when_the_generator_is_late(self):
        clock = FakeClock()
        # One connection, 20 ms per request, offered every 10 ms: each
        # request waits 10 ms longer than the one before for the connection.
        samples = openloop.run_phase(
            [clock.server(0.020)], ["a", "b"], rate=100.0, count=5, clock=clock, sleep=clock.sleep
        )
        assert [s.payload_index for s in samples] == [0, 1, 0, 1, 0]
        for i, s in enumerate(samples):
            assert s.lateness == pytest.approx(0.010 * i, abs=1e-9)
            assert s.latency == pytest.approx(0.020 + 0.010 * i, abs=1e-9)
            assert s.done - s.sent == pytest.approx(0.020, abs=1e-9)

    def test_under_capacity_latency_is_the_service_time(self):
        clock = FakeClock()
        samples = openloop.run_phase(
            [clock.server(0.020)], ["a"], rate=10.0, count=4, clock=clock, sleep=clock.sleep
        )
        summary = openloop.phase_summary(samples)
        assert summary["p50_ms"] == pytest.approx(20.0)
        assert summary["lateness_max_ms"] == pytest.approx(0.0, abs=1e-6)

    def test_max_rate_interpolates_to_the_limit(self):
        rate, bounded = openloop.max_rate([(10.0, 20.0), (20.0, 60.0), (40.0, 140.0)], 100.0)
        assert bounded and rate == pytest.approx(30.0)
        rate, bounded = openloop.max_rate([(10.0, 20.0), (20.0, 60.0)], 100.0)
        assert not bounded and rate == 20.0
        rate, _ = openloop.max_rate([(10.0, 200.0)], 100.0)
        assert rate == pytest.approx(5.0)


class TestEq17Reference:
    K = 2.0 * np.pi * 2.44e9 / reference.SPEED_OF_LIGHT

    def _channels(self, tag_xy, master_xy, slave_xy, offsets):
        """One-band, one-antenna channels with random oscillator offsets."""
        k = self.K
        tag_phase, master_phase, slave_phase = offsets
        d = lambda a, b: float(np.hypot(*(np.asarray(a) - np.asarray(b))))  # noqa: E731
        tag = np.zeros((2, 1, 1), dtype=complex)
        master = np.zeros((2, 1, 1), dtype=complex)
        tag[0, 0, 0] = 0.7 * np.exp(-1j * k * d(tag_xy, master_xy) + 1j * (tag_phase - master_phase))
        tag[1, 0, 0] = 0.4 * np.exp(-1j * k * d(tag_xy, slave_xy) + 1j * (tag_phase - slave_phase))
        master[1, 0, 0] = 0.9 * np.exp(-1j * k * d(master_xy, slave_xy) + 1j * (master_phase - slave_phase))
        return tag, master

    def test_single_antenna_single_band_closed_form(self):
        master_xy, slave_xy, tag_xy = (0.0, -2.0), (3.0, 0.5), (0.4, 0.3)
        tag, master = self._channels(tag_xy, master_xy, slave_xy, (1.1, -2.3, 0.4))
        alpha = reference.eq10_alpha(tag, master, master_index=0)
        baseline = float(np.hypot(*(np.subtract(slave_xy, master_xy))))
        points = np.array([tag_xy, (1.0, 1.0), (-2.0, 2.5), (2.0, -1.0)])
        value = reference.eq17_complex(
            alpha[1], np.array([2.44e9]), np.array([slave_xy]), np.array(master_xy), baseline, points
        )

        def r(x):
            x = np.atleast_2d(x)
            return np.hypot(*(x - slave_xy).T) - np.hypot(*(x - master_xy).T)

        expected = 0.7 * 0.4 * 0.9 * np.exp(1j * self.K * (r(points) - r(tag_xy)))
        np.testing.assert_allclose(value, expected, rtol=1e-9, atol=1e-12)
        # The phase is zero exactly at the tag: Eq. 17 undoes the path there.
        assert abs(np.angle(value[0])) < 1e-9

    def test_offsets_cancel(self):
        master_xy, slave_xy, tag_xy = (0.0, -2.0), (3.0, 0.5), (0.4, 0.3)
        a = reference.eq10_alpha(*self._channels(tag_xy, master_xy, slave_xy, (0.0, 0.0, 0.0)), 0)
        b = reference.eq10_alpha(*self._channels(tag_xy, master_xy, slave_xy, (2.0, -1.0, 0.7)), 0)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_near_strong_peak(self):
        grid = reference.ReferenceGrid(0.0, 0.0, 5, 5, 0.1)
        values = np.zeros((5, 5))
        values[2, 3] = 1.0  # node (x=0.3, y=0.2)
        values[0, 0] = 0.2  # a weak maximum, below 35%
        assert reference.near_strong_peak((0.34, 0.23), values, grid, 0.35)[0]
        assert not reference.near_strong_peak((0.0, 0.0), values, grid, 0.35)[0]

    def test_negentropy_bounds(self):
        assert reference.negentropy(np.ones(9)) == pytest.approx(0.0, abs=1e-12)
        delta = np.zeros(9)
        delta[4] = 1.0
        assert reference.negentropy(delta) == pytest.approx(np.log(9))
