import numpy as np
import pytest

from fusenav.core import DataError, SonarChannel
from fusenav.feedback import (
    AudioMessage,
    AudioScheduler,
    MOTOR_FOR_CHANNEL,
    intensity_map,
    priority_for,
    route_event,
)
from fusenav.perception import DetectionEvent, DetectionKind


class TestIntensityMap:
    def test_saturation_and_cutoff(self):
        assert intensity_map(0.5) == 1.0
        assert intensity_map(0.1) == 1.0
        assert intensity_map(2.5) == 0.0
        assert intensity_map(7.0) == 0.0

    def test_linear_midpoint(self):
        assert intensity_map(1.5) == pytest.approx(0.5)

    def test_negative_distance_clamps(self):
        assert intensity_map(-3.0) == 1.0

    def test_monotone_non_increasing_100k_pairs(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(-1.0, 5.0, size=(100_000, 2))
        lo, hi = d.min(axis=1), d.max(axis=1)
        vals_lo = np.array([intensity_map(x) for x in lo])
        vals_hi = np.array([intensity_map(x) for x in hi])
        assert np.all(vals_lo >= vals_hi)
        assert np.all((vals_lo >= 0.0) & (vals_lo <= 1.0))


class TestRouteEvent:
    def test_channel_motor_mapping(self):
        cases = [
            (SonarChannel.LEFT, 1),
            (SonarChannel.INCLINED_LEFT, 2),
            (SonarChannel.FRONT, 3),
            (SonarChannel.INCLINED_RIGHT, 4),
            (SonarChannel.RIGHT, 5),
        ]
        for channel, motor in cases:
            ev = DetectionEvent(0.0, channel, DetectionKind.OBSTACLE, 0.5)
            assert route_event(ev).motor == motor

    def test_front_at_min_distance_full_intensity(self):
        ev = DetectionEvent(0.0, SonarChannel.FRONT, DetectionKind.OBSTACLE, 0.5)
        cmd = route_event(ev)
        assert cmd.motor == 3 and cmd.intensity == 1.0

    def test_left_at_max_distance_silent(self):
        ev = DetectionEvent(0.0, SonarChannel.LEFT, DetectionKind.OBSTACLE, 2.5)
        cmd = route_event(ev)
        assert cmd.motor == 1 and cmd.intensity == 0.0

    def test_inclined_dropoff_midrange(self):
        ev = DetectionEvent(0.0, SonarChannel.INCLINED_RIGHT, DetectionKind.DROPOFF, 1.5)
        cmd = route_event(ev)
        assert cmd.motor == 4 and cmd.intensity == pytest.approx(0.5)

    def test_total_over_channel_kind_pairs(self):
        for channel in SonarChannel:
            for kind in DetectionKind:
                ev = DetectionEvent(0.0, channel, kind, 1.0)
                cmd = route_event(ev)
                assert 1 <= cmd.motor <= 5
                assert 0.0 <= cmd.intensity <= 1.0
        assert set(MOTOR_FOR_CHANNEL.values()) == {1, 2, 3, 4, 5}

    def test_priority_classes(self):
        drop = DetectionEvent(0.0, SonarChannel.INCLINED_LEFT, DetectionKind.DROPOFF, 2.0)
        obst = DetectionEvent(0.0, SonarChannel.FRONT, DetectionKind.OBSTACLE, 1.0)
        assert priority_for(drop) < priority_for(obst)


class TestAudioScheduler:
    def test_priority_ordering(self):
        sched = AudioScheduler(min_gap=2.0)
        sched.offer(AudioMessage(3, "status", 0.0))
        sched.offer(AudioMessage(1, "obstacle", 0.0))
        msg = sched.poll(0.0)
        assert msg is not None and msg.priority == 1

    def test_rate_limit_blocks_within_gap(self):
        sched = AudioScheduler(min_gap=2.0)
        sched.offer(AudioMessage(1, "a", 0.0))
        sched.offer(AudioMessage(1, "b", 0.0))
        assert sched.pending == 2
        assert sched.poll(0.0).text == "a"
        assert sched.poll(1.0) is None
        assert sched.poll(1.99) is None
        assert sched.pending == 1
        assert sched.poll(2.0).text == "b"
        assert sched.pending == 0

    def test_burst_capped_by_window_over_gap(self):
        # 100-message burst, 2 s gap, 10 s window: at most 5 emissions
        sched = AudioScheduler(min_gap=2.0, staleness=100.0)
        for k in range(100):
            sched.offer(AudioMessage(1, f"m{k}", 0.0))
        emitted = [t for t in np.arange(0.0, 10.0, 0.05) if sched.poll(float(t))]
        assert len(emitted) <= 5

    def test_never_two_emissions_within_gap_random_bursts(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            gap = float(rng.uniform(0.3, 3.0))
            sched = AudioScheduler(min_gap=gap, staleness=1e9)
            emissions = []
            t = 0.0
            for _ in range(300):
                t += float(rng.uniform(0.0, 0.4))
                if rng.random() < 0.5:
                    sched.offer(AudioMessage(int(rng.integers(0, 4)), "x", t))
                if sched.poll(t) is not None:
                    emissions.append(t)
            gaps = np.diff(emissions)
            assert np.all(gaps >= gap - 1e-12)

    def test_stale_messages_dropped(self):
        sched = AudioScheduler(min_gap=1.0, staleness=5.0)
        sched.offer(AudioMessage(1, "old", 0.0))
        assert sched.pending == 1
        assert sched.poll(6.0) is None  # older than the staleness window
        assert sched.pending == 0

    def test_tie_broken_by_earlier_timestamp(self):
        sched = AudioScheduler(min_gap=1.0)
        sched.offer(AudioMessage(2, "later", 1.0))
        sched.offer(AudioMessage(2, "earlier", 0.5))
        assert sched.poll(1.5).text == "earlier"

    def test_empty_text_rejected(self):
        with pytest.raises(DataError):
            AudioMessage(1, "", 0.0)

    def test_config_validation(self):
        with pytest.raises(DataError):
            AudioScheduler(min_gap=0.0)
