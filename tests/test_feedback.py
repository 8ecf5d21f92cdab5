import numpy as np
import pytest

from fusenav.core import DataError, SonarChannel
from fusenav.feedback import AudioMessage, AudioScheduler, intensity_map, respond
from fusenav.perception import DetectionEvent, DetectionKind, MockRecognizer, RecognitionGate

OBSTACLE, DROPOFF = DetectionKind.OBSTACLE, DetectionKind.DROPOFF


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


def respond_to(events, ticks=(0.0,), min_gap=2.0):
    """respond() over hand-made ticks and events with a real gate and
    scheduler; returns the rows, the gate and the scheduler."""
    gate = RecognitionGate(MockRecognizer(seed=3))
    scheduler = AudioScheduler(min_gap=min_gap)
    return respond(ticks, events, gate, scheduler), gate, scheduler


def top_label(event):
    name, conf = MockRecognizer(seed=3).recognize(event)[0]
    return f"label {name} {conf}"


class TestRouteEvent:
    """respond()'s tactile row and spoken warning for each event."""

    def test_channel_motor_mapping(self):
        cases = [
            (SonarChannel.LEFT, 1),
            (SonarChannel.INCLINED_LEFT, 2),
            (SonarChannel.FRONT, 3),
            (SonarChannel.INCLINED_RIGHT, 4),
            (SonarChannel.RIGHT, 5),
        ]
        for channel, motor in cases:
            rows, _, _ = respond_to([DetectionEvent(0.0, channel, OBSTACLE, 0.5)])
            assert rows == [
                (0.0, "tactile", motor, 1.0),
                (0.0, "audio", 1, f"obstacle {channel.value}"),
            ]

    def test_front_at_min_distance_full_intensity(self):
        rows, _, _ = respond_to([DetectionEvent(0.0, SonarChannel.FRONT, OBSTACLE, 0.5)])
        assert rows[0] == (0.0, "tactile", 3, 1.0)

    def test_left_at_max_distance_silent(self):
        rows, _, _ = respond_to([DetectionEvent(0.0, SonarChannel.LEFT, OBSTACLE, 2.5)])
        assert rows[0] == (0.0, "tactile", 1, 0.0)

    def test_inclined_dropoff_midrange(self):
        event = DetectionEvent(0.0, SonarChannel.INCLINED_RIGHT, DROPOFF, 1.5)
        rows, gate, _ = respond_to([event])
        assert rows[0] == (0.0, "tactile", 4, pytest.approx(0.5))
        assert rows[1] == (0.0, "audio", 0, "dropoff inclined_right")
        assert gate.processed_count == 0  # drop-offs are not recognized

    def test_total_over_channel_kind_pairs(self):
        motors = {}
        for channel in SonarChannel:
            for kind in DetectionKind:
                rows, _, _ = respond_to([DetectionEvent(0.0, channel, kind, 1.0)])
                (_, _, motor, intensity), (_, _, priority, text) = rows
                assert 0.0 <= intensity <= 1.0
                assert text == f"{kind.value} {channel.value}"
                assert priority == (0 if kind is DROPOFF else 1)
                motors.setdefault(channel, set()).add(motor)
        # one motor per channel, all five used
        assert sorted(m for (m,) in motors.values()) == [1, 2, 3, 4, 5]

    def test_priority_classes(self):
        # a drop-off and an obstacle in one tick: tactile rows in event
        # order, and the drop-off is spoken first
        obstacle = DetectionEvent(0.0, SonarChannel.LEFT, OBSTACLE, 0.5)
        dropoff = DetectionEvent(0.0, SonarChannel.INCLINED_RIGHT, DROPOFF, 1.5)
        rows, gate, scheduler = respond_to([obstacle, dropoff], ticks=[0.0, 2.0])
        assert rows == [
            (0.0, "tactile", 1, 1.0),
            (0.0, "tactile", 4, 0.5),
            (0.0, "audio", 0, "dropoff inclined_right"),
            (2.0, "audio", 1, "obstacle left"),
        ]
        # only the obstacle went to the recognizer; its label waits
        assert gate.processed_count == 1 and scheduler.pending == 1


class TestRespond:
    """respond()'s order within and across ticks."""

    def test_recognition_finished_between_ticks_is_offered_at_next_tick(self):
        # the frame takes 0.604 s: done between the ticks at 0.5 and 1.0
        event = DetectionEvent(0.0, SonarChannel.FRONT, OBSTACLE, 1.0)
        rows, gate, scheduler = respond_to([event], ticks=[0.0, 0.5, 1.0], min_gap=0.1)
        assert rows == [
            (0.0, "tactile", 3, 0.75),
            (0.0, "audio", 1, "obstacle front"),
            (1.0, "audio", 2, top_label(event)),
        ]
        assert gate.processed_count == 1 and scheduler.pending == 0

    def test_event_between_ticks_is_handled_at_the_next_tick(self):
        event = DetectionEvent(0.05, SonarChannel.FRONT, OBSTACLE, 3.0)
        rows, _, _ = respond_to([event], ticks=[0.0, 0.1])
        assert rows == [(0.05, "tactile", 3, 0.0), (0.1, "audio", 1, "obstacle front")]

    def test_labels_flushed_after_the_last_tick_stay_pending(self):
        # the second obstacle waits in the gate's slot behind the first
        first = DetectionEvent(0.0, SonarChannel.FRONT, OBSTACLE, 1.0)
        second = DetectionEvent(0.1, SonarChannel.LEFT, OBSTACLE, 1.0)
        rows, gate, scheduler = respond_to([first, second], ticks=[0.0, 0.1], min_gap=0.05)
        assert [row[1:3] for row in rows] == [
            ("tactile", 3), ("audio", 1), ("tactile", 1), ("audio", 1)
        ]
        assert gate.processed_count == 2 and scheduler.pending == 2
        assert scheduler.poll(1.5).text == top_label(first)
        assert scheduler.poll(1.6).text == top_label(second)


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

    def test_config_validation(self):
        with pytest.raises(DataError):
            AudioScheduler(min_gap=0.0)
