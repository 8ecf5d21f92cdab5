import math
from dataclasses import replace
from itertools import groupby
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from fusenav import cli, sim, sonar_ekf
from fusenav.core import (
    CHANNELS, DataError, INCLINED_CHANNELS, SonarChannel, SonarGeometry, SonarLog,
)
from fusenav.perception import (
    DROPOFF_MARGIN,
    EVENT_ORDER,
    LATENCY_S,
    REARM_FRACTION,
    THRESHOLDS,
    DetectionEvent,
    DetectionKind,
    MockRecognizer,
    ObstacleDetector,
    RecognitionGate,
    RecognitionResult,
)

L, R, F = SonarChannel.LEFT, SonarChannel.RIGHT, SonarChannel.FRONT
IL, IR = SonarChannel.INCLINED_LEFT, SonarChannel.INCLINED_RIGHT
WALK110 = Path(cli.__file__).parent / "scenarios" / "walk110.cfg"
CITY = Path(__file__).resolve().parents[1] / "perfbench" / "city.cfg"


def obstacle_event(t=0.0, channel=F, range_m=1.5):
    return DetectionEvent(t, channel, DetectionKind.OBSTACLE, range_m)


def stream(*ticks):
    """``(log, fused_t, fused)`` of ``(t, {channel: range})`` ticks.

    Each channel given becomes one row, with an echo if its range is
    finite; a front range is also the tick's fused value.  An omitted
    channel has no row.
    """
    rows = [(t, c, r, math.isfinite(r)) for t, tick in ticks for c, r in tick.items()]
    front = [(t, r) for t, c, r, _ in rows if c is F]
    fused_t, fused = np.array(front, dtype=float).reshape(-1, 2).T
    return sonar_log(*rows), fused_t, fused


def process(*ticks, geometry=SonarGeometry()):
    """Events of one detector run over ``(t, {channel: range})`` ticks."""
    return ObstacleDetector(geometry).process(*stream(*ticks))


def per_tick(*ticks):
    """Events of one detector run over ``ticks``, one list per tick."""
    events = process(*ticks)
    return [[e for e in events if e.t == t] for t, _ in ticks]


def sonar_log(*rows):
    """SonarLog from ``(t, channel, range, valid)`` rows."""
    t, channel, range_m, valid = zip(*rows) if rows else ((),) * 4
    return SonarLog(
        t=np.array(t, dtype=float),
        channel=np.array([CHANNELS.index(c) for c in channel]),
        range_m=np.array(range_m, dtype=float),
        valid=np.array(valid, dtype=bool),
    )


class TestDetector:
    def test_front_threshold_rule(self):
        events = process((0.0, {F: 1.5}))
        assert len(events) == 1
        assert events[0].channel is F
        assert events[0].kind is DetectionKind.OBSTACLE
        assert events[0].range_m == 1.5

    def test_above_threshold_silent(self):
        assert process((0.0, {F: 2.5, L: 1.6, R: 1.6})) == []

    def test_inclined_dead_band(self):
        ground = math.sqrt(2.0)
        assert process((0.0, {IL: ground, IR: ground})) == []

    def test_dropoff_rule(self):
        r = SonarGeometry().expected_ground_range + 2 * DROPOFF_MARGIN
        events = process((0.0, {IR: r}))
        assert [e.kind for e in events] == [DetectionKind.DROPOFF]
        assert events[0].channel is IR

    def test_inclined_short_echo_is_obstacle(self):
        r = SonarGeometry().expected_ground_range - 2 * DROPOFF_MARGIN
        events = process((0.0, {IL: r}))
        assert [e.kind for e in events] == [DetectionKind.OBSTACLE]

    def test_static_obstacle_fires_once(self):
        total = process(*[(0.01 * k, {F: 1.2}) for k in range(200)])
        assert len(total) == 1

    def test_hysteresis_rearm_at_ten_percent(self):
        e0, e1, e2, e3, e4 = per_tick(
            (0.0, {F: 1.9}), (1.0, {F: 2.19}), (2.0, {F: 1.9}), (3.0, {F: 2.21}), (4.0, {F: 1.9})
        )
        assert len(e0) == 1
        # clears to just below the re-arm level: still latched
        assert e1 == []
        assert e2 == []
        # clears beyond threshold * 1.1: re-arms, next crossing fires
        assert e3 == []
        assert len(e4) == 1

    def test_no_echo_rearms_horizontal(self):
        e0, e1, e2 = per_tick((0.0, {F: 1.2}), (1.0, {F: math.inf}), (2.0, {F: 1.0}))
        assert len(e0) == 1
        assert e1 == []  # obstacle left the beam
        assert len(e2) == 1  # a new obstacle fires

    def test_invalid_ping_never_triggers_dropoff(self):
        assert process((0.0, {IL: math.inf})) == []

    def test_detect_stream_wrapper(self):
        events = process((0.0, {F: 3.0}), (0.1, {F: 1.5}), (0.2, {F: 1.4}))
        assert len(events) == 1 and events[0].t == 0.1

    def test_every_call_starts_armed(self):
        det = ObstacleDetector(SonarGeometry())
        log, fused_t, fused = stream((0.0, {F: 1.2}), (0.1, {F: 1.2}))
        assert len(det.process(log, fused_t, fused)) == 1
        assert len(det.process(log, fused_t, fused)) == 1

    def test_events_in_tick_then_channel_order(self):
        events = process((0.0, {F: 1.0, IR: 3.0, L: 1.0}), (0.1, {R: 1.0, IL: 0.5}))
        assert [(e.t, e.channel) for e in events] == [(0.0, L), (0.0, IR), (0.0, F), (0.1, R), (0.1, IL)]

    def test_config_validation(self):
        def looking_down(ground, max_range=4.0):
            """A geometry whose ground echo is ``ground`` exactly: the belt height."""
            return SonarGeometry(
                belt_height=ground, inclined_depression_deg=90.0, max_range=max_range
            )

        with pytest.raises(DataError, match="key 'max_range': threshold 2.0 for front outside"):
            ObstacleDetector(SonarGeometry(max_range=1.9))
        ObstacleDetector(looking_down(1.7, max_range=2.0))  # every trigger reachable
        # an inclined trigger no reading can reach: drop-off beyond
        # max_range, obstacle at or below 0
        keys = "keys 'belt_height', 'inclined_depression_deg', 'max_range': inclined trigger"
        for ground in (3.8, 0.3, 0.2, math.nan):
            with pytest.raises(DataError, match=keys):
                ObstacleDetector(looking_down(ground))
        assert looking_down(3.7).expected_ground_range + DROPOFF_MARGIN == 4.0
        ObstacleDetector(looking_down(3.7))  # 4.0 m: reachable


class ReferenceDetector:
    """The per-tick detector that ``ObstacleDetector`` replaced: one mapping
    of channel -> range per tick, latches kept across calls in a dict."""

    def __init__(self, geometry: SonarGeometry):
        self.ground = geometry.expected_ground_range
        self._armed = {}

    def _is_armed(self, key) -> bool:
        return self._armed.get(key, True)

    def process(self, t, ranges):
        events = []
        for channel, r in ranges.items():
            no_echo = r is None or not math.isfinite(r)
            if channel in INCLINED_CHANNELS:
                if no_echo:
                    continue
                hi = self.ground + DROPOFF_MARGIN
                lo = self.ground - DROPOFF_MARGIN
                key_hi = (channel, DetectionKind.DROPOFF)
                key_lo = (channel, DetectionKind.OBSTACLE)
                if r >= hi:
                    if self._is_armed(key_hi):
                        events.append(DetectionEvent(t, channel, DetectionKind.DROPOFF, r))
                        self._armed[key_hi] = False
                elif r <= hi * (1.0 - REARM_FRACTION):
                    self._armed[key_hi] = True
                if r <= lo:
                    if self._is_armed(key_lo):
                        events.append(DetectionEvent(t, channel, DetectionKind.OBSTACLE, r))
                        self._armed[key_lo] = False
                elif r >= lo * (1.0 + REARM_FRACTION):
                    self._armed[key_lo] = True
            else:
                thr = THRESHOLDS[channel]
                key = (channel, DetectionKind.OBSTACLE)
                effective = math.inf if no_echo else r
                if effective <= thr:
                    if self._is_armed(key):
                        events.append(DetectionEvent(t, channel, DetectionKind.OBSTACLE, r))
                        self._armed[key] = False
                elif effective >= thr * (1.0 + REARM_FRACTION):
                    self._armed[key] = True
        return events


def reference_ticks(log, fused_t, fused):
    """The per-tick ``(t, {channel: range})`` stream of the (ticks x channels)
    grid that ``ObstacleDetector.process`` replaced: every tick of the log,
    its front reading ``inf`` if it has no front echo or no fused value."""
    tick_t, starts = np.unique(log.t, return_index=True)
    front = CHANNELS.index(F)
    echo = np.logical_or.reduceat((log.channel == front) & log.valid, starts)
    pos = np.searchsorted(fused_t, tick_t)
    echo &= np.r_[fused_t, np.nan][pos] == tick_t
    front_range = np.where(echo, np.r_[fused, np.inf][pos], np.inf).tolist()
    ranges = np.where(log.valid, log.range_m, np.inf).tolist()
    rows = zip(log.t.tolist(), log.channel.tolist(), ranges)
    for (t, group), r_front in zip(groupby(rows, key=lambda row: row[0]), front_range):
        tick = {CHANNELS[c]: r for _, c, r in group if c != front}
        tick[F] = r_front
        yield t, tick


def reference_events(ticks, geometry):
    detector = ReferenceDetector(geometry)
    return [e for t, tick in ticks for e in detector.process(t, tick)]


def as_tuples(events):
    return [(e.t, e.channel, e.kind, e.range_m) for e in events]


class TestOracle:
    @pytest.mark.parametrize("mode", ["raw", "dmp"])
    @pytest.mark.parametrize("path", [WALK110, CITY], ids=["walk110", "city"])
    def test_simulated_walks(self, path, mode):
        base = cli.load_scenario(path)
        if mode == "dmp":
            base = replace(base, noise=base.noise.dmp_like())
        for seed in range(4):
            scenario = replace(base, seed=seed)
            log = sim.synth_sonar(sim.gen_walk(scenario), scenario)
            fused = sonar_ekf.fuse_front_pair(log)
            geometry = scenario.geometry
            expected = reference_events(reference_ticks(log, fused.t, fused.fused), geometry)
            got = ObstacleDetector(geometry).process(log, fused.t, fused.fused)
            assert expected
            assert as_tuples(got) == as_tuples(expected)

    @pytest.mark.parametrize("geometry", [SonarGeometry()], ids=["default"])
    def test_random_streams_on_every_level(self, geometry):
        hi = geometry.expected_ground_range + DROPOFF_MARGIN
        lo = geometry.expected_ground_range - DROPOFF_MARGIN
        inclined = [hi, hi * (1.0 - REARM_FRACTION), lo, lo * (1.0 + REARM_FRACTION)]
        levels = {IL: inclined, IR: inclined}
        for channel, thr in THRESHOLDS.items():
            levels[channel] = [thr, thr * (1.0 + REARM_FRACTION)]
        pools = {
            channel: np.array(
                [v for x in xs for v in (x, np.nextafter(x, 0.0), np.nextafter(x, np.inf))]
                + [math.inf, math.nan]
            )
            for channel, xs in levels.items()
        }
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            ticks = []
            for k in range(n):
                tick = {}
                for channel in EVENT_ORDER:
                    r = float(rng.choice(pools[channel]))
                    if rng.random() < 0.1:
                        r = float(rng.uniform(0.1, 4.0))
                    if not math.isnan(r):
                        tick[channel] = r
                ticks.append((0.01 * k, tick))
            expected = reference_events(ticks, geometry)
            assert as_tuples(process(*ticks, geometry=geometry)) == as_tuples(expected)


class TestChannelRows:
    def test_missing_side_row_leaves_latch_untouched(self):
        log = sonar_log((0.0, L, 1.0, True), (0.1, F, 3.0, False), (0.2, L, 1.0, True))
        no_fused = np.array([])
        events = ObstacleDetector(SonarGeometry()).process(log, no_fused, no_fused)
        assert [e.t for e in events] == [0.0]
        # a no-echo row in its place re-arms
        log = sonar_log((0.0, L, 1.0, True), (0.1, L, 4.0, False), (0.2, L, 1.0, True))
        events = ObstacleDetector(SonarGeometry()).process(log, no_fused, no_fused)
        assert [e.t for e in events] == [0.0, 0.2]

    def test_single_front_sensor_no_echo_reads_inf_and_rearms(self):
        log = sonar_log(
            (0.0, L, 4.0, False), (0.0, F, 1.0, True),
            (0.1, L, 4.0, False), (0.1, F, 4.0, False),
            (0.2, L, 4.0, False), (0.2, F, 1.0, True),
        )
        # the fused 1.5 at 0.1 would keep the latch closed: the tick reads inf
        fused_t, fused = np.array([0.0, 0.1, 0.2]), np.array([1.0, 1.5, 1.2])
        events = ObstacleDetector(SonarGeometry()).process(log, fused_t, fused)
        assert as_tuples(events) == [
            (0.0, F, DetectionKind.OBSTACLE, 1.0),
            (0.2, F, DetectionKind.OBSTACLE, 1.2),
        ]

    def test_front_reads_fused_value_not_echo(self):
        log = sonar_log((0.0, F, 1.0, True), (0.0, F, 1.1, True), (0.1, F, 1.0, True))
        events = ObstacleDetector(SonarGeometry()).process(log, np.array([0.1]), np.array([1.05]))
        assert as_tuples(events) == [(0.1, F, DetectionKind.OBSTACLE, 1.05)]

    def test_front_echo_without_fused_value_neither_triggers_nor_rearms(self):
        log = sonar_log(*[(t, F, 1.0, True) for t in (0.0, 0.1, 0.2)])
        fused_t, fused = np.array([0.0, 0.2]), np.array([1.0, 1.2])
        # the grid read the 0.1 tick as inf, which re-armed: two events
        events = ObstacleDetector(SonarGeometry()).process(log, fused_t, fused)
        assert as_tuples(events) == [(0.0, F, DetectionKind.OBSTACLE, 1.0)]


class TestRecognitionGate:
    def test_single_event_single_result(self):
        gate = RecognitionGate(MockRecognizer(seed=1))
        assert gate.submit(obstacle_event(t=0.0)) == []
        results = gate.flush()
        assert len(results) == 1
        assert gate.processed_count == 1
        assert results[0].completed_t == pytest.approx(0.604, abs=1e-12)
        assert not results[0].failed
        assert all(0.0 <= c <= 1.0 for _, c in results[0].labels)

    def test_burst_coalesces_to_two(self):
        gate = RecognitionGate(MockRecognizer(seed=1))
        gate.submit(obstacle_event(t=0.0))
        for k in range(10):
            gate.submit(obstacle_event(t=0.01 * (k + 1), range_m=1.0 + 0.01 * k))
        results = gate.flush()
        assert gate.processed_count == 2
        # the queued slot kept only the newest burst event
        assert results[1].event.range_m == pytest.approx(1.09)

    def test_dropoff_never_dispatched(self):
        gate = RecognitionGate(MockRecognizer(seed=1))
        for k in range(10):
            gate.submit(DetectionEvent(0.1 * k, IL, DetectionKind.DROPOFF, 2.0))
        assert gate.flush() == []
        assert gate.processed_count == 0

    def test_spaced_events_all_processed(self):
        gate = RecognitionGate(MockRecognizer(seed=2))
        n = 8
        completed = []
        for k in range(n):
            completed += gate.submit(obstacle_event(t=1.0 * k))  # 1 s >> 604 ms
        completed += gate.flush()
        assert len(completed) == n
        assert gate.processed_count == n

    def test_processed_never_exceeds_events(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            gate = RecognitionGate(MockRecognizer(seed=trial))
            t = 0.0
            n_events = int(rng.integers(1, 40))
            for _ in range(n_events):
                t += float(rng.uniform(0.0, 1.5))
                gate.submit(obstacle_event(t=t))
            gate.flush()
            assert gate.processed_count <= n_events

    def test_results_ordered_and_after_submission(self):
        gate = RecognitionGate(MockRecognizer(seed=4))
        times = [0.0, 0.1, 0.9, 2.0, 2.05, 4.0]
        results = []
        for t in times:
            results += gate.submit(obstacle_event(t=t))
        results += gate.flush()
        completed = [r.completed_t for r in results]
        assert completed == sorted(completed)
        for r in results:
            assert r.completed_t >= r.event.t

    def test_recognizer_failure_flagged(self):
        class FailingRecognizer:
            def recognize(self, event):
                raise RuntimeError("recognizer failure")

        gate = RecognitionGate(FailingRecognizer())
        gate.submit(obstacle_event(t=0.0))
        (result,) = gate.flush()
        assert result.failed
        assert result.labels == ()

    def test_mock_recognizer_deterministic(self):
        a = MockRecognizer(seed=9).recognize(obstacle_event(t=3.25))
        b = MockRecognizer(seed=9).recognize(obstacle_event(t=3.25))
        assert a == b


class ReferenceGate:
    """The gate before it kept its in-flight frame as one value: busy-until
    time and in-flight event in two fields, and a completion loop in both
    ``_advance`` and ``flush``."""

    def __init__(self, recognizer):
        self.recognizer = recognizer
        self._busy_until: Optional[float] = None
        self._in_flight: Optional[DetectionEvent] = None
        self._pending: Optional[DetectionEvent] = None
        self.processed_count = 0

    def _start(self, event: DetectionEvent, start_t: float) -> None:
        self._in_flight = event
        self._busy_until = start_t + LATENCY_S

    def _complete(self) -> RecognitionResult:
        event = self._in_flight
        done_t = self._busy_until
        self._in_flight = None
        self._busy_until = None
        self.processed_count += 1
        try:
            labels = tuple(self.recognizer.recognize(event))
            failed = False
        except Exception:
            labels = ()
            failed = True
        result = RecognitionResult(event=event, labels=labels, completed_t=done_t, failed=failed)
        if self._pending is not None:
            nxt, self._pending = self._pending, None
            self._start(nxt, done_t)
        return result

    def _advance(self, now: float) -> list[RecognitionResult]:
        out = []
        while self._busy_until is not None and self._busy_until <= now:
            out.append(self._complete())
        return out

    def submit(self, event: DetectionEvent) -> list[RecognitionResult]:
        completed = self._advance(event.t)
        if event.kind is not DetectionKind.OBSTACLE:
            return completed
        if self._busy_until is not None:
            self._pending = event
        else:
            self._start(event, event.t)
        return completed

    def poll(self, now: float) -> list[RecognitionResult]:
        return self._advance(now)

    def flush(self) -> list[RecognitionResult]:
        out = []
        while self._busy_until is not None:
            out.append(self._complete())
        return out


class FlakyRecognizer(MockRecognizer):
    """A mock recognizer that raises on every event nearer than 1 m."""

    def recognize(self, event):
        if event.range_m < 1.0:
            raise RuntimeError("recognizer failure")
        return super().recognize(event)


def random_gate_calls(rng, n):
    """``n`` calls ``(method, argument)`` in time order: events (a quarter of
    them drop-offs) spaced mostly well inside one frame latency, so bursts
    coalesce, with polls and flushes between them."""
    t, calls = 0.0, []
    for _ in range(n):
        t += float(rng.uniform(0.0, LATENCY_S / 4 if rng.random() < 0.7 else 3 * LATENCY_S))
        u = rng.random()
        if u < 0.6:
            channel = CHANNELS[int(rng.integers(len(CHANNELS)))]
            dropoff = rng.random() < 0.25
            kind = DetectionKind.DROPOFF if dropoff else DetectionKind.OBSTACLE
            calls.append(("submit", DetectionEvent(t, channel, kind, float(rng.uniform(0.3, 2.0)))))
        elif u < 0.9:
            calls.append(("poll", t))
        else:
            calls.append(("flush", None))
    return calls


class TestGateOracle:
    @pytest.mark.parametrize("recognizer", [MockRecognizer, FlakyRecognizer])
    def test_random_streams_match_reference(self, recognizer):
        rng = np.random.default_rng(17)
        failed = flushed = 0
        for seed in range(40):
            ref = ReferenceGate(recognizer(seed=seed))
            gate = RecognitionGate(recognizer(seed=seed))
            # takes poll(math.inf) wherever gate takes flush()
            twin = RecognitionGate(recognizer(seed=seed))
            for method, arg in random_gate_calls(rng, int(rng.integers(1, 120))):
                done_t = ref._busy_until
                if method != "flush" and done_t is not None and rng.random() < 0.2:
                    # exactly when the in-flight frame completes
                    arg = replace(arg, t=done_t) if method == "submit" else done_t
                if method == "flush":
                    got = gate.flush()
                    assert ref.flush() == got
                    assert twin.poll(math.inf) == got
                    flushed += len(got)
                else:
                    got = getattr(gate, method)(arg)
                    assert getattr(ref, method)(arg) == got
                    assert getattr(twin, method)(arg) == got
                failed += sum(r.failed for r in got)
                assert gate.processed_count == ref.processed_count == twin.processed_count
            assert gate.flush() == ref.flush() == twin.poll(math.inf)
            assert gate.processed_count == ref.processed_count
        assert flushed > 0
        assert (failed > 0) == (recognizer is FlakyRecognizer)
