"""Obstacle / drop-off detection and sonar-gated recognition dispatch.

Detection runs over post-fusion per-channel ranges.  Side and front
channels raise an Obstacle event when the range falls to their trigger
threshold (THRESHOLDS: 2.0 m front, 1.5 m left and right); the inclined
channels watch the ground echo and report a DropOff when it comes back
longer than ``expected_ground_range`` plus DROPOFF_MARGIN (0.3 m: the
floor is missing), or an Obstacle when it comes back shorter by the same
margin.  The thresholds and margin are constants, not settings; only the
ground echo and ``max_range`` come from the scenario's SonarGeometry,
which ObstacleDetector checks when built: every trigger must lie within
``max_range``.  Every trigger latches and only re-arms after the range
clears by 10% of the trigger level, so a static obstacle produces exactly
one event instead of a storm.

Detection is column arithmetic over a whole run.  Each latch watches one
channel as a time series: ``ObstacleDetector.process`` reads each
channel's own rows of the sonar log (the front channel's fused estimate
in its place) and turns the latch's trigger and re-arm masks into events,
in tick order and within a tick in EVENT_ORDER.  A tick with no row of a
channel neither triggers nor re-arms that channel's latches.

Recognition is gated by detection: the recognizer has one in-flight slot,
and events arriving while it is busy are coalesced down to the single
most recent one -- a stale frame is useless for navigation.  The gate
runs in simulated time (event timestamps drive it) in one advance loop,
which ``flush`` runs to the end; only the ordering and coalescing
semantics are contractual.  Every frame takes LATENCY_S, the measured
604 ms for 640x480, a constant, not a setting.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CHANNELS, DataError, INCLINED_CHANNELS, SonarChannel, SonarGeometry, SonarLog

REARM_FRACTION = 0.10  # a trigger re-arms after clearing by 10% of its level
# horizontal channels' trigger ranges, m; checked against max_range in this order
THRESHOLDS = {SonarChannel.FRONT: 2.0, SonarChannel.LEFT: 1.5, SonarChannel.RIGHT: 1.5}
DROPOFF_MARGIN = 0.3  # inclined channels trigger this far off the ground echo, m
# the order of one tick's events: CHANNELS order, front last
EVENT_ORDER = tuple(c for c in CHANNELS if c is not SonarChannel.FRONT) + (SonarChannel.FRONT,)


class DetectionKind(enum.Enum):
    OBSTACLE = "obstacle"
    DROPOFF = "dropoff"


@dataclass(frozen=True)
class DetectionEvent:
    t: float
    channel: SonarChannel
    kind: DetectionKind
    range_m: float


class ObstacleDetector:
    """Threshold detector with one hysteresis latch per (channel, kind).

    ``process(log, fused_t, fused)`` takes a whole sonar log and the fused
    front estimate, and starts with every latch armed.  Each latch reads
    its own channel's stream:

    - a side channel: its rows, ``inf`` where there is no echo;
    - an inclined channel: its rows that have an echo; a missing ground
      echo is ambiguous and is ignored outright;
    - the front: the fused ticks, each reading the fused value if the
      tick has a front echo, else ``inf``.

    A no-echo ``inf`` never triggers, but it re-arms a horizontal
    channel's obstacle latch (the obstacle left the beam).  A latch fires
    on a trigger tick when the latest earlier trigger or re-arm tick was a
    re-arm, or when there is none.  Events come in tick order, within a
    tick in EVENT_ORDER.
    """

    def __init__(self, geometry: SonarGeometry):
        for ch, thr in THRESHOLDS.items():
            if not thr <= geometry.max_range:
                raise DataError(
                    f"key 'max_range': threshold {thr} for {ch.value} outside (0, max_range]"
                )
        ground, margin = geometry.expected_ground_range, DROPOFF_MARGIN
        if not (0.0 < ground - margin and ground + margin <= geometry.max_range):
            raise DataError(
                "keys 'belt_height', 'inclined_depression_deg', 'max_range': "
                f"inclined trigger {ground:.6g} -/+ {margin} m outside (0, max_range]"
            )
        self.geometry = geometry

    def _latches(self, channel: SonarChannel, r: np.ndarray):
        """Yield ``(kind, trigger, rearm)`` masks of ``channel``'s latches over ``r``."""
        if channel in INCLINED_CHANNELS:
            hi = self.geometry.expected_ground_range + DROPOFF_MARGIN
            lo = self.geometry.expected_ground_range - DROPOFF_MARGIN
            yield DetectionKind.DROPOFF, r >= hi, r <= hi * (1.0 - REARM_FRACTION)
            yield DetectionKind.OBSTACLE, r <= lo, r >= lo * (1.0 + REARM_FRACTION)
        else:
            thr = THRESHOLDS[channel]
            yield DetectionKind.OBSTACLE, r <= thr, r >= thr * (1.0 + REARM_FRACTION)

    def process(
        self, log: SonarLog, fused_t: np.ndarray, fused: np.ndarray
    ) -> list[DetectionEvent]:
        ranges = np.where(log.valid, log.range_m, np.inf)
        events = []
        for channel in EVENT_ORDER:
            own = log.channel == CHANNELS.index(channel)
            if channel is SonarChannel.FRONT:
                # not np.isin: its np.unique holds ~1 MiB from its first call on (NumPy 2.4)
                echo_t = log.t[own & log.valid]  # time-sorted, as the log's rows are
                echo = np.searchsorted(echo_t, fused_t, "right") > np.searchsorted(echo_t, fused_t)
                t, r = fused_t, np.where(echo, fused, np.inf)
            else:
                rows = np.flatnonzero(own & log.valid if channel in INCLINED_CHANNELS else own)
                t, r = log.t[rows], ranges[rows]
            for kind, trigger, rearm in self._latches(channel, r):
                marked = np.flatnonzero(trigger | rearm)
                hit = trigger[marked]
                fires = marked[hit & ~np.r_[False, hit[:-1]]]
                events += [
                    DetectionEvent(tt, channel, kind, rr)
                    for tt, rr in zip(t[fires].tolist(), r[fires].tolist())
                ]
        events.sort(key=lambda event: event.t)  # stable: EVENT_ORDER within a tick
        return events


LATENCY_S = 0.604  # s per recognition: the measured average for a 640x480 frame

LABELS = ("person", "chair", "door", "pole", "bin", "bicycle")


class MockRecognizer:
    """Deterministic stand-in for a real (cloud) label-detection service.

    Labels (from LABELS) and confidences are drawn from an RNG keyed on
    (seed, event time, channel index), so results depend neither on call
    order nor on the process's hash seed.  It never fails.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _rng(self, event: DetectionEvent) -> np.random.Generator:
        key = (self.seed, int(round(event.t * 1e6)) & 0x7FFFFFFF,
               CHANNELS.index(event.channel))
        return np.random.default_rng(key)

    def recognize(self, event: DetectionEvent) -> list[tuple[str, float]]:
        rng = self._rng(event)
        # an unused first draw: dropping it would change every label a seed gives
        rng.random()
        count = int(rng.integers(1, 3))
        idx = rng.choice(len(LABELS), size=count, replace=False)
        return [(LABELS[i], round(float(rng.uniform(0.5, 0.99)), 3)) for i in idx]


@dataclass(frozen=True)
class RecognitionResult:
    event: DetectionEvent
    labels: tuple
    completed_t: float
    failed: bool = False


class RecognitionGate:
    """Single-slot dispatcher from detection events to the recognizer.

    ``submit`` advances simulated time to the event's timestamp, collects
    any recognition that completed meanwhile, and either starts the event
    (recognizer idle) or coalesces it into the single pending slot
    (recognizer busy, newest event wins).  DropOff events are never
    dispatched.  ``flush`` runs the same advance to the end.  The
    recognizer is any object with MockRecognizer's ``recognize``.
    """

    def __init__(self, recognizer: MockRecognizer):
        self.recognizer = recognizer
        self._in_flight: Optional[tuple[DetectionEvent, float]] = None
        self._pending: Optional[DetectionEvent] = None
        self.processed_count = 0

    def _advance(self, now: float) -> list[RecognitionResult]:
        """Complete each frame done by ``now``; a pending frame starts as one completes."""
        out = []
        while self._in_flight is not None and self._in_flight[1] <= now:
            event, done_t = self._in_flight
            self.processed_count += 1
            try:
                labels, failed = tuple(self.recognizer.recognize(event)), False
            except Exception:
                labels, failed = (), True
            out.append(RecognitionResult(event, labels, done_t, failed))
            nxt, self._pending = self._pending, None
            self._in_flight = None if nxt is None else (nxt, done_t + LATENCY_S)
        return out

    def submit(self, event: DetectionEvent) -> list[RecognitionResult]:
        """Feed one detection event; returns results completed by event.t."""
        completed = self._advance(event.t)
        if event.kind is DetectionKind.OBSTACLE:
            if self._in_flight is None:
                self._in_flight = (event, event.t + LATENCY_S)
            else:
                self._pending = event  # coalesce: keep only the latest
        return completed

    def poll(self, now: float) -> list[RecognitionResult]:
        """Collect results completed by ``now`` without submitting."""
        return self._advance(now)

    def flush(self) -> list[RecognitionResult]:
        """Complete all in-flight and pending recognitions."""
        # _advance, not poll: the bench's traced poll would count them twice
        return self._advance(math.inf)
