"""Tactile and audio feedback mapping.

Five coin motors sit on the belt (1 left, 2 front-left, 3 front, 4
front-right, 5 right).  Vibration intensity follows the distance to the
nearest obstacle: saturated at 1.0 up to RAMP_NEAR (0.5 m), fading
linearly to 0.0 at RAMP_FAR (2.5 m).  The linear ramp is the simplest
monotone choice; its ends are constants, not settings.

Audio is rate-limited: bursts of messages would otherwise flood the user,
so the scheduler emits at most one message per ``min_gap`` seconds, always
the most urgent pending one (lower priority number first, earlier
timestamp breaking ties), and silently drops anything older than the
staleness window -- a stale obstacle announcement is worse than none.
Unlike the ramp, ``min_gap`` and ``staleness`` stay parameters: the
scheduler's bound on emissions is checked over a sweep of gaps.

``respond`` runs detection events through recognition to feedback, one
sonar tick at a time: it polls the recognition gate and offers the labels
it finished, then gives each of the tick's events a motor row, a spoken
warning and a recognition request, then polls the scheduler once.  After
the last tick the gate is flushed: those labels are offered but never
polled, so they stay pending in the scheduler and are only counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DataError, SonarChannel
from .perception import DetectionEvent, DetectionKind, RecognitionGate

# Audio priority classes, most urgent first.
PRIORITY_DROPOFF = 0
PRIORITY_OBSTACLE = 1
PRIORITY_RECOGNITION = 2

RAMP_NEAR = 0.5  # m: full vibration at or below
RAMP_FAR = 2.5  # m: no vibration at or beyond

MOTOR_FOR_CHANNEL = {
    SonarChannel.LEFT: 1,
    SonarChannel.INCLINED_LEFT: 2,
    SonarChannel.FRONT: 3,
    SonarChannel.INCLINED_RIGHT: 4,
    SonarChannel.RIGHT: 5,
}


@dataclass(frozen=True)
class AudioMessage:
    priority: int  # lower = more urgent
    text: str
    t: float


def intensity_map(distance: float) -> float:
    """Map obstacle distance to vibration intensity in [0, 1].

    1.0 at or below RAMP_NEAR, 0.0 at or beyond RAMP_FAR, linear in
    between; negative distances behave like RAMP_NEAR.
    """
    if distance <= RAMP_NEAR:
        return 1.0
    if distance >= RAMP_FAR:
        return 0.0
    return (RAMP_FAR - distance) / (RAMP_FAR - RAMP_NEAR)


class AudioScheduler:
    """Flood-suppressed, priority-ordered audio queue.

    ``offer`` enqueues; ``poll(now)`` returns the next message to speak or
    None.  Emissions are never closer than ``min_gap`` seconds apart, the
    most urgent (then oldest) pending message wins, and pending messages
    older than ``staleness`` seconds are dropped.
    """

    def __init__(self, min_gap: float = 2.0, staleness: float = 5.0):
        if min_gap <= 0.0:
            raise DataError("min_gap must be positive")
        self.min_gap = min_gap
        self.staleness = staleness
        self._pending: list[AudioMessage] = []  # in offer order
        self._last_emit = -math.inf

    @property
    def pending(self) -> int:
        """Messages offered but neither spoken nor dropped as stale yet."""
        return len(self._pending)

    def offer(self, msg: AudioMessage) -> None:
        self._pending.append(msg)

    def poll(self, now: float) -> AudioMessage | None:
        self._pending = [msg for msg in self._pending if now - msg.t <= self.staleness]
        if not self._pending or now - self._last_emit < self.min_gap:
            return None
        # a stable sort: equal (priority, t) stay in offer order
        self._pending.sort(key=lambda msg: (msg.priority, msg.t))
        msg = self._pending.pop(0)
        self._last_emit = now
        return msg


def respond(
    tick_t, events: list[DetectionEvent], gate: RecognitionGate, scheduler: AudioScheduler
) -> list[tuple]:
    """The feedback of the sorted float times ``tick_t``, in the tick order
    above: a row ``(event.t, "tactile", motor, intensity)`` per event and
    ``(t, "audio", priority, text)`` per message spoken at tick ``t``.
    ``events`` are in tick order (``ObstacleDetector.process``), each
    handled at the first tick at or after its time; a drop-off warning
    is more urgent than an obstacle's."""
    rows, k = [], 0
    for t in tick_t:
        _offer_labels(scheduler, gate.poll(t))
        while k < len(events) and events[k].t <= t:
            event, k = events[k], k + 1
            motor = MOTOR_FOR_CHANNEL[event.channel]
            rows.append((event.t, "tactile", motor, intensity_map(event.range_m)))
            dropoff = event.kind is DetectionKind.DROPOFF
            urgency = PRIORITY_DROPOFF if dropoff else PRIORITY_OBSTACLE
            text = f"{event.kind.value} {event.channel.value}"
            scheduler.offer(AudioMessage(urgency, text, event.t))
            _offer_labels(scheduler, gate.submit(event))
        msg = scheduler.poll(t)
        if msg is not None:
            rows.append((t, "audio", msg.priority, msg.text))
    _offer_labels(scheduler, gate.flush())
    return rows


def _offer_labels(scheduler: AudioScheduler, results) -> None:
    """Offer the top label of each recognition that gave one."""
    for res in results:
        if not res.failed and res.labels:
            name, conf = res.labels[0]
            text = f"label {name} {conf}"
            scheduler.offer(AudioMessage(PRIORITY_RECOGNITION, text, res.completed_t))
