"""Privacy metrics: reduction rate, state-tracking ratios, activity inference.

The attacker model is an observer of an event log who holds each attribute's
last seen value indefinitely, knows every device's room and label, and runs
simple duration/sequence detectors for daily activities.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .model import Event, ModelError, Registry, Value

MS_PER_HOUR = 3_600_000


def reduction_rate(raw_count: int, reported_count: int) -> float:
    """RR = 1 - reported/raw."""
    if raw_count <= 0:
        raise ModelError("reduction rate needs raw_count > 0")
    if reported_count < 0 or reported_count > raw_count:
        raise ModelError("need 0 <= reported_count <= raw_count")
    return 1.0 - reported_count / raw_count


@dataclass
class StateTimeline:
    """Step function value(t) over one attribute, last-value-holds."""

    initial: Value
    times: list[int] = field(default_factory=list)    # change instants, ascending
    values: list[Value] = field(default_factory=list)

    @classmethod
    def from_events(cls, events: Iterable[Event], initial: Value) -> "StateTimeline":
        ordered = sorted(events, key=lambda e: e.timestamp)
        return cls.from_steps(((e.timestamp, e.value) for e in ordered), initial)

    @classmethod
    def from_steps(cls, steps: Iterable[tuple[int, Value]], initial: Value) -> "StateTimeline":
        """The timeline of time-ordered ``(t, value)`` steps; a millisecond's last value holds."""
        last = dict(steps)   # keys stay in first-seen order, values take the last write
        return cls(initial, list(last), list(last.values()))

    def add(self, t: int, value: Value) -> None:
        if self.times and t < self.times[-1]:
            raise ModelError("timeline updates must be time-ordered")
        if self.times and t == self.times[-1]:
            self.values[-1] = value
            return
        self.times.append(t)
        self.values.append(value)

    def value_at(self, t: int) -> Value:
        i = bisect.bisect_right(self.times, t)
        return self.initial if i == 0 else self.values[i - 1]

    def events(self) -> list[tuple[int, Value]]:
        return list(zip(self.times, self.values))


def _pair_durations(
    true_tl: StateTimeline, obs_tl: StateTimeline, t0: int, t1: int
) -> dict[tuple[Value, Value], int]:
    """Time in [t0, t1) spent in each (true value, observed value) pair.

    One merge walk over the change instants of both step functions.
    """
    out: dict[tuple[Value, Value], int] = {}
    ta, va, na = true_tl.times, true_tl.values, len(true_tl.times)
    tb, vb, nb = obs_tl.times, obs_tl.values, len(obs_tl.times)
    i, j = bisect.bisect_right(ta, t0), bisect.bisect_right(tb, t0)
    tv = va[i - 1] if i else true_tl.initial
    ov = vb[j - 1] if j else obs_tl.initial
    now = t0
    while now < t1:
        cut = min(ta[i] if i < na else t1, tb[j] if j < nb else t1, t1)
        out[tv, ov] = out.get((tv, ov), 0) + cut - now
        if i < na and ta[i] == cut:
            tv = va[i]
            i += 1
        if j < nb and tb[j] == cut:
            ov = vb[j]
            j += 1
        now = cut
    return out


def ctr(true_tl: StateTimeline, observed_tl: StateTimeline, horizon: tuple[int, int]) -> float:
    """Fraction of the horizon where the observer's value is exactly right."""
    t0, t1 = horizon
    if t1 <= t0:
        raise ModelError("empty horizon")
    spans = _pair_durations(true_tl, observed_tl, t0, t1)
    equal = sum(ms for (tv, ov), ms in spans.items() if tv == ov)
    return equal / (t1 - t0)


def catr(
    true_tl: StateTimeline,
    observed_tl: StateTimeline,
    active_value: str,
    horizon: tuple[int, int],
) -> Optional[float]:
    """Correct active-state tracking; None when the observer never guesses active."""
    if not active_value:
        raise ModelError("catr needs an active value")
    believed_active = both = 0
    for (tv, ov), ms in _pair_durations(true_tl, observed_tl, *horizon).items():
        if ov == active_value:
            believed_active += ms
            if tv == active_value:
                both += ms
    if believed_active == 0:
        return None
    return both / believed_active


# ---------------------------------------------------------------------------
# Activity inference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActivityLabel:
    kind: str
    start: int
    end: int
    source: str = "inferred"

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ModelError("activity interval must be non-empty")

    def duration(self) -> int:
        return self.end - self.start


@dataclass
class HomeMeta:
    """What the attacker knows: each device's room and label."""

    rooms: dict[str, str]
    labels: dict[str, str]

    @classmethod
    def from_registry(cls, registry: Registry) -> "HomeMeta":
        rooms = {d.id: d.room for d in registry.devices.values()}
        labels = {d.id: d.label for d in registry.devices.values()}
        return cls(rooms=rooms, labels=labels)

    def motion_devices(self, room: Optional[str] = None) -> list[str]:
        return sorted(
            dev
            for dev, label in self.labels.items()
            if "motion" in label and (room is None or self.rooms.get(dev) == room)
        )

    def devices_labelled(self, token: str) -> list[str]:
        return sorted(dev for dev, label in self.labels.items() if token in label)


def _active_intervals(
    events: Sequence[Event], device: str, attribute: str, active: str, horizon: tuple[int, int]
) -> list[tuple[int, int]]:
    """Maximal intervals where the log shows the attribute in its active state."""
    out = []
    start: Optional[int] = None
    for e in events:
        if (e.device, e.attribute) != (device, attribute):
            continue
        if e.value == active and start is None:
            start = e.timestamp
        elif e.value != active and start is not None:
            out.append((start, e.timestamp))
            start = None
    if start is not None:
        out.append((start, horizon[1]))
    return [iv for iv in out if iv[1] > iv[0]]


def infer_activities(
    log: Sequence[Event],
    home_meta: HomeMeta,
    horizon: tuple[int, int],
    source: str = "inferred",
) -> list[ActivityLabel]:
    """Run the duration/sequence detectors an informed attacker would use.

    Detector roles come from room names and label tokens: ``front door``
    (contact), per-room ``motion`` sensors, ``microwave`` / ``coffee``
    outlets (power), bathroom ``water`` sensor.
    """
    events = sorted(log, key=lambda e: e.timestamp)
    labels: list[ActivityLabel] = []
    minute = 60_000

    motion_by_room: dict[str, list[tuple[int, int]]] = {}
    all_motion: list[tuple[int, int]] = []
    for dev in home_meta.motion_devices():
        room = home_meta.rooms.get(dev, "")
        ivs = _active_intervals(events, dev, "motion", "active", horizon)
        motion_by_room.setdefault(room, []).extend(ivs)
        all_motion.extend(ivs)
    for ivs in motion_by_room.values():
        ivs.sort()
    all_motion.sort()

    def motion_active_within(t0: int, t1: int, room: Optional[str] = None) -> Optional[int]:
        ivs = all_motion if room is None else motion_by_room.get(room, [])
        for s, e in ivs:
            if s < t1 and e > t0:
                return max(s, t0)
        return None

    # Front-door events anchor leaving/arriving.
    door_events = [
        e for e in events
        if e.attribute == "contact" and "front" in home_meta.labels.get(e.device, "")
    ]
    for e in door_events:
        t = e.timestamp
        if motion_active_within(t + 1, t + 10 * minute) is None:
            labels.append(ActivityLabel("leaving", t, t + 10 * minute, source))
        else:
            first = motion_active_within(t + 1, t + 3 * minute)
            if first is not None:
                labels.append(ActivityLabel("arriving", t, max(first, t + 1), source))

    for s, e in motion_by_room.get("bathroom", []):
        if minute < e - s < 10 * minute:
            labels.append(ActivityLabel("toileting", s, e, source))
        if 15 * minute < e - s < 60 * minute:
            labels.append(ActivityLabel("showering", s, e, source))

    # Showering, water-sensor variant: bathroom motion then the sensor turns wet.
    water_devs = sorted(
        dev for dev, room in home_meta.rooms.items()
        if room == "bathroom" and "water" in home_meta.labels.get(dev, "")
    )
    for dev in water_devs:
        for e in events:
            if e.device == dev and e.attribute == "water" and e.value == "wet":
                t = e.timestamp
                if motion_active_within(t - 5 * minute, t + 1, room="bathroom") is not None:
                    labels.append(ActivityLabel("showering", t, t + 10 * minute, source))

    # Sleeping: bedroom motion, everything quiet, bedroom stays inactive.
    bedroom = motion_by_room.get("bedroom", [])
    other_rooms = [
        iv for room, ivs in motion_by_room.items() if room != "bedroom" for iv in ivs
    ]
    for s, e in bedroom:
        window = (e, e + 10 * minute)
        if any(os < window[1] and oe > window[0] for os, oe in other_rooms):
            continue
        if any(bs < window[1] and be > window[0] for bs, be in bedroom if (bs, be) != (s, e)):
            continue
        labels.append(ActivityLabel("sleeping", s, e + 10 * minute, source))

    for s, e in motion_by_room.get("kitchen", []):
        if e - s > 10 * minute:
            labels.append(ActivityLabel("cooking", s, e, source))
    for dev in home_meta.devices_labelled("microwave"):
        for e in events:
            if e.device == dev and e.attribute == "power" and float(e.value) > 1000.0:
                labels.append(ActivityLabel("cooking", e.timestamp, e.timestamp + 10 * minute, source))
    for dev in home_meta.devices_labelled("coffee"):
        for e in events:
            if e.device == dev and e.attribute == "power" and float(e.value) > 1000.0:
                labels.append(
                    ActivityLabel("preparing-coffee", e.timestamp, e.timestamp + 5 * minute, source)
                )

    labels.sort(key=lambda a: (a.start, a.kind))
    return _dedupe_overlapping(labels)


def _dedupe_overlapping(labels: list[ActivityLabel]) -> list[ActivityLabel]:
    out: list[ActivityLabel] = []
    for lab in labels:
        if out and out[-1].kind == lab.kind and lab.start < out[-1].end:
            continue
        out.append(lab)
    return out


@dataclass
class AttackReport:
    recall: dict[str, float]
    total_recall: float
    true_positive: dict[str, int]
    false_negative: dict[str, int]
    false_positive: dict[str, int]


def _overlap(a: ActivityLabel, b: ActivityLabel) -> int:
    return max(0, min(a.end, b.end) - max(a.start, b.start))


def attack_report(
    gt: Sequence[ActivityLabel],
    inferred: Sequence[ActivityLabel],
    min_overlap: float = 0.5,
) -> AttackReport:
    """Recall per activity with >=50%-overlap interval matching."""
    kinds = sorted({a.kind for a in gt} | {a.kind for a in inferred})
    tp: dict[str, int] = {k: 0 for k in kinds}
    fn: dict[str, int] = {k: 0 for k in kinds}
    fp: dict[str, int] = {k: 0 for k in kinds}
    used: set[int] = set()
    for g in gt:
        best = None
        for i, inf in enumerate(inferred):
            if i in used or inf.kind != g.kind:
                continue
            if _overlap(g, inf) >= min_overlap * g.duration():
                best = i
                break
        if best is None:
            fn[g.kind] += 1
        else:
            used.add(best)
            tp[g.kind] += 1
    for i, inf in enumerate(inferred):
        if i not in used:
            fp[inf.kind] += 1
    recall = {
        k: (tp[k] / (tp[k] + fn[k]) if (tp[k] + fn[k]) else 0.0) for k in kinds
    }
    total_gt = sum(tp.values()) + sum(fn.values())
    total_recall = sum(tp.values()) / total_gt if total_gt else 0.0
    return AttackReport(recall, total_recall, tp, fn, fp)


def infer_working_hours(
    log: Sequence[Event], presence_devices: Sequence[str], horizon: tuple[int, int]
) -> dict[str, list[tuple[int, int]]]:
    """Present-intervals per presence sensor, rounded to the nearest hour."""
    out: dict[str, list[tuple[int, int]]] = {}
    for dev in presence_devices:
        spans = _active_intervals(sorted(log, key=lambda e: e.timestamp), dev, "presence",
                                  "present", horizon)
        rounded = []
        for s, e in spans:
            h0 = round(s / MS_PER_HOUR)
            h1 = round(e / MS_PER_HOUR)
            if h1 > h0:
                rounded.append((h0, h1))
        out[dev] = rounded
    return out
