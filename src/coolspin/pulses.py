"""Pulse-sequence events and the idealized duration model.

A sequence is a flat list of three event kinds acting on named spins:

* ``SelectivePulse(spin, phase_deg, angle_deg, duration_s)``: a
  transmitter-selective radio-frequency rotation about the in-plane axis
  at ``phase_deg`` (0 is +x, 90 is +y) through ``angle_deg``. The duration
  is wall-clock bookkeeping only; dynamically the pulse is instantaneous.
* ``Delay(duration_s)``: free evolution under the scalar couplings alone;
  chemical-shift evolution is assumed refocused during every delay.
* ``FrameShift(spin, angle_deg)``: a zero-duration reference-frame
  rotation about z, the bookkeeping form of a z rotation.

Angles are stored in degrees throughout and only converted to radians
inside the numeric propagator.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .states import as_duration, as_finite, as_float, as_label, as_list, json_fields
from .system import SpinSystem


@dataclass(frozen=True)
class SelectivePulse:
    spin: str
    phase_deg: float
    angle_deg: float
    duration_s: float

    def __post_init__(self):
        as_finite("phase_deg", self.phase_deg)
        as_finite("angle_deg", self.angle_deg)
        as_duration("duration_s", self.duration_s)


@dataclass(frozen=True)
class Delay:
    duration_s: float

    def __post_init__(self):
        as_duration("duration_s", self.duration_s)


@dataclass(frozen=True)
class FrameShift:
    spin: str
    angle_deg: float

    duration_s = 0.0

    def __post_init__(self):
        as_finite("angle_deg", self.angle_deg)


Event = SelectivePulse | Delay | FrameShift


# The JSON codec: an event is an object whose "event" tag names its kind and
# whose other keys are the kind's fields, a spin label or a number each.
_KINDS = {"pulse": SelectivePulse, "delay": Delay, "frame_shift": FrameShift}
_TAGS = {kind: tag for tag, kind in _KINDS.items()}
_FIELDS = {tag: tuple(f.name for f in fields(kind)) for tag, kind in _KINDS.items()}


def event_to_dict(event: Event) -> dict:
    # An event's instance dict holds exactly its fields: FrameShift's zero
    # duration is a class attribute.
    return {"event": _TAGS[type(event)], **vars(event)}


def event_from_dict(data: dict) -> Event:
    (tag,) = json_fields("an event", data, ("event",))
    if not isinstance(tag, str) or tag not in _KINDS:
        raise ValueError(f"unknown event kind {tag!r}")
    names = _FIELDS[tag]
    values = zip(names, json_fields(f"a {tag} event", data, names))
    return _KINDS[tag](*(as_label(v) if k == "spin" else as_float(k, v) for k, v in values))


@dataclass(frozen=True)
class DurationModel:
    """Wall-clock cost assignment for idealized sequences.

    Every selective pulse is charged pro rata against the 90-degree pulse
    time, delays are charged at face value, and frame shifts are free.
    """

    pulse90_s: float = 2e-3

    def __post_init__(self):
        if not 0.0 < as_float("pulse90_s", self.pulse90_s) < math.inf:
            raise ValueError(f"pulse90_s must be positive and finite, got {self.pulse90_s}")

    def pulse_s(self, angle_deg: float) -> float:
        seconds = abs(angle_deg) / 90.0 * self.pulse90_s
        if seconds == math.inf:
            raise ValueError(f"pulse90_s must keep a {angle_deg:g}-degree pulse's duration finite, to compile")
        return seconds


def coupled_delay_s(j_hz: float, turns: float) -> float:
    """Free-evolution time for `turns` full cycles of a J coupling."""
    if as_finite("j_hz", j_hz) == 0.0:
        raise ValueError("cannot evolve under a zero coupling")
    if as_finite("turns", turns) < 0.0:
        raise ValueError(f"turns must be nonnegative, got {turns}")
    return turns / abs(j_hz)


def standard_toffoli_s(j_hz: float) -> float:
    """Coupling time of the textbook doubly controlled NOT, 7/(4|J|)."""
    return coupled_delay_s(j_hz, 1.75)


@dataclass(frozen=True)
class PulseSequence:
    """An ordered event tuple bound to the spin system it addresses.

    One walk of the events, when the sequence is built, checks their spins
    and sums the pulse count, the total duration and the coupling (delay)
    time, each duration a `sum` in event order; the readers below return
    them. The sequence is frozen and its events a tuple, so they stay true.
    """

    system: SpinSystem
    events: tuple[Event, ...]

    def __post_init__(self):
        events, known, pulses, durations, delays = tuple(self.events), set(self.system.labels), 0, [], []
        for event in events:
            durations.append(event.duration_s)
            if isinstance(event, Delay):
                delays.append(event.duration_s)
            elif event.spin not in known:
                raise ValueError(f"event addresses unknown spin {event.spin!r}")
            else:
                pulses += isinstance(event, SelectivePulse)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "_sums", (pulses, sum(durations), sum(delays)))

    @property
    def total_duration_s(self) -> float:
        return self._sums[1]

    def coupling_duration_s(self) -> float:
        """Total delay time, the pulse-length-independent part of the cost."""
        return self._sums[2]

    def pulse_count(self) -> int:
        return self._sums[0]

    def frame_out(self) -> dict[str, float]:
        """Net accumulated frame shift per spin, in degrees."""
        net = {lab: 0.0 for lab in self.system.labels}
        for event in self.events:
            if isinstance(event, FrameShift):
                net[event.spin] += event.angle_deg
        return net

    def to_json(self) -> str:
        payload = {
            "system": self.system.to_dict(),
            "events": [event_to_dict(e) for e in self.events],
            "total_duration_s": self.total_duration_s,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PulseSequence":
        names = ("system", "events", "total_duration_s")
        system, events, total = json_fields("a sequence", json.loads(text), names)
        events = [event_from_dict(e) for e in as_list("events", events)]
        seq = cls(system=SpinSystem.from_dict(system), events=events)
        if as_float("total_duration_s", total) != seq.total_duration_s:
            raise ValueError(f"total_duration_s is {total!r}, not the events' {seq.total_duration_s}")
        return seq
