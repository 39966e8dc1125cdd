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

from .states import as_float, as_label, as_list, json_fields
from .system import SpinSystem


def _require_finite(obj, *names: str) -> None:
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite, got {getattr(obj, name)}")


@dataclass(frozen=True)
class SelectivePulse:
    spin: str
    phase_deg: float
    angle_deg: float
    duration_s: float

    def __post_init__(self):
        _require_finite(self, "phase_deg", "angle_deg")
        if not 0.0 <= self.duration_s < math.inf:
            raise ValueError(f"duration_s must be finite and nonnegative, got {self.duration_s}")


@dataclass(frozen=True)
class Delay:
    duration_s: float

    def __post_init__(self):
        if not 0.0 <= self.duration_s < math.inf:
            raise ValueError(f"duration_s must be finite and nonnegative, got {self.duration_s}")


@dataclass(frozen=True)
class FrameShift:
    spin: str
    angle_deg: float

    duration_s = 0.0

    def __post_init__(self):
        _require_finite(self, "angle_deg")


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
        if not 0.0 < self.pulse90_s < math.inf:
            raise ValueError(f"pulse90_s must be positive and finite, got {self.pulse90_s}")

    def pulse_s(self, angle_deg: float) -> float:
        return abs(angle_deg) / 90.0 * self.pulse90_s


def coupled_delay_s(j_hz: float, turns: float) -> float:
    """Free-evolution time for `turns` full cycles of a J coupling."""
    if j_hz == 0.0:
        raise ValueError("cannot evolve under a zero coupling")
    if turns < 0.0:
        raise ValueError(f"turns must be nonnegative, got {turns}")
    return turns / abs(j_hz)


def standard_toffoli_s(j_hz: float) -> float:
    """Coupling time of the textbook doubly controlled NOT, 7/(4|J|)."""
    if j_hz == 0.0:
        raise ValueError("cannot evolve under a zero coupling")
    return 7.0 / (4.0 * abs(j_hz))


@dataclass
class PulseSequence:
    """An ordered event list bound to the spin system it addresses."""

    system: SpinSystem
    events: list[Event]

    def __post_init__(self):
        known = set(self.system.labels)
        for event in self.events:
            spin = getattr(event, "spin", None)
            if spin is not None and spin not in known:
                raise ValueError(f"event addresses unknown spin {spin!r}")

    @property
    def total_duration_s(self) -> float:
        return sum(e.duration_s for e in self.events)

    def coupling_duration_s(self) -> float:
        """Total delay time, the pulse-length-independent part of the cost."""
        return sum(e.duration_s for e in self.events if isinstance(e, Delay))

    def pulse_count(self) -> int:
        return sum(isinstance(e, SelectivePulse) for e in self.events)

    def frame_out(self) -> dict[str, float]:
        """Net accumulated frame shift per spin, in degrees."""
        net = {lab: 0.0 for lab in self.system.labels}
        for event in self.events:
            if isinstance(event, FrameShift):
                net[event.spin] += event.angle_deg
        return net

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "system": self.system.to_dict(),
            "events": [event_to_dict(e) for e in self.events],
            "total_duration_s": self.total_duration_s,
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PulseSequence":
        names = ("system", "events", "total_duration_s")
        system, events, total = json_fields("a sequence", json.loads(text), names)
        events = [event_from_dict(e) for e in as_list("events", events)]
        seq = cls(system=SpinSystem.from_dict(system), events=events)
        if as_float("total_duration_s", total) != seq.total_duration_s:
            raise ValueError(f"total_duration_s is {total!r}, not the events' {seq.total_duration_s}")
        return seq
