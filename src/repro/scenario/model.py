"""Scenario data model: fault/traffic experiments as data.

A :class:`Scenario` is an ordered list of timestamped, validated
:class:`ScenarioEvent` records — interface/link/node faults, flap
trains, traffic bursts, and pause/measure markers — plus the settle and
measurement policy around them.  Timestamps (``at_ms``) are offsets from
the *measurement start*: the instant after the converged fabric has
idled through its settle phase, when the update monitor arms and the
table snapshot is taken.

Two stop rules end a run.  By default the paper's update-quiesce rule
of section VI.B applies (``quiet_ms``/``max_wait_ms``); a scenario that
sets ``window_ms`` instead stops exactly that long after its horizon —
no quiesce, no implicit detection-bound wait — which is the fixed window
of the robustness sweep, the chaos grid and ``repro load``.

Beyond faults and traffic, three ops serve those fixed-window programs:
``reachability`` judges every rack pair over every ECMP choice at
its instant (the sweep's all-pairs check); a ``traffic_burst`` with
``via: <link target>`` picks, when it starts, the first source port
whose path crosses that link; and ``isolate`` downs every interface of a node
while its agent stays alive.

Scenarios are pure data: symbolic targets (``"tor[0].uplink[1]"``,
``"any-spine"``, ``"case:TC1"`` — see :mod:`repro.scenario.targets`)
stay unresolved until a compile against a built fabric (any registered
:class:`~repro.topology.Topology`).  They serialize to canonical
JSON (sorted keys, no incidental whitespace), so a scenario flows
through the content-addressed result cache and the parallel runner
exactly like any other task component.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

from repro.harness.digest import canonical_json
from repro.net.impairment import DIRECTIONS, resolve_profile
from repro.workload.spec import WorkloadError, resolve_workload

# Bump when the scenario payload semantics change: the schema number is
# embedded in every serialized scenario and in every scenario cache key.
# Schema 2 added the impair/clear_impairment ops (gray failures).
# Schema 3 added the workload op (flow-level load under faults).
# Schema 4 added the agent_crash/agent_restart ops (control-plane crash
# with headless forwarding; restart follows the stack's restart mode).
# The window_ms stop rule, the isolate/reachability ops and the
# traffic_burst via field joined schema 4 without a bump: they are
# emitted only when used, so every schema-4 payload reads as before.
SCENARIO_SCHEMA = 4


class ScenarioError(ValueError):
    """A structurally invalid scenario (unknown op, bad field, bad order)."""


# op -> (required fields, optional fields) beyond the common op/at_ms
_EVENT_FIELDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "iface_down": (("target",), ()),
    "iface_up": (("target",), ()),
    "link_cut": (("target",), ()),
    "link_restore": (("target",), ()),
    "node_crash": (("target",), ()),
    "node_restart": (("target",), ()),
    "agent_crash": (("target",), ()),
    "agent_restart": (("target",), ()),
    "isolate": (("target",), ()),
    "flap_train": (("target", "count", "down_ms"), ("up_ms",)),
    "traffic_burst": (("src", "dst", "rate_pps", "count"),
                      ("src_port", "via")),
    "pause": (("duration_ms",), ()),
    "measure": (("label",), ()),
    "reachability": ((), ()),
    "impair": (("target",),
               ("profile", "direction", "loss", "corrupt", "duplicate",
                "jitter_us", "ge_p", "ge_r", "ge_loss_bad")),
    "clear_impairment": (("target",), ("direction",)),
    "workload": (("workload",), ()),
}

# events that begin an outage (used for the detection-time metric).
# impair is deliberately NOT here: an impaired link is degraded, not
# down, so any down-declaration it provokes is a false positive.
# agent_crash IS here: the silent control plane is a real outage that
# peers must detect through their own liveness machinery.
DOWN_OPS = ("iface_down", "link_cut", "node_crash", "agent_crash",
            "isolate", "flap_train")


@dataclass(frozen=True)
class ScenarioEvent:
    """One timestamped scenario step.  Only the fields the op declares in
    ``_EVENT_FIELDS`` may be set; everything else must stay ``None``."""

    op: str
    at_ms: int = 0
    target: Optional[str] = None     # fault ops: symbolic target
    src: Optional[str] = None        # traffic_burst: sender endpoint
    dst: Optional[str] = None        # traffic_burst: receiver endpoint
    rate_pps: Optional[int] = None   # traffic_burst
    count: Optional[int] = None      # traffic_burst / flap_train
    src_port: Optional[int] = None   # traffic_burst flow selector
    via: Optional[str] = None        # traffic_burst: cross this link
    down_ms: Optional[int] = None    # flap_train down-window
    up_ms: Optional[int] = None      # flap_train up-window (default: down)
    duration_ms: Optional[int] = None  # pause
    label: Optional[str] = None      # measure checkpoint name
    profile: Optional[str] = None    # impair: preset name (see net.impairment)
    direction: Optional[str] = None  # impair: "tx" | "rx" | "both"
    loss: Optional[float] = None     # impair: independent loss probability
    corrupt: Optional[float] = None  # impair: bad-FCS probability
    duplicate: Optional[float] = None  # impair: duplication probability
    jitter_us: Optional[int] = None  # impair: reordering jitter bound
    ge_p: Optional[float] = None     # impair: Gilbert-Elliott P(good->bad)
    ge_r: Optional[float] = None     # impair: Gilbert-Elliott P(bad->good)
    ge_loss_bad: Optional[float] = None  # impair: loss prob in bad state
    workload: Optional[Any] = None   # workload: spec name or payload dict

    def __post_init__(self) -> None:
        if self.op not in _EVENT_FIELDS:
            raise ScenarioError(
                f"unknown scenario op {self.op!r}; known ops: "
                f"{', '.join(sorted(_EVENT_FIELDS))}")
        if not isinstance(self.at_ms, int) or self.at_ms < 0:
            raise ScenarioError(
                f"{self.op}: at_ms must be a non-negative integer, "
                f"got {self.at_ms!r}")
        required, optional = _EVENT_FIELDS[self.op]
        allowed = set(required) | set(optional)
        for name in required:
            if getattr(self, name) is None:
                raise ScenarioError(f"{self.op}: missing field {name!r}")
        for field in dataclasses.fields(self):
            if field.name in ("op", "at_ms"):
                continue
            if getattr(self, field.name) is not None and \
                    field.name not in allowed:
                raise ScenarioError(
                    f"{self.op}: field {field.name!r} is not valid for "
                    f"this op (allowed: {', '.join(sorted(allowed))})")
        for name in ("rate_pps", "count", "down_ms", "duration_ms"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int)
                                      or value <= 0):
                raise ScenarioError(
                    f"{self.op}: {name} must be a positive integer, "
                    f"got {value!r}")
        if self.up_ms is not None and (not isinstance(self.up_ms, int)
                                       or self.up_ms <= 0):
            raise ScenarioError(
                f"{self.op}: up_ms must be a positive integer, "
                f"got {self.up_ms!r}")
        if self.src_port is not None and self.via is not None:
            raise ScenarioError(
                f"{self.op}: src_port and via both select the flow; "
                f"set one")
        if self.direction is not None and self.direction not in DIRECTIONS:
            raise ScenarioError(
                f"{self.op}: direction must be one of "
                f"{', '.join(DIRECTIONS)}, got {self.direction!r}")
        if self.op == "impair":
            # validate the preset/field combination up front, before any
            # simulation time is spent (unknown preset, out-of-range
            # probability, or an all-default no-op all fail here)
            try:
                self.impairment_profile()
            except ValueError as exc:
                raise ScenarioError(f"impair: {exc}") from None
        if self.op == "workload":
            # validate and normalize eagerly: the stored form is always
            # the full resolved spec payload, so a preset name and its
            # expansion serialize (and cache-key) identically
            try:
                resolved = resolve_workload(self.workload)
            except WorkloadError as exc:
                raise ScenarioError(f"workload: {exc}") from None
            object.__setattr__(self, "workload", resolved.to_payload())

    def impairment_profile(self):
        """The validated :class:`~repro.net.impairment.ImpairmentProfile`
        this ``impair`` event describes."""
        return resolve_profile(
            self.profile, loss=self.loss, corrupt=self.corrupt,
            duplicate=self.duplicate, jitter_us=self.jitter_us,
            ge_p=self.ge_p, ge_r=self.ge_r, ge_loss_bad=self.ge_loss_bad)

    def workload_spec(self):
        """The resolved :class:`~repro.workload.spec.WorkloadSpec` this
        ``workload`` event carries."""
        return resolve_workload(self.workload)

    # ------------------------------------------------------------------
    def duration_ms_total(self) -> int:
        """How long past ``at_ms`` this event keeps the fabric busy —
        the measurement horizon must cover every event's tail."""
        if self.op == "flap_train":
            up = self.up_ms if self.up_ms is not None else self.down_ms
            return self.count * (self.down_ms + up)
        if self.op == "traffic_burst":
            gap_us = max(1_000_000 // self.rate_pps, 1)
            return -(-self.count * gap_us // 1000)  # ceil to whole ms
        if self.op == "pause":
            return self.duration_ms
        if self.op == "workload":
            return self.workload["duration_ms"]
        return 0

    def to_payload(self) -> dict:
        payload = {"op": self.op, "at_ms": self.at_ms}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name in ("op", "at_ms") or value is None:
                continue
            payload[field.name] = value
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ScenarioEvent":
        if not isinstance(payload, Mapping):
            raise ScenarioError(f"event must be an object, got {payload!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ScenarioError(
                f"event has unknown fields: {', '.join(sorted(unknown))}")
        if "op" not in payload:
            raise ScenarioError(f"event is missing 'op': {dict(payload)!r}")
        return cls(**payload)


@dataclass(frozen=True)
class Scenario:
    """A declarative fault/traffic experiment.

    ``settle`` controls how the converged fabric idles before the
    measurement starts: ``"keepalive-phase"`` draws a per-seed duration
    uniform in [0, 2 x keepalive interval] from the world's
    ``experiment-settle`` RNG stream (so a single-failure scenario lands
    at an arbitrary phase of the keepalive cycle, exactly as the paper's
    testbed runs did), while an integer is a fixed millisecond settle.
    ``quiet_ms``/``max_wait_ms`` are the update-quiesce measurement rule
    of section VI.B.  ``window_ms``, when set, replaces that rule: the
    run stops exactly ``window_ms`` after the horizon.  It is emitted
    only when set, so the payloads (and cache keys) of quiesce-rule
    scenarios do not mention it.
    """

    name: str
    description: str = ""
    settle: Union[str, int] = "keepalive-phase"
    quiet_ms: int = 1000
    max_wait_ms: int = 30_000
    events: tuple[ScenarioEvent, ...] = ()
    window_ms: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name or self.name.strip() != self.name:
            raise ScenarioError(f"invalid scenario name {self.name!r}")
        if isinstance(self.settle, bool) or not (
                self.settle == "keepalive-phase"
                or (isinstance(self.settle, int) and self.settle >= 0)):
            raise ScenarioError(
                f"settle must be 'keepalive-phase' or a non-negative "
                f"millisecond count, got {self.settle!r}")
        for field_name in ("quiet_ms", "max_wait_ms"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or value <= 0:
                raise ScenarioError(
                    f"{field_name} must be a positive integer, "
                    f"got {value!r}")
        if self.window_ms is not None and (
                isinstance(self.window_ms, bool)
                or not isinstance(self.window_ms, int)
                or self.window_ms < 0):
            raise ScenarioError(
                f"window_ms must be a non-negative integer, "
                f"got {self.window_ms!r}")
        object.__setattr__(self, "events", tuple(self.events))
        if not self.events:
            raise ScenarioError(f"scenario {self.name!r} has no events")
        previous = 0
        for event in self.events:
            if not isinstance(event, ScenarioEvent):
                raise ScenarioError(
                    f"scenario {self.name!r}: events must be "
                    f"ScenarioEvent instances, got {event!r}")
            if event.at_ms < previous:
                raise ScenarioError(
                    f"scenario {self.name!r}: events must be ordered by "
                    f"at_ms ({event.op} at {event.at_ms} ms follows "
                    f"{previous} ms)")
            previous = event.at_ms

    # ------------------------------------------------------------------
    def horizon_ms(self) -> int:
        """Offset of the last event activity: the measurement must not
        stop before every scheduled event (and its tail) has played."""
        return max(e.at_ms + e.duration_ms_total() for e in self.events)

    def symbolic_targets(self) -> tuple[str, ...]:
        """Every target expression, in first-use order (the order the
        resolver consumes RNG draws in)."""
        seen: list[str] = []
        for event in self.events:
            for expr in (event.target, event.src, event.dst):
                if expr is not None and expr not in seen:
                    seen.append(expr)
        return tuple(seen)

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        payload = {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "description": self.description,
            "settle": self.settle,
            "quiet_ms": self.quiet_ms,
            "max_wait_ms": self.max_wait_ms,
            "events": [e.to_payload() for e in self.events],
        }
        if self.window_ms is not None:
            payload["window_ms"] = self.window_ms
        return payload

    def to_json(self) -> str:
        """Canonical JSON: the form that is cached, hashed and diffed."""
        return canonical_json(self.to_payload())

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Scenario":
        if not isinstance(payload, Mapping):
            raise ScenarioError(f"scenario must be an object, got {payload!r}")
        schema = payload.get("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ScenarioError(
                f"unsupported scenario schema {schema!r} "
                f"(this build reads schema {SCENARIO_SCHEMA})")
        known = {"schema", "name", "description", "settle", "quiet_ms",
                 "max_wait_ms", "events", "window_ms"}
        unknown = set(payload) - known
        if unknown:
            raise ScenarioError(
                f"scenario has unknown fields: {', '.join(sorted(unknown))}")
        if "name" not in payload or "events" not in payload:
            raise ScenarioError("scenario requires 'name' and 'events'")
        if not isinstance(payload["events"], (list, tuple)):
            raise ScenarioError("'events' must be a list")
        kwargs: dict[str, Any] = {
            "name": payload["name"],
            "events": tuple(ScenarioEvent.from_payload(e)
                            for e in payload["events"]),
        }
        for field_name in ("description", "settle", "quiet_ms",
                           "max_wait_ms", "window_ms"):
            if field_name in payload:
                kwargs[field_name] = payload[field_name]
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
        return cls.from_payload(payload)
