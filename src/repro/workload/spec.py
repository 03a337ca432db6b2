"""Workload specifications: datacenter traffic matrices as frozen data.

A :class:`WorkloadSpec` describes *what* load a fabric carries — the
matrix shape (permutation / hotspot / incast / all-to-all / uniform),
the elephant-mice flow-size mix, and per-tenant Poisson arrival
processes — without naming any concrete host: expansion against a built
topology's rack endpoints happens in :mod:`repro.workload.synth`, from
dedicated RNG streams, so the same spec is meaningful on a 2-PoD Clos,
a VL2 fabric or a recursive DCell.

Specs are pure data with a canonical JSON form (sorted keys, schema
version embedded), so they flow through the content-addressed result
cache and the scenario engine exactly like scenarios and topology specs
do: the spec payload *is* the cache-key component.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping, Union

from repro.harness.digest import canonical_json

# Bump when the spec payload or the synthesis semantics change: the
# schema number is embedded in every serialized spec and so in every
# cache key a workload participates in.
WORKLOAD_SCHEMA = 1

#: the matrix families the synthesizer expands (FatPaths' evaluation set)
MATRIX_KINDS = ("permutation", "hotspot", "incast", "all-to-all",
                "uniform")


class WorkloadError(ValueError):
    """A structurally invalid workload spec."""


@dataclass(frozen=True)
class WorkloadSpec:
    """One traffic workload, fully described and cache-keyable.

    ``flows`` flows arrive over ``duration_ms`` as the superposition of
    ``tenants`` independent Poisson processes (each tenant's arrivals
    are a Poisson process conditioned on its flow count).  Sizes are an
    elephant-mice mix: a flow is an elephant with probability
    ``elephant_fraction``, and either class's size is its base byte
    count jittered by a factor drawn log-uniform in [1/2, 2].

    ``epoch_ms`` is the fluid evaluator's re-solve cadence under route
    change (see :mod:`repro.workload.engine`); it is part of the spec —
    and so of the cache key — because it quantizes every reported
    blackhole window.
    """

    name: str
    matrix: str = "permutation"
    flows: int = 10_000
    duration_ms: int = 1_000
    tenants: int = 4
    elephant_fraction: float = 0.1
    mice_bytes: int = 20_000
    elephant_bytes: int = 10_000_000
    hotspot_fraction: float = 0.5   # hotspot: share of flows into the hot rack
    incast_fanin: int = 16          # incast: synchronized senders per sink
    epoch_ms: int = 25              # fluid re-solve cadence under route change
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or self.name.strip() != self.name:
            raise WorkloadError(f"invalid workload name {self.name!r}")
        if self.matrix not in MATRIX_KINDS:
            raise WorkloadError(
                f"unknown matrix kind {self.matrix!r}; known kinds: "
                f"{', '.join(MATRIX_KINDS)}")
        for field_name in ("flows", "duration_ms", "tenants",
                           "mice_bytes", "elephant_bytes", "incast_fanin",
                           "epoch_ms"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value <= 0:
                raise WorkloadError(
                    f"{self.name}: {field_name} must be a positive "
                    f"integer, got {value!r}")
        if self.flows > 2**31 - 1:
            raise WorkloadError(
                f"{self.name}: flows must be <= {2**31 - 1} (flow ids are "
                f"32-bit), got {self.flows}")
        if self.tenants > 256:
            raise WorkloadError(
                f"{self.name}: tenants must be <= 256, got {self.tenants}")
        if self.incast_fanin < 2:
            raise WorkloadError(
                f"{self.name}: incast_fanin must be >= 2, "
                f"got {self.incast_fanin}")
        if not 0.0 <= self.elephant_fraction <= 1.0:
            raise WorkloadError(
                f"{self.name}: elephant_fraction must be in [0, 1], "
                f"got {self.elephant_fraction!r}")
        if not 0.0 < self.hotspot_fraction <= 1.0:
            raise WorkloadError(
                f"{self.name}: hotspot_fraction must be in (0, 1], "
                f"got {self.hotspot_fraction!r}")

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        payload: dict[str, Any] = {"schema": WORKLOAD_SCHEMA}
        for field in dataclasses.fields(self):
            payload[field.name] = getattr(self, field.name)
        return payload

    def to_json(self) -> str:
        """Canonical JSON: the form that is cached, hashed and diffed."""
        return canonical_json(self.to_payload())

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "WorkloadSpec":
        if not isinstance(payload, Mapping):
            raise WorkloadError(
                f"workload must be an object, got {payload!r}")
        schema = payload.get("schema", WORKLOAD_SCHEMA)
        if schema != WORKLOAD_SCHEMA:
            raise WorkloadError(
                f"unsupported workload schema {schema!r} "
                f"(this build reads schema {WORKLOAD_SCHEMA})")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known - {"schema"}
        if unknown:
            raise WorkloadError(
                f"workload has unknown fields: {', '.join(sorted(unknown))}")
        if "name" not in payload:
            raise WorkloadError("workload requires 'name'")
        return cls(**{k: v for k, v in payload.items() if k != "schema"})


# ----------------------------------------------------------------------
# the canonical workload library
# ----------------------------------------------------------------------
PERMUTATION = WorkloadSpec(
    name="permutation", matrix="permutation",
    description="each rack sends to exactly one other rack (a random "
                "rack cycle) — the classic bisection stress test")

UNIFORM = WorkloadSpec(
    name="uniform", matrix="uniform",
    description="source and destination racks drawn uniformly — the "
                "baseline all-fabric shuffle")

HOTSPOT = WorkloadSpec(
    name="hotspot", matrix="hotspot",
    description="half the flows converge on one hot rack, the rest "
                "stay uniform — a popular-shard traffic skew")

INCAST = WorkloadSpec(
    name="incast", matrix="incast", elephant_fraction=0.02,
    description="synchronized fan-in: groups of senders start together "
                "toward one sink server (partition-aggregate)")

ALL_TO_ALL = WorkloadSpec(
    name="all-to-all", matrix="all-to-all",
    description="every ordered rack pair carries flows round-robin — "
                "the MapReduce shuffle matrix")

CANONICAL_WORKLOADS = (PERMUTATION, UNIFORM, HOTSPOT, INCAST, ALL_TO_ALL)


def canonical_workloads() -> dict[str, WorkloadSpec]:
    """name -> spec, in library order."""
    return {spec.name: spec for spec in CANONICAL_WORKLOADS}


def get_workload(name: str) -> WorkloadSpec:
    library = canonical_workloads()
    if name not in library:
        raise WorkloadError(
            f"unknown workload {name!r}; canonical library: "
            f"{', '.join(library)}")
    return library[name]


def resolve_workload(
        value: Union[str, Mapping[str, Any], WorkloadSpec]) -> WorkloadSpec:
    """A spec from any accepted spelling: a library name, a payload
    mapping, or a spec itself (the scenario engine's ``workload`` event
    field accepts the first two)."""
    if isinstance(value, WorkloadSpec):
        return value
    if isinstance(value, str):
        return get_workload(value)
    if isinstance(value, Mapping):
        return WorkloadSpec.from_payload(value)
    raise WorkloadError(
        f"workload must be a library name or a spec object, got {value!r}")
