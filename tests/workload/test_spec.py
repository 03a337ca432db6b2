"""WorkloadSpec validation, canonical payloads and resolution."""

from __future__ import annotations

import dataclasses

import pytest

from repro.workload.spec import (
    CANONICAL_WORKLOADS,
    MATRIX_KINDS,
    WORKLOAD_SCHEMA,
    WorkloadError,
    WorkloadSpec,
    canonical_workloads,
    get_workload,
    resolve_workload,
)


def test_defaults_are_valid():
    spec = WorkloadSpec(name="w")
    assert spec.matrix == "permutation"
    assert spec.flows == 10_000


@pytest.mark.parametrize("bad", [
    dict(name=""),
    dict(name=" padded "),
    dict(name="w", matrix="bimodal"),
    dict(name="w", flows=0),
    dict(name="w", flows=2.5),
    dict(name="w", flows=True),
    dict(name="w", duration_ms=-1),
    dict(name="w", tenants=0),
    dict(name="w", tenants=257),
    dict(name="w", elephant_fraction=1.5),
    dict(name="w", hotspot_fraction=0.0),
    dict(name="w", incast_fanin=1),
    dict(name="w", epoch_ms=0),
    dict(name="w", flows=2**31),
])
def test_validation_rejects(bad):
    with pytest.raises(WorkloadError):
        WorkloadSpec(**bad)


def test_a_flow_count_past_int32_is_rejected_where_it_is_parsed():
    """Flow ids are int32 throughout the fluid path: a scenario file
    asking for more must fail as a typed spec error, before synthesis
    allocates anything."""
    assert WorkloadSpec(name="w", flows=2**31 - 1).flows == 2**31 - 1
    for flows in (2**31, 3_000_000_000):
        with pytest.raises(WorkloadError, match="flows must be <="):
            WorkloadSpec(name="w", flows=flows)
        with pytest.raises(WorkloadError, match="flows must be <="):
            WorkloadSpec.from_payload({"name": "w", "flows": flows})
        with pytest.raises(WorkloadError, match="flows must be <="):
            resolve_workload({"name": "w", "flows": flows})


def test_payload_roundtrip_every_canonical():
    for spec in CANONICAL_WORKLOADS:
        payload = spec.to_payload()
        assert payload["schema"] == WORKLOAD_SCHEMA
        assert WorkloadSpec.from_payload(payload) == spec


def test_canonical_json_is_stable():
    a = WorkloadSpec(name="w", flows=7).to_json()
    b = WorkloadSpec(name="w", flows=7).to_json()
    assert a == b
    assert a != WorkloadSpec(name="w", flows=8).to_json()


def test_from_payload_rejects_unknown_fields_and_schema():
    with pytest.raises(WorkloadError, match="unknown fields"):
        WorkloadSpec.from_payload({"name": "w", "pps": 100})
    with pytest.raises(WorkloadError, match="schema"):
        WorkloadSpec.from_payload(
            {"name": "w", "schema": WORKLOAD_SCHEMA + 1})
    with pytest.raises(WorkloadError, match="requires 'name'"):
        WorkloadSpec.from_payload({"flows": 10})
    with pytest.raises(WorkloadError):
        WorkloadSpec.from_payload("permutation-as-string")  # type: ignore


def test_resolve_workload_accepts_all_spellings():
    spec = get_workload("incast")
    assert resolve_workload("incast") is spec
    assert resolve_workload(spec) is spec
    assert resolve_workload(spec.to_payload()) == spec
    with pytest.raises(WorkloadError, match="unknown workload"):
        resolve_workload("tsunami")
    with pytest.raises(WorkloadError):
        resolve_workload(42)  # type: ignore


def test_library_covers_every_matrix_kind():
    library = canonical_workloads()
    assert set(library) == {"permutation", "uniform", "hotspot",
                            "incast", "all-to-all"}
    assert {spec.matrix for spec in library.values()} == set(MATRIX_KINDS)


def test_epoch_ms_is_part_of_the_cache_identity():
    """epoch_ms quantizes blackhole windows, so two specs differing only
    in it must serialize differently (distinct cache keys)."""
    base = WorkloadSpec(name="w")
    tight = dataclasses.replace(base, epoch_ms=5)
    assert base.to_json() != tight.to_json()
