"""Topology plugins: buildable data-center fabric families.

The package is organized like :mod:`repro.stacks`: a
:class:`~repro.topology.base.Topology` protocol plus registry
(``register_topology`` / ``get_topology`` / ``available_topologies``),
with every fabric — including the paper's folded-Clos — shipped as a
registered plugin.  Harness, scenario and CLI layers select fabrics via
:class:`TopologySpec` (registry name + canonical params, the unit cache
keys derive from) and construct them through :func:`build_topology`;
they never import a concrete builder.

Built-ins (see :mod:`repro.topology.builtin`): ``clos`` (plugin zero,
the paper's fabric), ``vl2``, ``dcell``.
"""

from repro.topology.base import (
    FIRST_TOR_VID,
    TIER_AGG,
    TIER_SERVER,
    TIER_SUPER,
    TIER_TOP,
    TIER_TOR,
    BaseTopology,
    FailureCase,
    Topology,
    TopologyDefinition,
    TopologyError,
    TopologySpec,
    DEFAULT_TOPOLOGY,
    UnknownTopologyError,
    available_topologies,
    build_topology,
    get_topology,
    register_topology,
    resolve_topology_spec,
    unregister_topology,
)
from repro.registry import canonical_params
from repro.topology.clos import (
    ClosParams,
    ClosTopology,
    build_folded_clos,
    two_pod_params,
    four_pod_params,
)
from repro.topology.validate import validate_topology

import repro.topology.builtin  # noqa: F401  (registers clos/vl2/dcell)

__all__ = [
    # protocol + spec + registry
    "Topology",
    "TopologySpec",
    "TopologyDefinition",
    "TopologyError",
    "BaseTopology",
    "FailureCase",
    "canonical_params",
    "DEFAULT_TOPOLOGY",
    "UnknownTopologyError",
    "register_topology",
    "unregister_topology",
    "get_topology",
    "available_topologies",
    "resolve_topology_spec",
    "build_topology",
    # tier constants
    "TIER_SERVER", "TIER_TOR", "TIER_AGG", "TIER_TOP", "TIER_SUPER",
    "FIRST_TOR_VID",
    # plugin zero's concrete names (legacy; only repro.topology may
    # import the classes directly — see tests/topology/test_lint.py)
    "ClosParams",
    "ClosTopology",
    "build_folded_clos",
    "two_pod_params",
    "four_pod_params",
    "validate_topology",
]
