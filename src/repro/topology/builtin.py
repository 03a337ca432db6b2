"""Built-in topology plugins, registered at import time.

* ``clos`` — the paper's folded-Clos, plugin zero: the fabric every
  golden figure reproduces on.
* ``vl2`` — Clos-like with distinct wiring: aggregation pairs plus a
  complete agg-intermediate bipartite (the valiant-spread substrate).
* ``dcell`` — a recursively-defined DCell/FiConn-style DCN: complete
  graphs of cells (and of groups) joined by same-tier proxy links.

Each registration is a plain :class:`TopologyDefinition`; nothing here
imports harness, scenario or CLI code, so a third registration never
needs those layers touched either.
"""

from __future__ import annotations

from typing import Optional

from repro.net.world import World
from repro.topology.base import TopologyDefinition, register_topology
from repro.topology.clos import ClosParams, ClosTopology, build_folded_clos
from repro.topology.dcell import DCELL_DEFAULT_PARAMS, build_dcell
from repro.topology.vl2 import VL2_DEFAULT_PARAMS, build_vl2

#: the nine ClosParams fields, defaults included — kept in lockstep with
#: the dataclass by test_registry's round-trip check
CLOS_DEFAULT_PARAMS = {
    f.name: f.default for f in ClosParams.__dataclass_fields__.values()
}


def _build_clos(world: Optional[World] = None, seed: int = 0,
                **params) -> ClosTopology:
    return build_folded_clos(ClosParams(**params), world=world, seed=seed)


CLOS = register_topology(TopologyDefinition(
    name="clos",
    display="folded-Clos",
    build=_build_clos,
    description=(
        "The paper's folded-Clos: PoDs of ToRs + aggregations, plane-"
        "restricted tops, optional multi-zone super-spine tier."
    ),
    default_params=CLOS_DEFAULT_PARAMS,
))

VL2 = register_topology(TopologyDefinition(
    name="vl2",
    display="VL2",
    build=build_vl2,
    description=(
        "VL2 (SIGCOMM 2009): ToRs dual-homed to aggregation pairs, every "
        "aggregation wired to every intermediate (valiant spread)."
    ),
    default_params=VL2_DEFAULT_PARAMS,
))

DCELL = register_topology(TopologyDefinition(
    name="dcell",
    display="recursive DCell-style DCN",
    build=build_dcell,
    description=(
        "Recursively-defined DCN: complete ToR-proxy bipartite cells "
        "joined into complete graphs by same-tier cross links; no top "
        "tier, so strict up/down routing assumptions break here."
    ),
    default_params=DCELL_DEFAULT_PARAMS,
))
