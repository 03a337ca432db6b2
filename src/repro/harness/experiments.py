"""Experiment drivers: one call = one paper measurement.

Each run gets a :class:`World` of its own (the "reserve a new slice"
analogue) with a registered protocol stack converged from cold on it —
built on the spot, or, inside a campaign, inherited copy-on-write by a
forked child of the process that converged it (DESIGN §7).  The runs that
inject a fault and measure the reaction — the failure experiment of
Figs. 4-6 and the packet-loss experiment of Figs. 7/8 — are scenario
programs (:mod:`repro.scenario.runner`); this module holds the
converged-world factory they share and the steady-state measurements
(keepalive overhead, configuration cost, table sizes).

Stacks are selected through :mod:`repro.stacks` — a registry name
(``"mtp"``, ``"bgp-bfd"``, ``"mtp-spray"``...), a prepared
:class:`~repro.stacks.StackSpec` or a definition all work; nothing in
this module branches on which stack is running, so registering a new
stack makes every driver here handle it.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Optional

from repro.sim.units import SECOND
from repro.net.world import World
from repro.topology import build_topology, resolve_topology_spec
from repro.stacks import (
    StackSpec,
    StackTimers,
    get_stack,
    resolve_spec,
)
from repro.harness.cache import task_key
from repro.harness.convergence import converge_from_cold
from repro.harness.metrics import KeepaliveBreakdown, keepalive_overhead
from repro.net.capture import Capture

__all__ = [
    "StackSpec",
    "StackTimers",
    "ConfigCostResult",
    "TableSizeResult",
    "build_and_converge",
    "world_key",
    "detection_bound_us",
    "stale_hold_us",
    "run_keepalive_experiment",
    "run_config_cost_experiment",
    "run_table_size_experiment",
]


def build_and_converge(
    params,
    stack,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    trace_enabled: bool = True,
    max_converge_us: int = 60 * SECOND,
):
    """A private world + topology + converged deployment of any
    registered stack (name, spec or definition).

    ``params`` selects the fabric in any spelling the topology registry
    resolves — a :class:`~repro.topology.TopologySpec`, a registry name,
    a legacy params dataclass, or ``None`` for the default folded-Clos.

    Automatic cyclic collection is paused for the build and converge —
    they make almost no cyclic garbage, and every full pass would walk
    the growing world — and the collector is left as found.  No
    collection runs on entry: a test session calls this hundreds of
    times with dozens of worlds alive, and a full pass each time cost
    more than the pause saves.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        spec = resolve_spec(stack, timers)
        world = World(seed=seed, trace_enabled=trace_enabled)
        topo = build_topology(params, world=world)
        deployment = get_stack(spec.name).build(topo, spec)
        deployment.start()
        converge_from_cold(world, deployment, max_time_us=max_converge_us)
    finally:
        if enabled:
            gc.enable()
    return world, topo, deployment


def world_key(params, spec: StackSpec, seed: int, trace_enabled: bool = True,
              max_converge_us: int = 60 * SECOND) -> str:
    """Content hash of :func:`build_and_converge`'s inputs (the world
    part of every result-cache key), defaulted as it defaults them: two
    tasks with equal keys can run on one converged world."""
    return task_key("converged-world",
                    params=resolve_topology_spec(params), stack=spec.name,
                    stack_params=spec.params, timers=spec.timers, seed=seed,
                    trace_enabled=trace_enabled,
                    max_converge_us=max_converge_us)


def detection_bound_us(stack, timers: Optional[StackTimers] = None) -> int:
    """Upper bound on failure-detection latency: the far end of a
    one-sided failure reacts only after this long.  The deployed stack's
    :meth:`~repro.stacks.Deployment.detection_bound_us`, known before
    deploying."""
    spec = resolve_spec(stack, timers)
    return get_stack(spec.name).family.detection_bound_us(
        spec.timers, spec.params_dict())


def stale_hold_us(stack, timers: Optional[StackTimers] = None) -> int:
    """How long past detection a graceful-restart stack still forwards
    on a failed neighbor's stale state (0 without graceful restart)."""
    spec = resolve_spec(stack, timers)
    return get_stack(spec.name).family.stale_hold_us(
        spec.timers, spec.params_dict())


# ----------------------------------------------------------------------
# keepalive overhead (Figs. 9 and 10)
# ----------------------------------------------------------------------
def run_keepalive_experiment(
    params,
    stack,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
    window_us: int = 5 * SECOND,
) -> KeepaliveBreakdown:
    """Steady-state liveness traffic on the first ToR-agg link: a
    converged, idle fabric observed through a capture for ``window_us``
    (the paper's Wireshark methodology in section VII.F)."""
    world, topo, deployment = build_and_converge(params, stack, seed, timers)
    link = world.find_link(topo.tors[0][0][0], topo.aggs[0][0][0])
    capture = Capture()
    capture.attach((link.end_a, link.end_b))
    since = world.sim.now
    world.run_for(window_us)
    return keepalive_overhead(capture, since=since, until=world.sim.now)


# ----------------------------------------------------------------------
# configuration cost (Listings 1 and 2)
# ----------------------------------------------------------------------
@dataclass
class ConfigCostResult:
    stack: str
    routers: int
    total_lines: int
    documents: int  # config artifacts an operator maintains

    @property
    def lines_per_router(self) -> float:
        return self.total_lines / self.routers if self.routers else 0.0


def run_config_cost_experiment(
    params,
    stack,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
) -> ConfigCostResult:
    """Count the configuration an operator writes: per-router FRR configs
    for BGP (Listing 1) vs one fabric-wide JSON for MR-MTP (Listing 2)."""
    spec = resolve_spec(stack, timers)
    world, topo, deployment = build_and_converge(
        params, spec, seed, trace_enabled=False,
        max_converge_us=120 * SECOND,
    )
    cost = deployment.config_cost()
    return ConfigCostResult(stack=spec.name, routers=len(topo.routers()),
                            total_lines=cost.total_lines,
                            documents=cost.documents)


# ----------------------------------------------------------------------
# routing-table size (Listings 3 and 5)
# ----------------------------------------------------------------------
@dataclass
class TableSizeResult:
    stack: str
    node: str
    entries: int
    memory_bytes: int
    rendered: str


def run_table_size_experiment(
    params,
    stack,
    seed: int = 0,
    timers: Optional[StackTimers] = None,
) -> dict[str, TableSizeResult]:
    """Converged forwarding state at one agg and one top spine — the
    comparison behind the paper's Listings 3 and 5."""
    spec = resolve_spec(stack, timers)
    world, topo, deployment = build_and_converge(params, spec, seed)
    results = {}
    roles = [("agg", topo.aggs[0][0][0])]
    if topo.all_tops():  # recursively-defined fabrics have no top tier
        roles.append(("top", topo.tops[0][0][0]))
    roles.append(("tor", topo.tors[0][0][0]))
    for role, node_name in roles:
        stats = deployment.table_stats(node_name)
        results[role] = TableSizeResult(
            stack=spec.name, node=node_name, entries=stats.entries,
            memory_bytes=stats.memory_bytes, rendered=stats.rendered,
        )
    return results
