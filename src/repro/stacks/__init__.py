"""Stack plugins: registry-driven protocol deployments.

Every stack is one row of :data:`STACK_TABLE` over one of two protocol
families (:mod:`repro.stacks.mtp`, :mod:`repro.stacks.bgp`); importing
this package registers the nine rows in order.  The harness, sweep,
cache and CLI all select stacks through :func:`resolve_spec` /
:func:`get_stack`; to add a stack, call :func:`register_stack` with a
:class:`StackDefinition` — no harness changes required (see README,
"Writing a stack plugin").
"""

from repro.registry import canonical_params
from repro.stacks import bgp, mtp
from repro.stacks.base import (
    ConfigCost,
    Deployment,
    StackDefinition,
    StackSpec,
    StackTimers,
    TableStats,
    UnknownStackError,
    available_stacks,
    get_stack,
    register_stack,
    resolve_spec,
    unregister_stack,
)

#: (name, display, description, family, default params), in listing order
STACK_TABLE = (
    ("mtp", "MR-MTP",
     "multi-root meshed-tree protocol, the paper's proposal",
     mtp, {}),
    ("bgp", "BGP/ECMP",
     "RFC 7938 eBGP with ECMP multipath, the paper's baseline",
     bgp, {}),
    ("bgp-bfd", "BGP/ECMP/BFD",
     "the BGP baseline with RFC 5880 async-mode BFD detection",
     bgp, {"bfd": True}),
    ("mtp-spray", "MR-MTP (per-packet spray)",
     "MR-MTP with round-robin per-packet spraying on the hashed-up paths "
     "instead of flow-sticky ECMP",
     mtp, {"per_packet_spray": True}),
    ("bgp-nomultipath", "BGP (single path)",
     "the BGP baseline with ECMP multipath disabled — one best path per "
     "prefix, the pre-RFC7938 ablation",
     bgp, {"multipath": False}),
    ("mtp-adaptive", "MR-MTP (adaptive liveness)",
     "MR-MTP with the adaptive liveness layer: loss-aware dead-timer "
     "widening, flap damping, and gray-failure depreference of degraded "
     "ports",
     mtp, {"liveness": True}),
    ("bgp-gr", "BGP/ECMP/BFD (graceful restart)",
     "the BGP+BFD stack with RFC 4724 graceful restart: helpers hold a "
     "restarting peer's paths stale under the restart timer, a restarting "
     "speaker keeps its FIB and re-learns, flushing on End-of-RIB",
     bgp, {"bfd": True, "graceful_restart": True}),
    ("mtp-gr", "MR-MTP (graceful restart)",
     "MR-MTP with graceful restart: helpers hold a silent neighbor's tree "
     "state stale instead of pruning, and a restarting agent keeps its VID "
     "table while neighbor re-hellos rebuild and confirm it",
     mtp, {"graceful_restart": True}),
    ("bgp-bfd-damped", "BGP/ECMP/BFD (damped)",
     "the BGP+BFD stack with the adaptive liveness layer: loss-aware BFD "
     "detection widening, session flap damping, and ECMP depreference of "
     "degraded next hops",
     bgp, {"bfd": True, "liveness": True}),
)

for _row in STACK_TABLE:
    register_stack(StackDefinition(*_row))
del _row

__all__ = [
    "ConfigCost",
    "Deployment",
    "STACK_TABLE",
    "StackDefinition",
    "StackSpec",
    "StackTimers",
    "TableStats",
    "UnknownStackError",
    "available_stacks",
    "canonical_params",
    "get_stack",
    "register_stack",
    "resolve_spec",
    "unregister_stack",
]
