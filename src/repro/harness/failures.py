"""Failure injection: the fault vocabulary and the injector that plays it.

The analogue of the paper's remote bash script that "would bring down an
interface and record the time of this event at the node" — the recorded
time is the convergence-calculation start (section VI.B).

:data:`FAULT_OPS` is the one definition of the fault ops, keyed by the
scenario's op names.  A row says what the op targets (the
:class:`~repro.scenario.targets.TargetResolver` method that resolves
it), how the target is checked up front, what the injector does, whether
the op opens an outage and which op undoes it.
:meth:`FailureInjector.inject` plays any row: checked when called,
applied then or at an absolute time.  The scenario compiler and the
fabric machine name faults only through this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from repro.net.impairment import (
    DIRECTIONS,
    ImpairmentProfile,
    rng_stream_name,
)
from repro.net.world import World
from repro.sim.units import MILLISECOND


class UnknownTargetError(KeyError):
    """A failure/restore names a node or interface that does not exist.

    Raised up front, at scheduling time — a bare ``KeyError`` escaping
    from :class:`World` mid-simulation would otherwise surface long
    after the bad call, with no hint which injection caused it.
    Subclasses ``KeyError`` so existing callers that caught the raw
    lookup error keep working.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class InjectedFailure:
    node: str
    interface: str
    time: int
    kind: str  # "down" | "up" | "impair" | "clear"


class FailureInjector:
    def __init__(self, world: World, deployment=None) -> None:
        self.world = world
        self.deployment = deployment
        self.events: list[InjectedFailure] = []
        self._crashed_agents: set[str] = set()
        self._down_nodes: set[str] = set()

    def inject(self, op: str, *args, at: Optional[int] = None) -> None:
        """Fault op ``op`` (a :data:`FAULT_OPS` row) on ``args``: its
        target, then its extra arguments.  The target is checked now;
        the fault lands now or at absolute time ``at``."""
        row = FAULT_OPS[op]
        row.check(self, *args)
        if row.compound:
            row.act(self, *args, at=at)
        elif at is None:
            row.act(self, *args)
        else:
            self.world.sim.schedule_at(at, row.act, self, *args)

    # ------------------------------------------------------------------
    # the named calls: one row each
    # ------------------------------------------------------------------
    def fail_interface(self, node_name: str, iface_name: str,
                       at: Optional[int] = None) -> None:
        """Bring the interface down now or at absolute time ``at``."""
        self.inject("iface_down", node_name, iface_name, at=at)

    def restore_interface(self, node_name: str, iface_name: str,
                          at: Optional[int] = None) -> None:
        self.inject("iface_up", node_name, iface_name, at=at)

    def flap_interface(self, node_name: str, iface_name: str,
                       period_us: int, count: int,
                       start_at: Optional[int] = None,
                       up_period_us: Optional[int] = None) -> None:
        """Toggle an interface down/up ``count`` times — the flapping
        workload for the Slow-to-Accept ablation.  ``period_us`` is the
        down-window; ``up_period_us`` (default: the same) the up-window."""
        self.inject("flap_train", node_name, iface_name, period_us, count,
                    up_period_us, at=start_at)

    def impair_link(self, node_name: str, iface_name: str,
                    profile: ImpairmentProfile, direction: str = "both",
                    at: Optional[int] = None) -> None:
        """Attach an impairment profile to the link behind
        ``node:iface``.  ``direction`` is from that interface's point of
        view: ``"tx"`` degrades frames it sends, ``"rx"`` frames it
        receives, ``"both"`` a symmetric gray link.  Each impaired
        direction draws from its own named RNG stream
        (``impair:<sender>``), so injection order never perturbs any
        other stream."""
        self.inject("impair", node_name, iface_name, direction, profile,
                    at=at)

    def clear_impairment(self, node_name: str, iface_name: str,
                         direction: str = "both",
                         at: Optional[int] = None) -> None:
        self.inject("clear_impairment", node_name, iface_name, direction,
                    at=at)

    def crash_agent(self, node_name: str, at: Optional[int] = None) -> None:
        """Kill the node's routing agent.  The data plane keeps
        forwarding on the frozen tables (headless forwarding); peers
        find out through their own liveness timers."""
        self.inject("agent_crash", node_name, at=at)

    def restart_agent(self, node_name: str, at: Optional[int] = None,
                      cold: Optional[bool] = None) -> None:
        """Bring the agent back.  ``cold=None`` follows the stack's
        configured restart mode (graceful when the stack supports it)."""
        self.inject("agent_restart", node_name, cold, at=at)

    def fail_node(self, node_name: str, at: Optional[int] = None,
                  crash_agent: bool = True) -> None:
        """Whole-device power loss: the routing agent dies with the
        power, then every interface drops at once.  One ``fail.node``
        trace record covers the outage (not N per-link episodes); the
        per-interface ``InjectedFailure`` events still feed the
        fault-window accounting.  ``crash_agent=False`` isolates the
        node instead: every interface drops and the agent lives on."""
        self.inject("node_crash" if crash_agent else "isolate", node_name,
                    at=at)

    def restore_node(self, node_name: str, at: Optional[int] = None) -> None:
        """Power the device back on: interfaces come up, then the agent
        cold-boots — protocol *and* forwarding state start empty."""
        self.inject("node_restart", node_name, at=at)

    def cut_link(self, node_a: str, node_b: str,
                 at: Optional[int] = None) -> None:
        """Bidirectional link cut: both ends lose their interface (a
        fiber cut rather than the paper's one-sided admin-down)."""
        self.inject("link_cut", node_a, node_b, at=at)

    def restore_link(self, node_a: str, node_b: str,
                     at: Optional[int] = None) -> None:
        self.inject("link_restore", node_a, node_b, at=at)

    def last_failure_time(self) -> int:
        downs = [e.time for e in self.events if e.kind == "down"]
        if not downs:
            raise ValueError("no failure injected yet")
        return downs[-1]

    # ------------------------------------------------------------------
    # up-front checks
    # ------------------------------------------------------------------
    def _checked_node(self, node_name: str, *_):
        node = self.world.nodes.get(node_name)
        if node is None:
            raise UnknownTargetError(
                f"unknown node {node_name!r}; the world has: "
                f"{', '.join(sorted(self.world.nodes)) or '(none)'}")
        return node

    def _check_target(self, node_name: str, iface_name: str, *_) -> None:
        node = self._checked_node(node_name)
        if iface_name not in node.interfaces:
            raise UnknownTargetError(
                f"node {node_name} has no interface {iface_name!r}; "
                f"has: {', '.join(node.interfaces) or '(none)'}")

    def _check_link(self, node_a: str, node_b: str) -> None:
        if self.world.find_link(node_a, node_b) is None:
            raise UnknownTargetError(
                f"no link between {node_a} and {node_b}")

    def _check_agent(self, node_name: str, *_) -> None:
        self._checked_node(node_name)
        if self.deployment is None:
            raise ValueError(
                "agent crash/restart requires a FailureInjector bound to "
                "a deployment: FailureInjector(world, deployment)")

    def _check_gray(self, node_name: str, iface_name: str,
                    direction: str = "both", *_) -> None:
        self._check_target(node_name, iface_name)
        if self.world.nodes[node_name].interfaces[iface_name].link is None:
            raise UnknownTargetError(
                f"{node_name}:{iface_name} is not cabled; cannot impair "
                f"an unconnected interface")
        if direction not in DIRECTIONS:
            raise ValueError(
                f"direction must be one of {', '.join(DIRECTIONS)}, "
                f"got {direction!r}")

    # ------------------------------------------------------------------
    # the faults, at their instants
    # ------------------------------------------------------------------
    def _do(self, node_name: str, iface_name: str, up: bool) -> None:
        node = self.world.nodes[node_name]
        event = InjectedFailure(node=node_name, interface=iface_name,
                                time=self.world.sim.now,
                                kind="up" if up else "down")
        self.events.append(event)
        self.world.trace.emit(node_name, "fail.inject",
                              f"{iface_name} {'up' if up else 'down'}")
        node.interfaces[iface_name].set_admin(up)

    def _senders(self, node_name: str, iface_name: str, direction: str):
        iface = self.world.nodes[node_name].interfaces[iface_name]
        peer = iface.link.other_end(iface)
        if direction == "tx":
            return [iface]
        if direction == "rx":
            return [peer]
        return [iface, peer]

    def _do_impair(self, node_name: str, iface_name: str, direction: str,
                   profile: ImpairmentProfile) -> None:
        for sender in self._senders(node_name, iface_name, direction):
            rng = self.world.rng.stream(rng_stream_name(sender.full_name))
            sender.link.set_impairment(sender, profile, rng)
        self.events.append(InjectedFailure(
            node=node_name, interface=iface_name,
            time=self.world.sim.now, kind="impair"))
        self.world.trace.emit(node_name, "fail.impair",
                              f"{iface_name} impaired ({direction})",
                              **profile.to_payload())

    def _do_clear(self, node_name: str, iface_name: str,
                  direction: str = "both") -> None:
        for sender in self._senders(node_name, iface_name, direction):
            sender.link.clear_impairment(sender)
        self.events.append(InjectedFailure(
            node=node_name, interface=iface_name,
            time=self.world.sim.now, kind="clear"))
        self.world.trace.emit(node_name, "fail.impair",
                              f"{iface_name} cleared ({direction})")
        # tell both endpoints the link is repaired, whichever direction
        # was impaired: liveness layers drop damping penalties built up
        # against the fault so the link re-converges without a stale
        # suppression window
        iface = self.world.nodes[node_name].interfaces[iface_name]
        peer = iface.link.other_end(iface)
        iface.node.impairment_cleared(iface)
        peer.node.impairment_cleared(peer)

    def _do_agent(self, node_name: str, cold: Optional[bool] = None,
                  up: bool = True) -> None:
        crashed = node_name in self._crashed_agents
        if up != crashed or (up and node_name in self._down_nodes):
            # validated no-op: restarting a healthy agent, crashing an
            # already-dead one or restarting one on a powered-off router
            # (its power-on cold-boots it) must not double-drive state
            self.world.trace.emit(
                node_name, "fail.agent",
                f"{'restart' if up else 'crash'} no-op")
            return
        self.events.append(InjectedFailure(
            node=node_name, interface="agent",
            time=self.world.sim.now, kind="up" if up else "down"))
        if up:
            self._crashed_agents.discard(node_name)
            self.world.trace.emit(node_name, "fail.agent", "restart")
            self.deployment.restart_agent(node_name, cold=cold)
        else:
            self._crashed_agents.add(node_name)
            self.world.trace.emit(node_name, "fail.agent", "crash")
            self.deployment.crash_agent(node_name)

    # extended failure cases (paper section IX future work)
    def _do_node(self, node_name: str, up: bool,
                 crash_agent: bool = True) -> None:
        category = "restore.node" if up else "fail.node"
        if up != (node_name in self._down_nodes):
            self.world.trace.emit(node_name, category, "no-op")
            return
        node = self.world.nodes[node_name]
        now = self.world.sim.now
        kind = "up" if up else "down"
        if up:
            self._down_nodes.discard(node_name)
        else:
            self._down_nodes.add(node_name)
            # the agent goes first: interface-down handlers must see a
            # dead control plane, exactly as a power cut would order it
            if (crash_agent and self.deployment is not None
                    and node_name not in self._crashed_agents):
                self._crashed_agents.add(node_name)
                self.events.append(InjectedFailure(
                    node=node_name, interface="agent", time=now, kind="down"))
                self.deployment.crash_agent(node_name)
        self.world.trace.emit(node_name, category,
                              f"{kind} ({len(node.interfaces)} interfaces)")
        for iface_name in list(node.interfaces):
            self.events.append(InjectedFailure(
                node=node_name, interface=iface_name, time=now, kind=kind))
            node.interfaces[iface_name].set_admin(up)
        # cold boot after the ports are up: a power-cycled device keeps
        # nothing
        if (up and self.deployment is not None
                and node_name in self._crashed_agents):
            self._crashed_agents.discard(node_name)
            self.events.append(InjectedFailure(
                node=node_name, interface="agent", time=now, kind="up"))
            self.deployment.restart_agent(node_name, cold=True)

    # compound faults: each places the instants of the rows it is made of
    def _cut(self, node_a: str, node_b: str, at: Optional[int]) -> None:
        link = self.world.find_link(node_a, node_b)
        for node in (node_a, node_b):
            end = link.end_a if link.end_a.node.name == node else link.end_b
            self.inject("iface_down", node, end.name, at=at)

    def _restore(self, node_a: str, node_b: str, at: Optional[int]) -> None:
        link = self.world.find_link(node_a, node_b)
        for end in (link.end_a, link.end_b):
            self.inject("iface_up", end.node.name, end.name, at=at)

    def _flap(self, node_name: str, iface_name: str, period_us: int,
              count: int, up_period_us: Optional[int] = None,
              at: Optional[int] = None) -> None:
        base = self.world.sim.now if at is None else at
        up_period = period_us if up_period_us is None else up_period_us
        for i in range(count):
            down_at = base + i * (period_us + up_period)
            self.inject("iface_down", node_name, iface_name, at=down_at)
            self.inject("iface_up", node_name, iface_name,
                        at=down_at + period_us)


def _no_extras(event) -> tuple:
    return ()


@dataclass(frozen=True)
class FaultOp:
    """One fault op.  ``check`` and ``act`` take the injector, the
    resolved target (a node, a node and its interface, or a link's two
    nodes) and the op's extra arguments.  ``act`` runs at the fault's
    instant; a ``compound`` op's runs when injected, with ``at``, and
    injects the rows it is made of."""

    target: str                      # "interface", "link" or "node"
    check: Callable[..., Any]
    act: Callable[..., None]
    outage: bool = False             # begins an outage (detection time)
    inverse: Optional[str] = None    # the op that undoes it
    compound: bool = False
    # the scenario event's fields beyond its target, (required,
    # optional), and the extra arguments they give ``act``
    fields: tuple[tuple[str, ...], tuple[str, ...]] = ((), ())
    extras: Callable[[Any], tuple] = _no_extras


_PROFILE_FIELDS = ("profile", "direction", "loss", "corrupt", "duplicate",
                   "jitter_us", "ge_p", "ge_r", "ge_loss_bad")
_I = FailureInjector

#: the fault vocabulary.  ``impair`` opens no outage: a degraded link is
#: not down, so any down-declaration it provokes is a false positive.
#: ``agent_crash`` does: peers must detect the silent control plane.
FAULT_OPS: dict[str, FaultOp] = {
    "iface_down": FaultOp("interface", _I._check_target,
                          partial(_I._do, up=False), outage=True,
                          inverse="iface_up"),
    "iface_up": FaultOp("interface", _I._check_target,
                        partial(_I._do, up=True)),
    "link_cut": FaultOp("link", _I._check_link, _I._cut, outage=True,
                        inverse="link_restore", compound=True),
    "link_restore": FaultOp("link", _I._check_link, _I._restore,
                            compound=True),
    "node_crash": FaultOp("node", _I._checked_node,
                          partial(_I._do_node, up=False), outage=True,
                          inverse="node_restart"),
    "node_restart": FaultOp("node", _I._checked_node,
                            partial(_I._do_node, up=True)),
    "agent_crash": FaultOp("node", _I._check_agent,
                           partial(_I._do_agent, up=False), outage=True,
                           inverse="agent_restart"),
    "agent_restart": FaultOp("node", _I._check_agent, _I._do_agent),
    "isolate": FaultOp("node", _I._checked_node,
                       partial(_I._do_node, up=False, crash_agent=False),
                       outage=True, inverse="node_restart"),
    "flap_train": FaultOp(
        "interface", _I._check_target, _I._flap, outage=True,
        inverse="iface_up", compound=True,
        fields=(("count", "down_ms"), ("up_ms",)),
        extras=lambda e: (e.down_ms * MILLISECOND, e.count,
                          (e.up_ms or e.down_ms) * MILLISECOND)),
    "impair": FaultOp(
        "interface", _I._check_gray, _I._do_impair,
        inverse="clear_impairment", fields=((), _PROFILE_FIELDS),
        extras=lambda e: (e.direction or "both", e.impairment_profile())),
    "clear_impairment": FaultOp(
        "interface", _I._check_gray, _I._do_clear, fields=((), ("direction",)),
        extras=lambda e: (e.direction or "both",)),
}
