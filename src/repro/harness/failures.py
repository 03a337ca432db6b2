"""Failure injection.

The analogue of the paper's remote bash script that "would bring down an
interface and record the time of this event at the node" — the recorded
time is the convergence-calculation start (section VI.B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.impairment import (
    DIRECTIONS,
    ImpairmentProfile,
    rng_stream_name,
)
from repro.net.world import World


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

    # ------------------------------------------------------------------
    def _checked_node(self, node_name: str):
        node = self.world.nodes.get(node_name)
        if node is None:
            raise UnknownTargetError(
                f"unknown node {node_name!r}; the world has: "
                f"{', '.join(sorted(self.world.nodes)) or '(none)'}")
        return node

    def _check_target(self, node_name: str, iface_name: str) -> None:
        node = self._checked_node(node_name)
        if iface_name not in node.interfaces:
            raise UnknownTargetError(
                f"node {node_name} has no interface {iface_name!r}; "
                f"has: {', '.join(node.interfaces) or '(none)'}")

    # ------------------------------------------------------------------
    def fail_interface(self, node_name: str, iface_name: str,
                       at: Optional[int] = None) -> None:
        """Bring the interface down now or at absolute time ``at``."""
        self._check_target(node_name, iface_name)
        if at is None:
            self._do(node_name, iface_name, False)
        else:
            self.world.sim.schedule_at(at, self._do, node_name, iface_name, False)

    def restore_interface(self, node_name: str, iface_name: str,
                          at: Optional[int] = None) -> None:
        self._check_target(node_name, iface_name)
        if at is None:
            self._do(node_name, iface_name, True)
        else:
            self.world.sim.schedule_at(at, self._do, node_name, iface_name, True)

    def flap_interface(self, node_name: str, iface_name: str,
                       period_us: int, count: int,
                       start_at: Optional[int] = None,
                       up_period_us: Optional[int] = None) -> None:
        """Toggle an interface down/up ``count`` times — the flapping
        workload for the Slow-to-Accept ablation.  ``period_us`` is the
        down-window; ``up_period_us`` (default: the same) the up-window."""
        base = self.world.sim.now if start_at is None else start_at
        up_period = period_us if up_period_us is None else up_period_us
        cycle = period_us + up_period
        for i in range(count):
            self.fail_interface(node_name, iface_name, at=base + i * cycle)
            self.restore_interface(node_name, iface_name,
                                   at=base + i * cycle + period_us)

    # ------------------------------------------------------------------
    # gray failures — see repro.net.impairment
    # ------------------------------------------------------------------
    def _checked_cabled(self, node_name: str, iface_name: str):
        self._check_target(node_name, iface_name)
        iface = self.world.nodes[node_name].interfaces[iface_name]
        if iface.link is None:
            raise UnknownTargetError(
                f"{node_name}:{iface_name} is not cabled; cannot impair "
                f"an unconnected interface")
        return iface

    @staticmethod
    def _checked_direction(direction: str) -> None:
        if direction not in DIRECTIONS:
            raise ValueError(
                f"direction must be one of {', '.join(DIRECTIONS)}, "
                f"got {direction!r}")

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
        self._checked_cabled(node_name, iface_name)
        self._checked_direction(direction)
        if at is None:
            self._do_impair(node_name, iface_name, profile, direction)
        else:
            self.world.sim.schedule_at(at, self._do_impair, node_name,
                                       iface_name, profile, direction)

    def clear_impairment(self, node_name: str, iface_name: str,
                         direction: str = "both",
                         at: Optional[int] = None) -> None:
        self._checked_cabled(node_name, iface_name)
        self._checked_direction(direction)
        if at is None:
            self._do_clear(node_name, iface_name, direction)
        else:
            self.world.sim.schedule_at(at, self._do_clear, node_name,
                                       iface_name, direction)

    def _senders(self, node_name: str, iface_name: str, direction: str):
        iface = self.world.nodes[node_name].interfaces[iface_name]
        peer = iface.link.other_end(iface)
        if direction == "tx":
            return [iface]
        if direction == "rx":
            return [peer]
        return [iface, peer]

    def _do_impair(self, node_name: str, iface_name: str,
                   profile: ImpairmentProfile, direction: str) -> None:
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
                  direction: str) -> None:
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

    # ------------------------------------------------------------------
    # agent lifecycle (control-plane crash / restart)
    # ------------------------------------------------------------------
    def _require_deployment(self) -> None:
        if self.deployment is None:
            raise ValueError(
                "agent crash/restart requires a FailureInjector bound to "
                "a deployment: FailureInjector(world, deployment)")

    def crash_agent(self, node_name: str, at: Optional[int] = None) -> None:
        """Kill the node's routing agent.  The data plane keeps
        forwarding on the frozen tables (headless forwarding); peers
        find out through their own liveness timers."""
        self._checked_node(node_name)
        self._require_deployment()
        if at is None:
            self._do_agent(node_name, False)
        else:
            self.world.sim.schedule_at(at, self._do_agent, node_name, False)

    def restart_agent(self, node_name: str, at: Optional[int] = None,
                      cold: Optional[bool] = None) -> None:
        """Bring the agent back.  ``cold=None`` follows the stack's
        configured restart mode (graceful when the stack supports it)."""
        self._checked_node(node_name)
        self._require_deployment()
        if at is None:
            self._do_agent(node_name, True, cold)
        else:
            self.world.sim.schedule_at(at, self._do_agent, node_name,
                                       True, cold)

    def _do_agent(self, node_name: str, up: bool,
                  cold: Optional[bool] = None) -> None:
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

    # ------------------------------------------------------------------
    # extended failure cases (paper section IX future work)
    # ------------------------------------------------------------------
    def fail_node(self, node_name: str, at: Optional[int] = None,
                  crash_agent: bool = True) -> None:
        """Whole-device power loss: the routing agent dies with the
        power, then every interface drops at once.  One ``fail.node``
        trace record covers the outage (not N per-link episodes); the
        per-interface ``InjectedFailure`` events still feed the
        fault-window accounting.  ``crash_agent=False`` isolates the
        node instead: every interface drops and the agent lives on."""
        self._checked_node(node_name)
        if at is None:
            self._do_node(node_name, False, crash_agent)
        else:
            self.world.sim.schedule_at(at, self._do_node, node_name, False,
                                       crash_agent)

    def restore_node(self, node_name: str, at: Optional[int] = None) -> None:
        """Power the device back on: interfaces come up, then the agent
        cold-boots — protocol *and* forwarding state start empty."""
        self._checked_node(node_name)
        if at is None:
            self._do_node(node_name, True)
        else:
            self.world.sim.schedule_at(at, self._do_node, node_name, True)

    def _do_node(self, node_name: str, up: bool,
                 crash_agent: bool = True) -> None:
        is_down = node_name in self._down_nodes
        if up != is_down:
            self.world.trace.emit(
                node_name, "fail.node" if not up else "restore.node",
                "no-op")
            return
        node = self.world.nodes[node_name]
        now = self.world.sim.now
        kind = "up" if up else "down"
        if not up:
            self._down_nodes.add(node_name)
            # the agent goes first: interface-down handlers must see a
            # dead control plane, exactly as a power cut would order it
            if (crash_agent and self.deployment is not None
                    and node_name not in self._crashed_agents):
                self._crashed_agents.add(node_name)
                self.events.append(InjectedFailure(
                    node=node_name, interface="agent", time=now, kind="down"))
                self.deployment.crash_agent(node_name)
            self.world.trace.emit(node_name, "fail.node",
                                  f"down ({len(node.interfaces)} interfaces)")
            for iface_name in list(node.interfaces):
                self.events.append(InjectedFailure(
                    node=node_name, interface=iface_name, time=now,
                    kind=kind))
                node.interfaces[iface_name].set_admin(False)
        else:
            self._down_nodes.discard(node_name)
            self.world.trace.emit(node_name, "restore.node",
                                  f"up ({len(node.interfaces)} interfaces)")
            for iface_name in list(node.interfaces):
                self.events.append(InjectedFailure(
                    node=node_name, interface=iface_name, time=now,
                    kind=kind))
                node.interfaces[iface_name].set_admin(True)
            # cold boot after the ports are up: a power-cycled device
            # keeps nothing
            if (self.deployment is not None
                    and node_name in self._crashed_agents):
                self._crashed_agents.discard(node_name)
                self.events.append(InjectedFailure(
                    node=node_name, interface="agent", time=now, kind="up"))
                self.deployment.restart_agent(node_name, cold=True)

    def cut_link(self, node_a: str, node_b: str,
                 at: Optional[int] = None) -> None:
        """Bidirectional link cut: both ends lose their interface (a
        fiber cut rather than the paper's one-sided admin-down)."""
        link = self.world.find_link(node_a, node_b)
        if link is None:
            raise ValueError(f"no link between {node_a} and {node_b}")
        self.fail_interface(node_a, link.end_a.name
                            if link.end_a.node.name == node_a
                            else link.end_b.name, at=at)
        self.fail_interface(node_b, link.end_b.name
                            if link.end_b.node.name == node_b
                            else link.end_a.name, at=at)

    def restore_link(self, node_a: str, node_b: str,
                     at: Optional[int] = None) -> None:
        link = self.world.find_link(node_a, node_b)
        if link is None:
            raise ValueError(f"no link between {node_a} and {node_b}")
        for end in (link.end_a, link.end_b):
            self.restore_interface(end.node.name, end.name, at=at)

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

    def last_failure_time(self) -> int:
        downs = [e.time for e in self.events if e.kind == "down"]
        if not downs:
            raise ValueError("no failure injected yet")
        return downs[-1]
