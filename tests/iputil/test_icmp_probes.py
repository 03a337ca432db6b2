"""ICMP echo/errors and the ping/traceroute utilities."""

from __future__ import annotations

import pytest

from repro.harness.experiments import build_and_converge
from repro.iputil.probes import Pinger, Traceroute
from repro.sim.units import SECOND
from repro.stack.addresses import Ipv4Address
from repro.stack.icmp import IcmpMessage, IcmpType
from repro.topology.clos import two_pod_params

from tests.conftest import make_ip_pair


def ip(text):
    return Ipv4Address.parse(text)


class TestIcmpBasics:
    def test_echo_request_gets_reply(self, world):
        a, b, sa, sb = make_ip_pair(world)
        replies = []
        sa.add_icmp_listener(lambda m, src: replies.append((m, str(src))))
        sa.send_echo_request(ip("10.0.0.2"), identifier=7, sequence=1)
        world.run()
        assert len(replies) == 1
        message, src = replies[0]
        assert message.icmp_type is IcmpType.ECHO_REPLY
        assert message.identifier == 7 and message.sequence == 1
        assert src == "10.0.0.2"

    def test_echo_sizes(self):
        req = IcmpMessage(IcmpType.ECHO_REQUEST, data_bytes=56)
        assert req.wire_size == 64  # the classic 64-byte ping payload

    def test_validation(self):
        with pytest.raises(ValueError):
            IcmpMessage(IcmpType.ECHO_REQUEST, identifier=70000)

    def test_ping_utility(self, world):
        a, b, sa, sb = make_ip_pair(world)
        done = []
        pinger = Pinger(sa, ip("10.0.0.2"), count=5, on_done=done.append)
        pinger.start()
        world.run(until=3 * SECOND)
        assert done
        result = done[0]
        assert result.sent == 5 and result.received == 5
        assert result.lost == 0
        assert all(rtt > 0 for rtt in result.rtts_us)
        assert result.min_rtt_us <= result.avg_rtt_us

    def test_ping_counts_losses(self, world):
        a, b, sa, sb = make_ip_pair(world)
        done = []
        pinger = Pinger(sa, ip("10.0.0.2"), count=5, interval_us=100_000,
                        on_done=done.append)
        pinger.start()
        # kill the peer halfway through
        world.sim.schedule_at(250_000, b.interfaces["eth1"].set_admin, False)
        world.run(until=5 * SECOND)
        assert done and 0 < done[0].received < 5


class TestFabricProbes:
    @pytest.fixture(scope="class")
    def bgp_fabric(self):
        return build_and_converge(two_pod_params(), "bgp", seed=31)

    @pytest.fixture(scope="class")
    def mtp_fabric(self):
        return build_and_converge(two_pod_params(), "mtp", seed=31)

    def test_ping_across_bgp_fabric(self, bgp_fabric):
        world, topo, dep = bgp_fabric
        src = topo.first_server_of(topo.tors[0][0][0])
        dst_ip = topo.server_address(topo.first_server_of(topo.tors[0][1][1]))
        done = []
        Pinger(dep.servers[src].stack, dst_ip, count=3,
               on_done=done.append).start()
        world.run_for(3 * SECOND)
        assert done and done[0].received == 3

    def test_traceroute_bgp_shows_every_router_hop(self, bgp_fabric):
        """server -> ToR -> agg -> top -> agg -> ToR -> server: five
        routers answer TIME_EXCEEDED, the destination answers the echo."""
        world, topo, dep = bgp_fabric
        src = topo.first_server_of(topo.tors[0][0][0])
        dst_ip = topo.server_address(topo.first_server_of(topo.tors[0][1][1]))
        done = []
        trace = Traceroute(dep.servers[src].stack, dst_ip,
                           on_done=done.append)
        trace.start()
        world.run_for(10 * SECOND)
        assert done
        hops = done[0]
        assert hops[-1].reached
        assert len(hops) == 6  # 5 routers + destination
        assert all(h.address is not None for h in hops)
        text = trace.render()
        assert "[destination]" in text

    def test_traceroute_mtp_fabric_is_one_ip_hop(self, mtp_fabric):
        """MR-MTP transit never touches the inner TTL (the encapsulated
        fabric behaves like the paper's VXLAN overlay): the destination
        answers the very first probe."""
        world, topo, dep = mtp_fabric
        src = topo.first_server_of(topo.tors[0][0][0])
        dst_ip = topo.server_address(topo.first_server_of(topo.tors[0][1][1]))
        done = []
        Traceroute(dep.servers[src].stack, dst_ip,
                   on_done=done.append).start()
        world.run_for(10 * SECOND)
        assert done
        hops = done[0]
        assert hops[-1].reached
        assert len(hops) == 1

    def test_ping_across_mtp_fabric(self, mtp_fabric):
        world, topo, dep = mtp_fabric
        src = topo.first_server_of(topo.tors[0][0][0])
        dst_ip = topo.server_address(topo.first_server_of(topo.tors[0][1][1]))
        done = []
        Pinger(dep.servers[src].stack, dst_ip, count=3,
               on_done=done.append).start()
        world.run_for(3 * SECOND)
        assert done and done[0].received == 3
