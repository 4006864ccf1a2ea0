"""Edge-side load accounting.

The :class:`EdgeLoadMonitor` hangs off the two server hooks --
``connection_observer`` (accept / handshake / overload-GOAWAY / close)
and ``request_observer`` (per-request, with the ``SNI != Host``
coalescing signal of §5.2) -- across every TLS edge in a world, and
folds everything into a streaming :class:`~repro.traffic.aggregate.
TrafficAggregate`: concurrent-connection gauges, handshakes split by
resumption, coalesced-request counters per time bucket (the Figure 8
series at population scale), and per-edge-group breakdowns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.audit.log import NULL_AUDIT
from repro.audit.reasons import ReasonCode
from repro.dataset.world import SyntheticWorld
from repro.h2.server import H2Server
from repro.traffic.aggregate import TrafficAggregate

#: Logical edge-group name for servers that are not part of a CDN
#: fleet (self-hosted origin servers); keeps the per-edge breakdown
#: bounded however many sites the world has.
SELF_HOSTED = "self-hosted"


def edge_groups(world: SyntheticWorld) -> List[Tuple[str, H2Server]]:
    """Every TLS server in the world with its edge-group name, in a
    deterministic order (providers by name, tail CDNs by ASN,
    self-hosted origins last)."""
    groups: List[Tuple[str, H2Server]] = []
    seen = set()
    for name in sorted(world.provider_servers):
        server = world.provider_servers[name]
        groups.append((f"provider:{name}", server))
        seen.add(id(server))
    for asn in sorted(world.tail_cdn_servers):
        server = world.tail_cdn_servers[asn]
        groups.append((f"tailcdn:{asn}", server))
        seen.add(id(server))
    for hosted in world.sites:
        if id(hosted.server) not in seen:
            groups.append((SELF_HOSTED, hosted.server))
            seen.add(id(hosted.server))
    return groups


def apply_edge_capacity(
    world: SyntheticWorld, capacity: Optional[int]
) -> int:
    """Provision every CDN edge (provider + tail fleets) with a
    concurrent-connection limit; self-hosted origins stay unlimited.
    Returns the number of servers provisioned."""
    if capacity is None:
        return 0
    provisioned = 0
    for server in world.provider_servers.values():
        server.config.max_concurrent_connections = capacity
        provisioned += 1
    for server in world.tail_cdn_servers.values():
        server.config.max_concurrent_connections = capacity
        provisioned += 1
    return provisioned


class EdgeLoadMonitor:
    """Streams every edge event of a world into an aggregate."""

    def __init__(
        self,
        world: SyntheticWorld,
        aggregate: TrafficAggregate,
        audit=None,
    ) -> None:
        self.world = world
        self.aggregate = aggregate
        self.loop = world.network.loop
        self.audit = audit if audit is not None else NULL_AUDIT
        self._edge_of: Dict[int, str] = {}
        self._servers: List[H2Server] = []
        #: Live connections across all monitored edges (the fleet
        #: gauge behind per-bucket ``peak_concurrent``).
        self.current_connections = 0
        self.peak_connections = 0
        self._edge_current: Dict[str, int] = {}

    # -- attachment --------------------------------------------------------

    def attach(self) -> int:
        """Hook every TLS edge server; returns how many were hooked."""
        for name, server in edge_groups(self.world):
            self._edge_of[id(server)] = name
            server.connection_observer = self._on_connection_event
            server.request_observer = self._on_request
            self._servers.append(server)
        return len(self._servers)

    def detach(self) -> None:
        for server in self._servers:
            server.connection_observer = None
            server.request_observer = None
        self._servers.clear()

    # -- observation -------------------------------------------------------

    def _edge_name(self, connection) -> str:
        return self._edge_of.get(id(connection.server), SELF_HOSTED)

    def _on_connection_event(self, event: str, connection) -> None:
        name = self._edge_name(connection)
        edge = self.aggregate.edge_for(name)
        bucket = self.aggregate.bucket_for(self.loop.now())
        if event == "accepted":
            edge.connections += 1
            bucket.connections += 1
            self.current_connections += 1
            current = self._edge_current.get(name, 0) + 1
            self._edge_current[name] = current
            if current > edge.peak_concurrent:
                edge.peak_concurrent = current
            if self.current_connections > self.peak_connections:
                self.peak_connections = self.current_connections
            if self.current_connections > bucket.peak_concurrent:
                bucket.peak_concurrent = self.current_connections
        elif event == "handshake":
            edge.handshakes += 1
            bucket.handshakes += 1
            if getattr(connection.channel, "resumed", False):
                edge.resumed += 1
                bucket.resumed += 1
        elif event == "overload_goaway":
            edge.goaways += 1
            bucket.goaways += 1
            if self.audit.enabled:
                self.audit.record(
                    "edge", ReasonCode.EDGE_OVERLOAD_GOAWAY,
                    hostname=connection.sni, decision="refused",
                    edge=name,
                )
        elif event == "closed":
            self.current_connections -= 1
            self._edge_current[name] = (
                self._edge_current.get(name, 0) - 1
            )

    def _on_request(
        self, connection, authority, arrival_index, headers
    ) -> None:
        name = self._edge_name(connection)
        edge = self.aggregate.edge_for(name)
        bucket = self.aggregate.bucket_for(self.loop.now())
        mismatch = connection.sni != authority
        edge.requests += 1
        bucket.requests += 1
        if mismatch:
            edge.coalesced_requests += 1
            bucket.coalesced_requests += 1
