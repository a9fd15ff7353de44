"""Bandwidth reservation (flow) accounting.

A *flow* is a VoD stream occupying ``rate_mbps`` along every link of a path.
The :class:`FlowManager` reserves atomically — either every link on the path
accepts the reservation or none does — so link accounting can never be left
half-updated by an admission failure mid-path.

Hot-path shape: flash crowds reserve and release the same few node paths
over and over, so the manager memoizes the path → link-tuple resolution
together with whether those links are distinct (valid forever — links are
never removed and parallel links are rejected, so an existing node pair can
never resolve differently).  Reservation is check-then-commit: every link's
free capacity is validated up front with the exact acceptance test
:meth:`~repro.network.link.Link.reserve` applies, and only then are the
links mutated — a failed admission touches nothing (no reserve/rollback
churn in the link telemetry or the version counters) and raises a
:class:`~repro.network.link.CapacityShortfall` whose message is formatted
only if read: in a congested run most transfer quanta end that way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, Tuple

from repro.errors import FlowError, LinkCapacityError
from repro.network.link import CapacityShortfall, Link
from repro.network.topology import Topology

#: Bound on memoized path resolutions; a pathological workload that never
#: repeats a path clears the memo instead of growing it without limit.
PATH_MEMO_CAPACITY = 4096

_free_mbps = attrgetter("free_mbps")


@dataclass(frozen=True)
class Flow:
    """An active bandwidth reservation.

    Attributes:
        flow_id: Unique id assigned by the manager.
        node_path: Node uids from source server to client's home server.
        rate_mbps: Reserved bandwidth on every link of the path.
    """

    flow_id: int
    node_path: Tuple[str, ...]
    rate_mbps: float

    @property
    def hop_count(self) -> int:
        """Number of links traversed."""
        return max(len(self.node_path) - 1, 0)


class FlowManager:
    """Creates and releases flows against a topology's links."""

    def __init__(self, topology: Topology):
        self._topology = topology
        self._ids = itertools.count(1)
        self._active: Dict[int, Flow] = {}
        #: node path -> (its links, True when no link repeats).
        self._path_links: Dict[Tuple[str, ...], Tuple[Tuple[Link, ...], bool]] = {}

    @property
    def active_count(self) -> int:
        """Number of currently reserved flows."""
        return len(self._active)

    def active_flows(self) -> List[Flow]:
        """Snapshot of active flows."""
        return list(self._active.values())

    def _resolve(self, node_path: Iterable[str]) -> Tuple[Tuple[Link, ...], bool]:
        """Memoized path → (link tuple, links-are-distinct) resolution
        (TopologyError on bad paths; only successful resolutions are
        cached, and they stay valid because links are never removed)."""
        key = tuple(node_path)
        resolved = self._path_links.get(key)
        if resolved is None:
            if len(self._path_links) >= PATH_MEMO_CAPACITY:
                self._path_links.clear()
            links = tuple(self._topology.path_links(key))
            resolved = (links, len(set(links)) == len(links))
            self._path_links[key] = resolved
        return resolved

    def _links_of(self, node_path: Iterable[str]) -> Tuple[Link, ...]:
        """The memoized link tuple of a node path."""
        return self._resolve(node_path)[0]

    def reserve(self, node_path: List[str], rate_mbps: float) -> Flow:
        """Atomically reserve ``rate_mbps`` along ``node_path``.

        A single-node path (source == destination, the paper's "adjacent
        server has the video" shortcut) reserves nothing but still yields a
        trackable flow.

        Raises:
            FlowError: If the path is empty or the rate is not positive.
            LinkCapacityError: If any link lacks spare capacity; in that
                case no link is modified.
        """
        if not node_path:
            raise FlowError("flow path must contain at least one node")
        if not (rate_mbps > 0.0):
            raise FlowError(f"flow rate must be positive, got {rate_mbps!r}")
        links, distinct = self._resolve(node_path)
        if distinct:
            # Normal case — no repeated links (shortest paths are simple).
            # Check every link with Link.reserve's own acceptance test,
            # then commit; the commit cannot fail because the links are
            # distinct, so no rollback path is needed.
            for link in links:
                free = link.free_mbps
                if rate_mbps > free + 1e-9:
                    raise CapacityShortfall(link.name, rate_mbps, free)
            for link in links:
                link.reserve(rate_mbps)
        else:
            # Repeated links (a non-simple caller-supplied path): earlier
            # hops consume the capacity later hops need, so fall back to
            # sequential reserve with rollback.
            reserved: List[Link] = []
            try:
                for link in links:
                    link.reserve(rate_mbps)
                    reserved.append(link)
            except LinkCapacityError:
                for link in reserved:
                    link.release(rate_mbps)
                raise
        flow = Flow(flow_id=next(self._ids), node_path=tuple(node_path), rate_mbps=rate_mbps)
        self._active[flow.flow_id] = flow
        return flow

    def release(self, flow: Flow) -> None:
        """Release every link reservation held by ``flow``.

        Raises:
            FlowError: If the flow is unknown or already released.
        """
        if flow.flow_id not in self._active:
            raise FlowError(f"flow {flow.flow_id} is not active (double release?)")
        for link in self._links_of(flow.node_path):
            link.release(flow.rate_mbps)
        del self._active[flow.flow_id]

    def path_fits(self, node_path: List[str], rate_mbps: float) -> bool:
        """True if every link on the path has ``rate_mbps`` spare."""
        links = self._links_of(node_path)
        return all(link.free_mbps + 1e-9 >= rate_mbps for link in links)

    def bottleneck_mbps(self, node_path: List[str]) -> float:
        """Smallest spare capacity along the path (inf for a 1-node path)."""
        links = self._links_of(node_path)
        if not links:
            return float("inf")
        return min(map(_free_mbps, links))
