"""Network topologies and the partition oracle.

Two topology families are provided:

* :class:`SegmentedTopology` — the paper's environment: indivisible
  carrier-sense segments (or token rings) joined by gateway hosts.  The
  only partition points are the gateways; a segment's sites can never be
  separated from one another.
* :class:`PointToPointTopology` — an arbitrary graph of sites and
  failure-prone links, for experiments beyond the paper's LAN assumption.
  Every site is its own "segment", so topological vote-claiming never
  applies (as the paper requires for conventional point-to-point
  networks).

Both expose the same oracle: :meth:`Topology.blocks` maps the set of *up*
sites to the partition blocks — maximal groups of mutually communicating
up sites.
"""

from __future__ import annotations

import abc
from typing import AbstractSet, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError, TopologyError, UnknownSiteError
from repro.net.sites import Site, lexicographic_max
from repro.net.views import NetworkView

__all__ = [
    "Topology",
    "SegmentedTopology",
    "PointToPointTopology",
    "single_segment",
]

#: Bound on the interned views of one topology: one per up-set, so a
#: topology of n sites holds at most 2**n; past the bound the table
#: starts afresh.
_MAX_INTERNED_VIEWS = 4096


class Topology(abc.ABC):
    """Abstract network: a set of sites plus a partition oracle."""

    def __init__(self, sites: Sequence[Site]):
        if not sites:
            raise TopologyError("a topology needs at least one site")
        ids = [s.id for s in sites]
        if len(set(ids)) != len(ids):
            raise TopologyError(f"duplicate site ids in {ids}")
        self._sites = {s.id: s for s in sites}
        self._ranks = {s.id: s.rank for s in sites}
        # The interned views, by up-set (see view).
        self._views: dict[frozenset[int], NetworkView] = {}

    # ------------------------------------------------------------------
    @property
    def sites(self) -> tuple[Site, ...]:
        """All sites, ordered by id."""
        return tuple(self._sites[i] for i in sorted(self._sites))

    @property
    def site_ids(self) -> frozenset[int]:
        return frozenset(self._sites)

    def site(self, site_id: int) -> Site:
        """Look up a site by id.

        Raises:
            UnknownSiteError: if the topology has no such site.
        """
        try:
            return self._sites[site_id]
        except KeyError:
            raise UnknownSiteError(f"no site {site_id} in topology") from None

    def max_site(self, site_ids: Iterable[int]) -> int:
        """Maximum element of *site_ids* under the lexicographic order."""
        return lexicographic_max(site_ids, self._ranks)

    def _check_known(self, site_ids: AbstractSet[int]) -> None:
        unknown = site_ids - self._sites.keys()
        if unknown:
            raise UnknownSiteError(f"unknown sites: {sorted(unknown)}")

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def blocks(self, up: AbstractSet[int]) -> tuple[frozenset[int], ...]:
        """Partition the *up* sites into communicating blocks.

        Every up site appears in exactly one returned block; down sites
        appear in none.  Blocks are returned sorted by their smallest
        member for determinism.
        """

    @abc.abstractmethod
    def segment_of(self, site_id: int) -> str:
        """Name of the indivisible segment that *site_id* belongs to.

        Gateways belong to exactly one segment (their *home* segment), per
        the paper's rule for making topological vote-claiming safe.
        """

    def same_segment(self, a: int, b: int) -> bool:
        """Whether two sites can never be separated by a partition."""
        return self.segment_of(a) == self.segment_of(b)

    def view(self, up: AbstractSet[int]) -> NetworkView:
        """Snapshot the network with exactly the sites in *up* operational.

        Views are interned: while the blocks of an up-set cannot change,
        every call with that up-set returns the same object, so callers
        (such as :meth:`VotingProtocol.evaluate`) can key on it.  A
        topology whose blocks depend on more than the up-set clears the
        interned views whenever that other state changes.
        """
        up = frozenset(up)
        view = self._views.get(up)
        if view is None:
            self._check_known(up)
            if len(self._views) >= _MAX_INTERNED_VIEWS:
                self._views.clear()
            view = self._views[up] = NetworkView(self, up, self.blocks(up))
        return view


class SegmentedTopology(Topology):
    """Carrier-sense segments joined by gateway hosts.

    Args:
        sites: All hosts.
        segments: Maps each segment name to the ids of the sites homed on
            it.  Every site must appear in exactly one segment.
        gateways: Maps a gateway site id to the segment names it joins
            when it is up.  A gateway's home segment must be among the
            segments it joins.

    Example (the paper's Figure 8 network)::

        SegmentedTopology(
            sites=[Site(i) for i in range(1, 9)],
            segments={"alpha": [1, 2, 3, 4, 5], "beta": [6], "gamma": [7, 8]},
            gateways={4: ("alpha", "beta"), 5: ("alpha", "gamma")},
        )
    """

    def __init__(
        self,
        sites: Sequence[Site],
        segments: Mapping[str, Iterable[int]],
        gateways: Mapping[int, Sequence[str]] | None = None,
    ):
        super().__init__(sites)
        gateways = dict(gateways or {})
        if not segments:
            raise TopologyError("at least one segment is required")

        self._segment_names = tuple(sorted(segments))
        self._home: dict[int, str] = {}
        self._members: dict[str, frozenset[int]] = {}
        for name in self._segment_names:
            members = frozenset(segments[name])
            self._check_known(members)
            for sid in members:
                if sid in self._home:
                    raise TopologyError(
                        f"site {sid} homed on both {self._home[sid]!r} and {name!r}"
                    )
                self._home[sid] = name
            self._members[name] = members
        homeless = self.site_ids - self._home.keys()
        if homeless:
            raise TopologyError(f"sites without a segment: {sorted(homeless)}")

        self._gateways: dict[int, tuple[str, ...]] = {}
        for sid, names in gateways.items():
            if sid not in self._sites:
                raise UnknownSiteError(f"gateway {sid} is not a site")
            joined = tuple(names)
            if len(joined) < 2:
                raise TopologyError(
                    f"gateway {sid} must join >= 2 segments, got {joined}"
                )
            for name in joined:
                if name not in self._members:
                    raise TopologyError(
                        f"gateway {sid} joins unknown segment {name!r}"
                    )
            if self._home[sid] not in joined:
                raise TopologyError(
                    f"gateway {sid}'s home segment {self._home[sid]!r} "
                    f"must be among the segments it joins {joined}"
                )
            self._gateways[sid] = joined

    # ------------------------------------------------------------------
    @property
    def segment_names(self) -> tuple[str, ...]:
        return self._segment_names

    @property
    def gateway_ids(self) -> frozenset[int]:
        """Sites whose failure can partition the network."""
        return frozenset(self._gateways)

    def segment_members(self, name: str) -> frozenset[int]:
        """Site ids homed on segment *name*."""
        try:
            return self._members[name]
        except KeyError:
            raise TopologyError(f"no segment {name!r}") from None

    def segment_of(self, site_id: int) -> str:
        self.site(site_id)  # raise UnknownSiteError for bad ids
        return self._home[site_id]

    def blocks(self, up: AbstractSet[int]) -> tuple[frozenset[int], ...]:
        self._check_known(frozenset(up))
        # Union-find over segments: an up gateway merges all its segments.
        parent = {name: name for name in self._segment_names}

        def find(name: str) -> str:
            root = name
            while parent[root] != root:
                root = parent[root]
            while parent[name] != root:  # path compression
                parent[name], name = root, parent[name]
            return root

        for gateway, joined in self._gateways.items():
            if gateway in up:
                anchor = find(joined[0])
                for other in joined[1:]:
                    parent[find(other)] = anchor

        groups: dict[str, set[int]] = {}
        for name in self._segment_names:
            root = find(name)
            members = self._members[name] & up
            if members:
                groups.setdefault(root, set()).update(members)
        return tuple(
            sorted((frozenset(g) for g in groups.values()), key=min)
        )


class PointToPointTopology(Topology):
    """A general graph of sites connected by failure-prone links.

    Links are undirected pairs of site ids.  The set of *failed* links is
    mutable state on the topology (:meth:`fail_link` / :meth:`repair_link`),
    so the same ``blocks(up)`` oracle interface works for both families.

    Every site is its own segment; topological vote-claiming therefore
    never fires, matching the paper's "conventional point-to-point
    networks" where any two sites may be separated.
    """

    def __init__(
        self,
        sites: Sequence[Site],
        links: Iterable[tuple[int, int]],
    ):
        super().__init__(sites)
        self._links: set[frozenset[int]] = set()
        for a, b in links:
            if a == b:
                raise TopologyError(f"self-link at site {a}")
            self._check_known(frozenset((a, b)))
            self._links.add(frozenset((a, b)))
        self._failed: set[frozenset[int]] = set()

    # ------------------------------------------------------------------
    @property
    def links(self) -> frozenset[frozenset[int]]:
        return frozenset(self._links)

    @property
    def failed_links(self) -> frozenset[frozenset[int]]:
        return frozenset(self._failed)

    def _edge(self, a: int, b: int) -> frozenset[int]:
        edge = frozenset((a, b))
        if edge not in self._links:
            raise TopologyError(f"no link between {a} and {b}")
        return edge

    def fail_link(self, a: int, b: int) -> None:
        """Mark the link between *a* and *b* as down."""
        self._failed.add(self._edge(a, b))
        self._views.clear()

    def repair_link(self, a: int, b: int) -> None:
        """Bring the link between *a* and *b* back up."""
        self._failed.discard(self._edge(a, b))
        self._views.clear()

    def segment_of(self, site_id: int) -> str:
        self.site(site_id)
        return f"pt-{site_id}"

    def blocks(self, up: AbstractSet[int]) -> tuple[frozenset[int], ...]:
        up = frozenset(up)
        self._check_known(up)
        # Breadth-first search over live links between up sites.
        adjacency: dict[int, list[int]] = {s: [] for s in up}
        for edge in self._links - self._failed:
            a, b = tuple(edge)
            if a in up and b in up:
                adjacency[a].append(b)
                adjacency[b].append(a)
        seen: set[int] = set()
        blocks: list[frozenset[int]] = []
        for start in sorted(up):
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for neighbour in adjacency[node]:
                    if neighbour not in component:
                        component.add(neighbour)
                        frontier.append(neighbour)
            seen |= component
            blocks.append(frozenset(component))
        return tuple(sorted(blocks, key=min))


def single_segment(count: int, segment: str = "lan") -> SegmentedTopology:
    """A topology of *count* sites (ids 1..count) on one shared segment.

    This is the environment in which Topological Dynamic Voting
    degenerates into an Available-Copy protocol.
    """
    if count < 1:
        raise ConfigurationError(f"need >= 1 site, got {count}")
    sites = [Site(i) for i in range(1, count + 1)]
    return SegmentedTopology(sites, {segment: [s.id for s in sites]})
