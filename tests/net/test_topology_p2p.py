"""Unit tests for point-to-point topologies."""

import pytest

from repro.errors import TopologyError, UnknownSiteError
from repro.net.sites import Site
from repro.net.topology import PointToPointTopology


def _ring(n):
    sites = [Site(i) for i in range(1, n + 1)]
    links = [(i, i % n + 1) for i in range(1, n + 1)]
    return PointToPointTopology(sites, links)


def _line(n):
    sites = [Site(i) for i in range(1, n + 1)]
    links = [(i, i + 1) for i in range(1, n)]
    return PointToPointTopology(sites, links)


class TestConstruction:
    def test_self_link_rejected(self):
        with pytest.raises(TopologyError):
            PointToPointTopology([Site(1)], [(1, 1)])

    def test_link_to_unknown_site_rejected(self):
        with pytest.raises(UnknownSiteError):
            PointToPointTopology([Site(1), Site(2)], [(1, 3)])

    def test_links_are_undirected(self):
        topo = PointToPointTopology([Site(1), Site(2)], [(1, 2)])
        assert frozenset({1, 2}) in topo.links
        topo.fail_link(2, 1)  # reversed order addresses the same link
        assert topo.failed_links == frozenset({frozenset({1, 2})})


class TestBlocks:
    def test_connected_line_is_one_block(self):
        topo = _line(4)
        assert topo.blocks(frozenset({1, 2, 3, 4})) == (frozenset({1, 2, 3, 4}),)

    def test_middle_site_down_splits_line(self):
        topo = _line(3)
        blocks = topo.blocks(frozenset({1, 3}))
        assert set(blocks) == {frozenset({1}), frozenset({3})}

    def test_link_failure_splits_line(self):
        topo = _line(4)
        topo.fail_link(2, 3)
        blocks = topo.blocks(frozenset({1, 2, 3, 4}))
        assert set(blocks) == {frozenset({1, 2}), frozenset({3, 4})}

    def test_link_repair_restores_connectivity(self):
        topo = _line(3)
        topo.fail_link(1, 2)
        topo.repair_link(1, 2)
        assert topo.blocks(frozenset({1, 2, 3})) == (frozenset({1, 2, 3}),)

    def test_ring_survives_one_link_failure(self):
        topo = _ring(5)
        topo.fail_link(1, 2)
        blocks = topo.blocks(frozenset({1, 2, 3, 4, 5}))
        assert blocks == (frozenset({1, 2, 3, 4, 5}),)

    def test_ring_splits_on_two_link_failures(self):
        topo = _ring(6)
        topo.fail_link(1, 2)
        topo.fail_link(4, 5)
        blocks = topo.blocks(frozenset(range(1, 7)))
        assert set(blocks) == {frozenset({2, 3, 4}), frozenset({5, 6, 1})}

    def test_failing_unknown_link_rejected(self):
        topo = _line(3)
        with pytest.raises(TopologyError):
            topo.fail_link(1, 3)

    def test_isolated_sites_are_singleton_blocks(self):
        topo = PointToPointTopology([Site(1), Site(2)], [])
        blocks = topo.blocks(frozenset({1, 2}))
        assert set(blocks) == {frozenset({1}), frozenset({2})}


class TestViewInterning:
    def test_link_changes_replace_the_interned_views(self):
        topo = _line(3)
        whole = topo.view({1, 2, 3})
        assert topo.view({1, 2, 3}) is whole
        topo.fail_link(2, 3)
        split = topo.view({1, 2, 3})
        assert split.blocks == (frozenset({1, 2}), frozenset({3}))
        assert whole.blocks == (frozenset({1, 2, 3}),)
        topo.repair_link(2, 3)
        assert topo.view({1, 2, 3}).blocks == whole.blocks


class TestSegmentSemantics:
    def test_each_site_is_its_own_segment(self):
        """Point-to-point sites can always be separated, so topological
        vote claiming must never apply (the paper's Section 3 caveat)."""
        topo = _line(3)
        assert topo.segment_of(1) != topo.segment_of(2)
        assert not topo.same_segment(1, 2)
        assert topo.same_segment(2, 2)
