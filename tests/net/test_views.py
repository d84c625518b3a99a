"""Unit tests for network-view snapshots."""

import pytest

from repro.errors import UnknownSiteError


class TestViewQueries:
    def test_blocks_exposed(self, testbed):
        view = testbed.view(frozenset(range(1, 9)) - {4})
        assert len(view.blocks) == 2

    def test_block_of(self, testbed):
        view = testbed.view(frozenset(range(1, 9)) - {4})
        assert view.block_of(6) == frozenset({6})
        assert 1 in view.block_of(2)

    def test_block_of_down_site_raises(self, testbed):
        view = testbed.view(frozenset({1, 2}))
        with pytest.raises(UnknownSiteError):
            view.block_of(3)

    def test_block_of_unknown_site_raises(self, testbed):
        view = testbed.view(frozenset({1, 2}))
        with pytest.raises(UnknownSiteError):
            view.block_of(99)

    def test_is_up_unknown_site_raises(self, testbed):
        view = testbed.view(frozenset({1}))
        with pytest.raises(UnknownSiteError):
            view.is_up(99)

    def test_can_communicate(self, testbed):
        view = testbed.view(frozenset(range(1, 9)) - {5})
        assert view.can_communicate(1, 6)
        assert not view.can_communicate(1, 7)   # gamma cut off
        assert view.can_communicate(7, 8)       # same segment
        assert not view.can_communicate(1, 5)   # 5 is down

    def test_reachable_from(self, testbed):
        view = testbed.view(frozenset(range(1, 9)) - {4})
        assert view.reachable_from(1, {2, 6, 7}) == frozenset({2, 7})

    def test_same_segment_defined_for_down_sites(self, testbed):
        view = testbed.view(frozenset({7}))
        assert view.same_segment(7, 8)  # 8 is down but segment is static

    def test_max_site_delegates_to_topology(self, testbed):
        view = testbed.view(frozenset({1}))
        assert view.max_site({3, 5, 8}) == 3

    def test_views_are_independent_snapshots(self, testbed):
        before = testbed.view(frozenset(range(1, 9)))
        after = testbed.view(frozenset(range(1, 9)) - {4})
        assert before.is_up(4)
        assert not after.is_up(4)


class TestInterning:
    def test_one_view_per_up_set(self, testbed):
        view = testbed.view({1, 2, 6})
        assert testbed.view(frozenset({6, 2, 1})) is view
        assert testbed.view({1, 2}) is not view

    def test_unknown_site_still_rejected(self, testbed):
        with pytest.raises(UnknownSiteError):
            testbed.view({1, 99})
