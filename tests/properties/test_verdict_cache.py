"""The verdict cache and view interning never change a verdict.

``VotingProtocol.evaluate`` keeps the verdicts of one state generation
by view, and ``Topology.view`` interns one view per up-set.  Replaying
seeded random histories — site failures and repairs, link flips,
synchronisations and operations — every cached ``evaluate`` must equal
a cache-free evaluation of the same view, for every registered policy
and for the extensions whose verdicts read state of their own.  Views
seen earlier in the history are re-evaluated after every step, so a
protocol whose generation key misses some of that state would return a
stale verdict here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import available_policies, make_protocol
from repro.core.weighted_dynamic import WeightedDynamicVoting
from repro.core.witnesses import DynamicVotingWithWitnesses
from repro.errors import ConfigurationError, ProtocolError, QuorumNotReachedError
from repro.experiments.testbed import testbed_topology
from repro.net.sites import Site
from repro.net.topology import PointToPointTopology
from repro.replica.state import ReplicaSet


def _witnessed(replicas):
    return DynamicVotingWithWitnesses(replicas, {max(replicas.copy_sites)})


def _weighted(replicas):
    return WeightedDynamicVoting(
        replicas, {s: 1 + s % 3 for s in replicas.copy_sites})


FACTORIES = {
    **{name: (lambda r, name=name: make_protocol(name, r))
       for name in available_policies()},
    "LDV+W": _witnessed,
    "WDV": _weighted,
}

P2P_SITES = range(1, 7)
#: A ring with two chords, so single link failures rarely partition.
P2P_LINKS = [(i, i % 6 + 1) for i in P2P_SITES] + [(1, 4), (2, 5)]


def _p2p_topology():
    return PointToPointTopology([Site(i) for i in P2P_SITES], P2P_LINKS)


steps = st.lists(
    st.tuples(
        st.sampled_from(["toggle", "toggle", "flip", "sync", "recover",
                         "read", "write", "promote", "demote"]),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=40,
)


def _outcome(evaluate, view):
    try:
        verdict = evaluate(view)
    except ProtocolError as exc:
        return ("error", str(exc))
    return (verdict, verdict.reason)


def _replay(policy, topology, copies, history, links=()):
    protocol = FACTORIES[policy](ReplicaSet(copies))
    sites = sorted(topology.site_ids)
    copy_list = sorted(copies)
    up = set(sites)
    seen = []
    for action, pick in history:
        site = sites[pick % len(sites)]
        copy = copy_list[pick % len(copy_list)]
        if action == "toggle":
            up.symmetric_difference_update({site})
        elif action == "flip" and links:
            a, b = links[pick % len(links)]
            if frozenset((a, b)) in topology.failed_links:
                topology.repair_link(a, b)
            else:
                topology.fail_link(a, b)
        view = topology.view(up)
        assert view.blocks == topology.blocks(up)
        try:
            if action == "sync":
                protocol.synchronize(view)
            elif action == "recover":
                protocol.recover_stale(view)
            elif action in ("read", "write") and copy in view.up:
                getattr(protocol, action)(view, copy)
            elif action in ("promote", "demote") and hasattr(protocol, action):
                getattr(protocol, action)(view, copy)
        except (ConfigurationError, ProtocolError, QuorumNotReachedError):
            pass  # refused operations are part of a random history
        seen = [v for v in seen if v is not view][-7:] + [view]
        for old in seen:
            assert _outcome(protocol.evaluate, old) == \
                _outcome(protocol._evaluate_blocks, old)


@pytest.mark.parametrize("policy", sorted(FACTORIES))
class TestVerdictCache:
    @settings(max_examples=30, deadline=None)
    @given(copies=st.sampled_from([frozenset({1, 2, 4}),
                                   frozenset({1, 2, 4, 6}),
                                   frozenset({1, 2, 7, 8})]),
           history=steps)
    def test_testbed_histories(self, policy, copies, history):
        _replay(policy, testbed_topology(), copies, history)

    @settings(max_examples=30, deadline=None)
    @given(copies=st.sampled_from([frozenset({1, 3, 5}),
                                   frozenset({1, 2, 4, 5})]),
           history=steps)
    def test_point_to_point_histories_with_link_flips(
            self, policy, copies, history):
        _replay(policy, _p2p_topology(), copies, history, links=P2P_LINKS)
