"""Unit tests for the shared protocol machinery (Verdict, evaluate,
mutual-exclusion helper, synchronize convergence, error paths)."""

import pytest

from repro.core.base import Verdict
from repro.core.lexicographic import LexicographicDynamicVoting
from repro.errors import ConfigurationError, ProtocolError, QuorumNotReachedError
from repro.experiments.configs import CONFIGURATIONS
from repro.experiments.runner import StudyParameters, run_cell
from repro.net.topology import single_segment
from repro.obs.prof.phases import PhaseProfiler
from repro.obs.tracer import MemorySink, Tracer
from repro.replica.state import ReplicaSet


@pytest.fixture
def lan4():
    return single_segment(4)


class TestVerdict:
    def test_denial_constructor(self):
        verdict = Verdict.denial("nothing reachable")
        assert not verdict.granted
        assert verdict.reason == "nothing reachable"
        assert verdict.block == frozenset()

    def test_reason_excluded_from_equality(self):
        a = Verdict(granted=True, block=frozenset({1}), reason="x")
        b = Verdict(granted=True, block=frozenset({1}), reason="y")
        assert a == b

    def test_verdict_is_frozen(self):
        verdict = Verdict.denial("no")
        with pytest.raises(AttributeError):
            verdict.granted = True  # type: ignore[misc]


class TestEvaluate:
    def test_returns_granting_verdict(self, lan4):
        protocol = LexicographicDynamicVoting(ReplicaSet({1, 2, 3}))
        verdict = protocol.evaluate(lan4.view({1, 2, 4}))
        assert verdict.granted
        assert verdict.reachable == frozenset({1, 2})

    def test_returns_denial_when_no_block_grants(self, lan4):
        protocol = LexicographicDynamicVoting(ReplicaSet({1, 2, 3}))
        verdict = protocol.evaluate(lan4.view({4}))
        assert not verdict.granted
        assert verdict.reason

    def test_verdict_fields_match_algorithm_1(self, lan4):
        protocol = LexicographicDynamicVoting(ReplicaSet({1, 2, 3}))
        protocol.write(lan4.view({1, 2}), 1)   # 3 misses a write
        verdict = protocol.evaluate(lan4.view({1, 2, 3}))
        assert verdict.reachable == frozenset({1, 2, 3})   # R
        assert verdict.current == frozenset({1, 2})        # Q (max o)
        assert verdict.newest == frozenset({1, 2})         # S (max v)
        assert verdict.counted == verdict.current          # non-topological
        assert verdict.partition_set == frozenset({1, 2})  # P_m
        assert verdict.reference in verdict.current        # m

    def test_granting_blocks_lists_at_most_one(self, lan4):
        protocol = LexicographicDynamicVoting(ReplicaSet({1, 2, 3}))
        assert len(protocol.granting_blocks(lan4.view({1, 2, 3}))) == 1
        assert protocol.granting_blocks(lan4.view({4})) == ()


class TestVerdictCache:
    def test_repeated_evaluate_returns_the_cached_verdict(self, lan4):
        protocol = LexicographicDynamicVoting(ReplicaSet({1, 2, 3}))
        view = lan4.view({1, 2, 3})
        assert protocol.evaluate(view) is protocol.evaluate(view)

    def test_profiler_counts_every_call_and_only_run_block_tests(self, lan4):
        profiler = PhaseProfiler()
        protocol = LexicographicDynamicVoting(ReplicaSet({1, 2, 3}))
        protocol.attach_profiler(profiler)
        view = lan4.view({1, 2, 3})
        for _ in range(3):
            protocol.evaluate(view)
        counters = profiler.to_dict()["counters"]
        assert counters["quorum.evaluate.LDV"] == 3
        assert counters["quorum.block.LDV"] == 1

    def test_tracer_skips_the_cache(self, lan4):
        sink = MemorySink()
        protocol = LexicographicDynamicVoting(ReplicaSet({1, 2, 3}))
        protocol.attach_tracer(Tracer(sink))
        view = lan4.view({1, 2, 3})
        for _ in range(3):
            protocol.evaluate(view)
        assert len(sink.of_kind("quorum.granted")) == 3

    @pytest.mark.parametrize("policy, records", [
        ("MCV", 618), ("LDV", 1789), ("ODV", 3761), ("OTDV", 4011)])
    def test_traced_cell_emits_every_decision_record(self, policy, records):
        """A traced study cell records as many decisions as it did
        before evaluate kept verdicts (counts pinned from that code)."""
        sink = MemorySink(capacity=100_000)
        run_cell(CONFIGURATIONS["F"], policy,
                 StudyParameters(horizon=1200.0, warmup=360.0, batches=4,
                                 seed=7),
                 extra_sinks=[sink])
        assert sink.emitted == records


class TestOperationsFromBadSites:
    def test_read_from_down_site_raises(self, lan4):
        protocol = LexicographicDynamicVoting(ReplicaSet({1, 2, 3}))
        with pytest.raises(QuorumNotReachedError):
            protocol.read(lan4.view({2, 3}), 1)

    def test_write_from_non_copy_site_is_allowed(self, lan4):
        """Any site may originate an operation; only copies hold state."""
        protocol = LexicographicDynamicVoting(ReplicaSet({1, 2, 3}))
        verdict = protocol.write(lan4.view({1, 2, 3, 4}), 4)
        assert verdict.granted

    def test_recover_requires_a_copy(self, lan4):
        protocol = LexicographicDynamicVoting(ReplicaSet({1, 2, 3}))
        with pytest.raises(ConfigurationError):
            protocol.recover(lan4.view({1, 2, 3, 4}), 4)


class TestGenerationCheck:
    def test_divergent_current_sites_detected(self, lan4):
        """If two copies ever carry the same operation number with
        different partition sets, the protocol fails loudly rather than
        proceeding on a broken invariant."""
        replicas = ReplicaSet({1, 2})
        protocol = LexicographicDynamicVoting(replicas)
        replicas.state(1).commit(5, 1, {1})
        replicas.state(2).commit(5, 1, {2})
        with pytest.raises(ProtocolError):
            protocol.evaluate_block(lan4.view({1, 2}), frozenset({1, 2}))


class TestSynchronizeConvergence:
    def test_converges_with_many_stale_copies(self, lan4):
        protocol = LexicographicDynamicVoting(ReplicaSet({1, 2, 3, 4}))
        protocol.synchronize(lan4.view({1}))          # shrink to {1}
        protocol.synchronize(lan4.view({1, 2, 3, 4}))  # all return at once
        for site in (1, 2, 3, 4):
            assert (
                protocol.replicas.state(site).partition_set
                == frozenset({1, 2, 3, 4})
            )

    def test_operation_numbers_stay_aligned_after_sync(self, lan4):
        protocol = LexicographicDynamicVoting(ReplicaSet({1, 2, 3, 4}))
        protocol.synchronize(lan4.view({1, 2}))
        protocol.synchronize(lan4.view({1, 2, 3, 4}))
        ops = {protocol.replicas.state(s).operation for s in (1, 2, 3, 4)}
        assert len(ops) == 1
