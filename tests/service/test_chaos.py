"""Unit tests for the schedule-to-live-fault adapter."""

import asyncio

import pytest

from repro.chaos.schedule import ChaosPolicy, build_schedule
from repro.errors import ConfigurationError
from repro.service.chaos import (
    FaultEvent,
    LiveFaultDriver,
    ensure_minimums,
    live_plan_from_schedule,
)
from repro.service.proxy import ChaosRules

SITES = [1, 2, 3, 4, 5]


def _schedule(seed=1988, length=40, drop=0.05, delay=0.1):
    return build_schedule(
        seed, SITES, SITES,
        policy=ChaosPolicy(drop_rate=drop, delay_rate=delay),
        length=length, config="service-test",
    )


class TestLivePlan:
    def test_same_seed_same_plan(self):
        first = live_plan_from_schedule(_schedule(), 10.0)
        second = live_plan_from_schedule(_schedule(), 10.0)
        assert first == second

    def test_different_seeds_differ(self):
        assert live_plan_from_schedule(_schedule(seed=1), 10.0) != \
            live_plan_from_schedule(_schedule(seed=2), 10.0)

    def test_message_chaos_armed_at_start(self):
        plan = live_plan_from_schedule(_schedule(), 10.0)
        head_verbs = {event.verb for event in plan if event.at == 0.0}
        assert {"drop", "delay"} <= head_verbs

    def test_nothing_stays_broken(self):
        plan = live_plan_from_schedule(_schedule(), 10.0)
        crashes = sum(1 for e in plan if e.verb == "crash")
        restarts = sum(1 for e in plan if e.verb == "restart")
        partitions = sum(1 for e in plan if e.verb == "partition")
        heals = sum(1 for e in plan if e.verb == "heal")
        assert crashes == restarts
        assert partitions == heals

    def test_events_are_time_ordered_within_duration(self):
        duration = 8.0
        plan = live_plan_from_schedule(_schedule(), duration)
        offsets = [event.at for event in plan]
        assert offsets == sorted(offsets)
        assert all(0.0 <= at <= duration for at in offsets)

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            live_plan_from_schedule(_schedule(), 0.0)


class TestEnsureMinimums:
    def test_tops_up_an_empty_plan(self):
        plan = ensure_minimums([], SITES, 10.0,
                               min_kills=2, min_partitions=1)
        assert sum(1 for e in plan if e.verb == "crash") == 2
        assert sum(1 for e in plan if e.verb == "restart") == 2
        assert sum(1 for e in plan if e.verb == "partition") == 1
        assert sum(1 for e in plan if e.verb == "heal") == 1

    def test_leaves_a_sufficient_plan_alone(self):
        plan = [
            FaultEvent(1.0, "crash", site=5),
            FaultEvent(2.0, "restart", site=5),
            FaultEvent(3.0, "partition", blocks=((1, 2), (3, 4, 5))),
            FaultEvent(4.0, "heal"),
        ]
        assert ensure_minimums(plan, SITES, 10.0) == plan

    def test_partition_split_is_minority_majority(self):
        plan = ensure_minimums([], SITES, 10.0, min_kills=0)
        partition = next(e for e in plan if e.verb == "partition")
        sizes = sorted(len(block) for block in partition.blocks)
        assert sizes == [2, 3]

    def test_needs_two_sites(self):
        with pytest.raises(ConfigurationError):
            ensure_minimums([], [1], 10.0)

    def test_zero_quotas_strip_the_seeded_faults(self):
        seeded = live_plan_from_schedule(_schedule(), 10.0)
        assert {"crash", "restart", "partition", "heal"} <= {
            e.verb for e in seeded}
        verbs = {e.verb for e in ensure_minimums(
            seeded, SITES, 10.0, min_kills=0, min_partitions=0)}
        assert verbs == {"drop", "delay"}
        no_kills = ensure_minimums(seeded, SITES, 10.0, min_kills=0)
        assert not {"crash", "restart"} & {e.verb for e in no_kills}
        assert [e for e in no_kills if e.verb in ("partition", "heal")] \
            == [e for e in seeded if e.verb in ("partition", "heal")]
        no_partitions = ensure_minimums(seeded, SITES, 10.0,
                                        min_partitions=0)
        assert not {"partition", "heal"} & {e.verb for e in no_partitions}
        assert [e for e in no_partitions if e.verb in ("crash", "restart")] \
            == [e for e in seeded if e.verb in ("crash", "restart")]

    def test_negative_quota_rejected(self):
        with pytest.raises(ConfigurationError):
            ensure_minimums([], SITES, 10.0, min_kills=-1)


class _FakeSupervisor:
    def __init__(self):
        self.killed = []
        self.restarted = []

    def kill(self, site):
        self.killed.append(site)

    def restart(self, site):
        self.restarted.append(site)


class _FakeProxy:
    def __init__(self):
        self.rules = ChaosRules()


class TestLiveFaultDriver:
    def test_applies_every_verb(self):
        supervisor = _FakeSupervisor()
        proxy = _FakeProxy()
        plan = [
            FaultEvent(0.0, "drop", rate=0.25),
            FaultEvent(0.0, "delay", rate=0.5, delay_s=0.01),
            FaultEvent(0.0, "partition", blocks=((1,), (2, 3))),
            FaultEvent(0.0, "crash", site=2),
            FaultEvent(0.0, "restart", site=2),
            FaultEvent(0.0, "heal"),
        ]
        driver = LiveFaultDriver(plan, proxy=proxy, supervisor=supervisor)
        asyncio.run(driver.run())
        assert proxy.rules.drop_rate == 0.25
        assert proxy.rules.delay_rate == 0.5
        assert proxy.rules.partition is None  # healed at the end
        assert supervisor.killed == [2]
        assert supervisor.restarted == [2]
        assert len(driver.applied) == len(plan)
        assert all("applied_at" in record for record in driver.applied)

    def test_event_records_serialise(self):
        event = FaultEvent(1.25, "partition", blocks=((3, 1), (2,)))
        doc = event.to_dict()
        assert doc == {"at": 1.25, "verb": "partition",
                       "blocks": [[1, 3], [2]]}
