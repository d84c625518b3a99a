"""Adapting seeded chaos schedules to live faults on a real cluster.

The simulator's :class:`~repro.chaos.schedule.ChaosSchedule` speaks in
abstract steps; a running cluster needs wall-clock events: *at t=3.2s,
SIGKILL replica 4*.  :func:`live_plan_from_schedule` performs that
translation deterministically — same seed, same plan:

* ``crash``   → SIGKILL of the replica process (the harshest honest
  version of the paper's site failure: no flush, no goodbye);
* ``restart`` → respawn the process over its surviving data directory,
  which is what exercises WAL + snapshot recovery;
* ``flap``    → a short partition isolating one site, the live analogue
  of the schedule's mid-operation crash window;
* message-level ``drop_rate`` / ``delay_rate`` from the schedule's
  :class:`~repro.chaos.schedule.ChaosPolicy` arm the proxy's per-frame
  coins for the whole run.

:func:`ensure_minimums` tops a plan up with a deterministic kill and a
deterministic partition when the seeded schedule happened to contain
too few — the bench's acceptance gate requires at least one of each by
default — and strips a fault kind whose quota is zero.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.chaos.schedule import ChaosSchedule, derived_rng
from repro.errors import ConfigurationError

__all__ = [
    "FaultEvent",
    "LiveFaultDriver",
    "ensure_minimums",
    "live_plan_from_schedule",
]


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault: *verb* applied at *at* seconds into the run.

    Attributes:
        at: Offset from run start, in seconds.
        verb: ``"crash"``, ``"restart"``, ``"partition"``, ``"heal"``,
            ``"drop"`` or ``"delay"``.
        site: Victim site for crash/restart.
        blocks: Partition blocks for ``"partition"``.
        rate: Coin probability for ``"drop"`` / ``"delay"``.
        delay_s: Hold time for delayed frames.
    """

    at: float
    verb: str
    site: Optional[int] = None
    blocks: Optional[tuple[tuple[int, ...], ...]] = None
    rate: float = 0.0
    delay_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable record of this event."""
        doc: dict[str, Any] = {"at": round(self.at, 3), "verb": self.verb}
        if self.site is not None:
            doc["site"] = self.site
        if self.blocks is not None:
            doc["blocks"] = [sorted(block) for block in self.blocks]
        if self.verb in ("drop", "delay"):
            doc["rate"] = self.rate
        if self.verb == "delay":
            doc["delay_s"] = self.delay_s
        return doc


def live_plan_from_schedule(
    schedule: ChaosSchedule,
    duration: float,
    head: float = 0.15,
    tail: float = 0.30,
    flap_window: float = 1.5,
) -> list[FaultEvent]:
    """Map *schedule*'s fault steps onto a wall-clock plan.

    Faults land inside ``[head, 1 - tail]`` of *duration*, leaving a
    quiet warm-up at the front and a recovery grace at the back (every
    crashed site is restarted, and every partition healed, before the
    tail begins — the acceptance gate checks recovery, so the plan
    must give recovery a chance to run).
    """
    if duration <= 0:
        raise ConfigurationError(f"duration must be > 0, got {duration}")
    sites = sorted(schedule.copy_sites)
    fault_steps = [step for step in schedule.steps
                   if step.kind in ("crash", "restart", "flap")]
    window_start = head * duration
    window_end = (1.0 - tail) * duration
    rng = derived_rng(schedule.seed, "live-faults")
    events: list[FaultEvent] = []
    if schedule.policy.drop_rate:
        events.append(FaultEvent(0.0, "drop",
                                 rate=schedule.policy.drop_rate))
    if schedule.policy.delay_rate:
        events.append(FaultEvent(0.0, "delay",
                                 rate=schedule.policy.delay_rate,
                                 delay_s=0.02))
    down: set[int] = set()
    step_gap = (window_end - window_start) / max(1, len(fault_steps))
    for position, step in enumerate(fault_steps):
        at = window_start + position * step_gap
        if step.kind == "crash" and step.site is not None \
                and step.site not in down and len(down) + 1 < len(sites):
            down.add(step.site)
            events.append(FaultEvent(at, "crash", site=step.site))
        elif step.kind == "restart" and step.site is not None \
                and step.site in down:
            down.discard(step.site)
            events.append(FaultEvent(at, "restart", site=step.site))
        elif step.kind == "flap":
            victim = rng.choice(sites)
            rest = tuple(s for s in sites if s != victim)
            until = min(at + flap_window, window_end)
            events.append(FaultEvent(
                at, "partition", blocks=((victim,), rest)))
            events.append(FaultEvent(until, "heal"))
    # Recovery grace: nothing stays broken past the fault window.
    for position, site in enumerate(sorted(down)):
        events.append(FaultEvent(window_end + 0.1 * (position + 1),
                                 "restart", site=site))
    events.sort(key=lambda event: event.at)
    return events


def ensure_minimums(
    events: list[FaultEvent],
    sites: Iterable[int],
    duration: float,
    min_kills: int = 1,
    min_partitions: int = 1,
) -> list[FaultEvent]:
    """Fit the plan to the acceptance gate's fault quota.

    Appends deterministic kills (highest site first, restarted before
    the recovery grace) and a deterministic majority/minority split
    until the plan holds at least *min_kills* crashes and
    *min_partitions* partitions.  A zero quota means none of that kind:
    ``min_kills=0`` removes every crash and restart, and
    ``min_partitions=0`` every partition and heal.
    """
    sites = sorted(sites)
    if len(sites) < 2:
        raise ConfigurationError("a fault plan needs >= 2 sites")
    if min_kills < 0 or min_partitions < 0:
        raise ConfigurationError(
            f"fault quotas must be >= 0, got {min_kills} kill(s) and "
            f"{min_partitions} partition(s)"
        )
    stripped = set()
    if min_kills == 0:
        stripped |= {"crash", "restart"}
    if min_partitions == 0:
        stripped |= {"partition", "heal"}
    out = [event for event in events if event.verb not in stripped]
    kills = sum(1 for event in out if event.verb == "crash")
    partitions = sum(1 for event in out if event.verb == "partition")
    extra = 0
    while kills < min_kills:
        victim = sites[-1 - (extra % len(sites))]
        out.append(FaultEvent(0.35 * duration + 0.05 * extra,
                              "crash", site=victim))
        out.append(FaultEvent(0.60 * duration + 0.05 * extra,
                              "restart", site=victim))
        kills += 1
        extra += 1
    while partitions < min_partitions:
        split = max(1, len(sites) // 2)
        minority = tuple(sites[:split])
        majority = tuple(sites[split:])
        out.append(FaultEvent(0.30 * duration + 0.05 * extra,
                              "partition", blocks=(minority, majority)))
        out.append(FaultEvent(0.55 * duration + 0.05 * extra, "heal"))
        partitions += 1
        extra += 1
    out.sort(key=lambda event: event.at)
    return out


@dataclass
class LiveFaultDriver:
    """Plays a fault plan against a proxy and a process supervisor.

    Attributes:
        plan: The timed events to apply.
        proxy: The :class:`~repro.service.proxy.ChaosProxy` whose rules
            partition/drop/delay events mutate (may be ``None`` when
            the plan holds only crash/restart events).
        supervisor: Anything with ``kill(site)`` / ``restart(site)``
            (the local cluster).
        applied: Filled while running — one dict per applied event,
            stamped with the actual wall offset.
    """

    plan: list[FaultEvent]
    proxy: Optional[Any] = None
    supervisor: Optional[Any] = None
    applied: list[dict[str, Any]] = field(default_factory=list)

    async def run(self) -> None:
        """Apply every event at its offset; returns after the last."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        for event in sorted(self.plan, key=lambda e: e.at):
            remaining = start + event.at - loop.time()
            if remaining > 0:
                await asyncio.sleep(remaining)
            self._apply(event)
            record = event.to_dict()
            record["applied_at"] = round(loop.time() - start, 3)
            self.applied.append(record)

    def _apply(self, event: FaultEvent) -> None:
        rules = self.proxy.rules if self.proxy is not None else None
        if event.verb == "partition" and rules is not None:
            rules.note_fault(event.to_dict())
            rules.set_partition(event.blocks or ())
        elif event.verb == "heal" and rules is not None:
            rules.note_fault(event.to_dict())
            rules.heal()
        elif event.verb == "drop" and rules is not None:
            rules.note_fault(event.to_dict())
            rules.drop_rate = event.rate
        elif event.verb == "delay" and rules is not None:
            rules.note_fault(event.to_dict())
            rules.delay_rate = event.rate
            rules.delay_s = event.delay_s or rules.delay_s
        elif event.verb == "crash" and self.supervisor is not None \
                and event.site is not None:
            self.supervisor.kill(event.site)
        elif event.verb == "restart" and self.supervisor is not None \
                and event.site is not None:
            self.supervisor.restart(event.site)
