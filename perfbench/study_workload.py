"""``study-tables``: the paper's Table 2/3 study, timed from outside.

All 8 placements x the 6 paper policies replay one shared seeded
failure trace in-process, exactly as ``repro study`` does.  The
untraced run calls :func:`repro.experiments.runner.run_study` with
``jobs=1``; the only thing the harness hands it beyond parameters is a
policy tuple that stamps the clock each time ``run_study`` asks for the
next policy, which is how per-cell wall times are read without a hook
inside the program.  The same tuple calibrates the machine speed before
each cell, and every cell is reported in reference seconds
(:func:`measure.calibrate`).

The traced run drives the same 48 cells through ``run_cell`` with a
timing wrapper around the :class:`~repro.net.topology.Topology` and a
protocol factory (a ``PolicySpec`` callable) whose protocol has its
``evaluate`` and its three callers timed, then requires the traced cells
to equal the untraced ones.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from measure import calibrate, median, quantile, ratio, speed_factor

#: Parameters of the pinned baseline run the output check replays.
CHECK_HORIZON = 2000.0
CHECK_BATCHES = 2
CHECK_SEED = 1988
BASELINE = Path("results") / "baseline_run" / "study.json"

#: The timed study: paper defaults except the horizon, chosen so that
#: one study takes a few seconds and a 40 s run repeats it about 10
#: times.
HORIZON = 2500.0
#: The traced run uses the horizon of the ROADMAP's evaluate-repeat
#: measurement, so its counts compare with 283,624 / 378,018 at seed 1988.
TRACE_HORIZON = 5000.0
WARMUP = 360.0
BATCHES = 20

SETUP_TRIALS = 5

_SETUP_PROGRAM = (
    "import time\n"
    "from measure import calibrate\n"
    "before = calibrate()\n"
    "t = time.perf_counter()\n"
    "from repro.experiments.runner import run_study\n"
    "from repro.experiments.testbed import testbed_topology\n"
    "testbed_topology()\n"
    "took = time.perf_counter() - t\n"
    "print(took, before, calibrate())\n"
)


def measure_setup(root: Path, trials: int = SETUP_TRIALS) -> list[float]:
    """Imports plus topology build, each in a fresh interpreter, in
    reference seconds (scaled by calibrations just before and after)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(Path(__file__).resolve().parent)]))
    times = []
    for _ in range(trials):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROGRAM], cwd=root, env=env,
            capture_output=True, text=True, timeout=60, check=True)
        took, before, after = map(
            float, done.stdout.strip().splitlines()[-1].split())
        times.append(took * speed_factor((before + after) / 2))
    return times


class _StampedPolicies(tuple):
    """The policy tuple ``run_study`` iterates once per configuration.

    Each step of the iteration brackets exactly one cell, so the time
    between handing out a policy and being asked for the next one is
    that cell's wall time.  A calibration runs just before each cell,
    outside the bracket; *cells* receives ``(cell seconds, calibration
    seconds)`` pairs.
    """

    def __new__(cls, policies, cells: list[tuple[float, float]]):
        made = super().__new__(cls, policies)
        made.cells = cells
        return made

    def __iter__(self):
        for policy in tuple.__iter__(self):
            calibration = calibrate()
            start = time.perf_counter()
            yield policy
            self.cells.append((time.perf_counter() - start, calibration))


def cell_documents(cells) -> dict[tuple[str, str], dict]:
    """Canonical per-cell dicts, keyed by (configuration, policy)."""
    from repro.experiments.study_io import study_to_dict

    return {(entry["config"], entry["policy"]): entry
            for entry in study_to_dict(cells)["cells"]}


def check_baseline(root: Path) -> tuple[int, int]:
    """Replay the pinned baseline's parameters; (matching, total) cells."""
    from repro.experiments.runner import StudyParameters, run_study

    expected = {(entry["config"], entry["policy"]): entry
                for entry in json.loads(
                    (root / BASELINE).read_text())["cells"]}
    got = cell_documents(run_study(StudyParameters(
        horizon=CHECK_HORIZON, warmup=WARMUP, batches=CHECK_BATCHES,
        seed=CHECK_SEED), jobs=1))
    matching = sum(1 for key, entry in expected.items()
                   if got.get(key) == entry)
    return matching, max(len(expected), len(got))


def timed_study(params) -> tuple[float, float, list[float], dict]:
    """One untraced study.

    Returns (wall seconds, reference seconds, per-cell reference
    seconds, cells).  Wall time excludes the calibrations; each cell is
    scaled by the calibration just before it, and the rest of the study
    (trace and access generation) by the median calibration.
    """
    from repro.core.registry import PAPER_POLICIES
    from repro.experiments.runner import run_study

    stamped: list[tuple[float, float]] = []
    start = time.perf_counter()
    cells = run_study(params, policies=_StampedPolicies(PAPER_POLICIES,
                                                        stamped), jobs=1)
    wall = time.perf_counter() - start - sum(c for _, c in stamped)
    cell_reference = [cell * speed_factor(c) for cell, c in stamped]
    rest = wall - sum(cell for cell, _ in stamped)
    reference = sum(cell_reference) + rest * speed_factor(
        median([c for _, c in stamped]))
    return wall, reference, cell_reference, cell_documents(cells)


class _Layers:
    """Accumulated outside-in timings and counts of the traced run."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        #: Whether the protocol of the cell being replayed is eager
        #: (replays trace transitions only) or optimistic (also the
        #: access stream).
        self.eager = True

    def count(self, name: str, calls: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + calls

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.count(name)


class _TimedTopology:
    """A topology whose ``view`` (the partition oracle) is timed."""

    def __init__(self, topology, layers: _Layers):
        self._topology = topology
        self._layers = layers
        self.site_ids = topology.site_ids

    def view(self, up):
        start = time.perf_counter()
        try:
            return self._topology.view(up)
        finally:
            self._layers.add("view", time.perf_counter() - start)


def _timed(method: Callable, name: str, layers: _Layers) -> Callable:
    def wrapper(view):
        start = time.perf_counter()
        try:
            return method(view)
        finally:
            layers.add(name, time.perf_counter() - start)
    return wrapper


def _instrumented_factory(policy: str, layers: _Layers,
                          seen: set) -> Callable:
    """A ``PolicySpec`` callable building *policy* with timed methods.

    ``evaluate`` is replaced on the instance, so every internal
    ``self.evaluate`` call goes through the wrapper too; its callers
    are timed as whole calls.  *seen* collects the (copy states,
    up-set) keys of one cell, to count evaluations that repeat one.
    """
    from repro.core.registry import make_protocol

    def build(replicas):
        protocol = make_protocol(policy, replicas)
        evaluate = protocol.evaluate
        copies = sorted(replicas.copy_sites)

        def timed_evaluate(view):
            key = (tuple(replicas.state(site).snapshot() for site in copies),
                   view.up)
            if key in seen:
                layers.count("evaluate_repeat")
            else:
                seen.add(key)
            start = time.perf_counter()
            try:
                return evaluate(view)
            finally:
                layers.add("evaluate", time.perf_counter() - start)

        protocol.evaluate = timed_evaluate
        for name in ("synchronize", "recover_stale", "is_available"):
            setattr(protocol, name,
                    _timed(getattr(protocol, name), name, layers))
        layers.eager = protocol.eager
        return protocol

    return build


def traced_study(params) -> tuple[float, float, _Layers, dict, int]:
    """One study with every layer timed from outside.

    Returns (traced total seconds, traced total in reference seconds,
    layers, cells, replayed events).  As in :func:`timed_study`, a
    calibration runs before each cell, outside the layer timings.
    """
    from repro.core.registry import PAPER_POLICIES
    from repro.experiments.configs import CONFIGURATIONS
    from repro.experiments.evaluator import poisson_times
    from repro.experiments.runner import run_cell
    from repro.experiments.testbed import testbed_topology
    from repro.failures.profiles import testbed_profiles
    from repro.failures.trace import generate_trace

    layers = _Layers()
    total_start = time.perf_counter()
    start = time.perf_counter()
    trace = generate_trace(testbed_profiles(), params.horizon, params.seed)
    layers.add("trace", time.perf_counter() - start)
    start = time.perf_counter()
    access_times = poisson_times(params.access_rate_per_day, trace.horizon,
                                 params.seed)
    layers.add("access", time.perf_counter() - start)
    topology = _TimedTopology(testbed_topology(), layers)
    cells = {}
    events = 0
    stamped: list[tuple[float, float]] = []
    for configuration in CONFIGURATIONS.values():
        for policy in PAPER_POLICIES:
            seen: set = set()
            calibration = calibrate()
            start = time.perf_counter()
            cells[(configuration.key, policy)] = run_cell(
                configuration, _instrumented_factory(policy, layers, seen),
                params, topology=topology, trace=trace,
                access_times=access_times)
            replay = time.perf_counter() - start
            layers.add("replay", replay)
            stamped.append((replay, calibration))
            events += len(trace.events)
            if not layers.eager:
                events += len(access_times)
    total = (time.perf_counter() - total_start
             - sum(c for _, c in stamped))
    reference = sum(cell * speed_factor(c) for cell, c in stamped) + (
        total - sum(cell for cell, _ in stamped)) * speed_factor(
            median([c for _, c in stamped]))
    layers.counts["trace_events"] = len(trace.events)
    return total, reference, layers, cell_documents(cells), events


def layer_metrics(total: float, layers: _Layers, events: int,
                  overhead: float) -> dict[str, float]:
    """The per-layer metrics of the traced study, by BENCHMARK.json name."""
    s, n = layers.seconds, layers.counts
    callers = (s.get("synchronize", 0.0) + s.get("recover_stale", 0.0)
               + s.get("is_available", 0.0))
    replay_self = s.get("replay", 0.0) - s.get("view", 0.0) - callers
    attributed = (s.get("trace", 0.0) + s.get("access", 0.0)
                  + s.get("replay", 0.0))
    return {
        "failures.trace_s": s.get("trace", 0.0),
        "failures.events": float(n.get("trace_events", 0)),
        "evaluator.access_s": s.get("access", 0.0),
        "net.view_s": s.get("view", 0.0),
        "net.view_calls": float(n.get("view", 0)),
        "core.evaluate_s": s.get("evaluate", 0.0),
        "core.evaluate_calls": float(n.get("evaluate", 0)),
        "core.evaluate_per_event": ratio(n.get("evaluate", 0), events),
        "core.evaluate_repeat_ratio": ratio(n.get("evaluate_repeat", 0),
                                            n.get("evaluate", 0)),
        "core.synchronize_s": s.get("synchronize", 0.0),
        "core.recover_stale_s": s.get("recover_stale", 0.0),
        "core.is_available_s": s.get("is_available", 0.0),
        "evaluator.replay_s": s.get("replay", 0.0),
        "evaluator.replay_self_s": replay_self,
        "evaluator.events": float(events),
        "study.traced_s": total,
        "study.unattributed_s": total - attributed,
        "study.tracing_overhead": overhead,
    }


def report_layers(metrics: dict[str, float], layers: _Layers,
                  traced_ref: float, untraced_ref: float, out) -> None:
    """The reconciliation table: layer rows plus unattributed = total."""
    total = metrics["study.traced_s"]
    rows = [
        ("failures.trace_s", "generate_trace"),
        ("evaluator.access_s", "poisson_times"),
        ("net.view_s", "Topology.view"),
        ("core.synchronize_s", "synchronize (incl. its evaluate calls)"),
        ("core.recover_stale_s", "recover_stale (incl. its evaluate calls)"),
        ("core.is_available_s", "is_available (incl. its evaluate calls)"),
        ("evaluator.replay_self_s",
         "replay merge loop, AvailabilityTracker, batch means"),
        ("study.unattributed_s", "unattributed"),
    ]
    print(f"# study-tables traced run: total {total:.3f} s", file=out)
    for name, what in rows:
        value = metrics[name]
        print(f"#   {name:<26} {value:9.3f} s  {ratio(value, total):6.1%}"
              f"  {what}", file=out)
    print(f"#   {'sum of rows':<26} "
          f"{sum(metrics[name] for name, _ in rows):9.3f} s", file=out)
    print(f"#   core.evaluate_s {metrics['core.evaluate_s']:.3f} s over "
          f"{int(metrics['core.evaluate_calls'])} calls; "
          f"{layers.counts.get('evaluate_repeat', 0)} of them repeat a key "
          f"(ratio {metrics['core.evaluate_repeat_ratio']:.4f}); "
          f"{metrics['core.evaluate_per_event']:.3f} calls per replayed "
          f"event over {int(metrics['evaluator.events'])} events", file=out)
    print(f"#   net.view_calls {int(metrics['net.view_calls'])}; "
          f"failures.events {int(metrics['failures.events'])}", file=out)
    print(f"#   tracing overhead, in reference seconds: traced "
          f"{traced_ref:.3f} s vs untraced {untraced_ref:.3f} s = "
          f"x{metrics['study.tracing_overhead']:.3f} "
          f"(+{traced_ref - untraced_ref:.3f} s)", file=out)


def run(root: Path, seed: int, seconds: float, trace: bool, out,
        horizon: float = 0.0) -> dict[str, Any]:
    """One benchmark run of ``study-tables``.

    Untraced, the study repeats while another one fits in *seconds*;
    traced, it runs once untraced and once traced.  *horizon* (days)
    overrides the workload's own, for the harness self-test.
    """
    from repro.experiments.runner import StudyParameters
    from repro.failures.profiles import testbed_profiles
    from repro.failures.trace import generate_trace

    horizon = horizon or (TRACE_HORIZON if trace else HORIZON)
    setups = measure_setup(root)
    matching, checked = check_baseline(root)
    print(f"# baseline check: {matching}/{checked} cells match "
          f"{BASELINE} (seed {CHECK_SEED}, horizon {CHECK_HORIZON:g}, "
          f"{CHECK_BATCHES} batches)", file=out)
    params = StudyParameters(horizon=horizon, warmup=WARMUP,
                             batches=BATCHES, seed=seed)
    transitions = len(generate_trace(testbed_profiles(), horizon,
                                     seed).events)
    walls: list[float] = []
    studies: list[float] = []
    #: Reference seconds per cell (in run_study's order), one per study.
    per_cell: list[list[float]] = []
    reference = None
    started = time.perf_counter()
    while not studies or (not trace and time.perf_counter() - started
                          + median(walls) <= seconds):
        wall, study, cells_s, cells = timed_study(params)
        walls.append(wall)
        studies.append(study)
        per_cell = per_cell or [[] for _ in cells_s]
        for times, cell in zip(per_cell, cells_s):
            times.append(cell)
        if reference is None:
            reference = cells
        checked += len(reference)
        matching += sum(1 for key, entry in reference.items()
                        if cells.get(key) == entry)
    study_s = median(studies)
    cell_medians = [median(times) for times in per_cell]
    print(f"# {len(studies)} studies at horizon {horizon:g}, seed {seed}: "
          "wall " + ", ".join(f"{w:.3f}" for w in walls) + " s; reference "
          + ", ".join(f"{s:.3f}" for s in studies) + " s; per-cell "
          f"quantiles over the {len(cell_medians)} cells' medians",
          file=out)
    print("# setup trials (reference s): "
          + ", ".join(f"{s:.4f}" for s in setups), file=out)
    result: dict[str, Any] = {
        "attempted": checked, "failed": checked - matching,
        "correct": matching == checked,
        "metrics": {
            "setup_s": (median(setups), "s"),
            "study_s": (study_s, "s"),
            "ops_per_s": (ratio(len(reference) * transitions, study_s),
                          "1/s"),
            "op_p50_ms": (1000.0 * quantile(cell_medians, 0.5), "ms"),
            "op_p99_ms": (1000.0 * quantile(cell_medians, 0.99), "ms"),
            "ok_ratio": (ratio(matching, checked), "ratio"),
        },
    }
    if not trace:
        return result
    total, traced_ref, layers, traced_cells, events = traced_study(params)
    same = sum(1 for key, entry in reference.items()
               if traced_cells.get(key) == entry)
    result["attempted"] += len(reference)
    result["failed"] += len(reference) - same
    result["correct"] = result["correct"] and same == len(reference)
    metrics = layer_metrics(total, layers, events,
                            ratio(traced_ref, study_s))
    report_layers(metrics, layers, traced_ref, study_s, out)
    result["layers"] = metrics
    return result
