"""The benchmark trajectory: recorded points and the regression gate.

A *trajectory point* is one ``BENCH_<n>.json`` document at the repo
root: a set of benchmark statistics (median + IQR, the noise-robust
pair) stamped with the git SHA and a machine/interpreter fingerprint.
``repro bench record`` appends points; ``repro bench compare`` diffs
two and exits non-zero on a regression, which is what the CI
``bench-trajectory`` step gates on.  The schema is documented in
``BENCH_SCHEMA.md`` next to the committed seed baseline
(``BENCH_0.json``).

Two sources feed a point:

* ``--quick`` — a pinned subset of micro-workloads (mirroring
  ``benchmarks/test_bench_micro.py``) timed in-process with best-of
  rounds: seconds to run, stable enough for a smoke gate;
* pytest-benchmark — ingest the ``--benchmark-json`` document the full
  suite writes, so paper-scale timings enter the same trajectory.

Comparison is noise-aware: a benchmark regresses only when the median
moved by more than ``--max-regression`` (relative) *and* by more than
``iqr_factor`` times the larger IQR (absolute) — a single noisy round
cannot fail the gate.  Points from different interpreters or machines
are *incomparable*: the gate reports that instead of inventing a
verdict (override with ``--ignore-fingerprint`` where the noise budget
accounts for it, as CI does).
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import re
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError

__all__ = [
    "BenchComparison",
    "BenchmarkStat",
    "QUICK_WORKLOADS",
    "build_point",
    "compare_points",
    "ingest_pytest_benchmark",
    "latest_trajectory_path",
    "load_point",
    "machine_fingerprint",
    "next_trajectory_path",
    "noise_gated_verdict",
    "run_quick",
    "validate_point",
]

FORMAT = "repro-bench"
VERSION = 1

_TRAJECTORY_RE = re.compile(r"^BENCH_(\d+)\.json$")


# ----------------------------------------------------------------------
# the pinned quick workloads (the CI smoke subset)
# ----------------------------------------------------------------------
def _quick_kernel_events() -> int:
    from repro.sim.kernel import Simulation

    sim = Simulation()
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1
        if count < 10_000:
            sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return count


def _quick_partition_oracle() -> int:
    import random

    from repro.experiments.testbed import testbed_topology

    topology = testbed_topology()
    rng = random.Random(3)
    ups = [
        frozenset(s for s in range(1, 9) if rng.random() < 0.8)
        for _ in range(500)
    ]
    return sum(len(topology.blocks(up)) for up in ups)


def _quick_quorum_evaluation() -> int:
    import random

    from repro.core.registry import make_protocol
    from repro.experiments.testbed import testbed_topology
    from repro.replica.state import ReplicaSet

    topology = testbed_topology()
    protocol = make_protocol("OTDV", ReplicaSet({1, 2, 4, 6}))
    rng = random.Random(5)
    views = [
        topology.view(frozenset(s for s in range(1, 9)
                                if rng.random() < 0.8))
        for _ in range(300)
    ]
    return sum(1 for view in views if protocol.is_available(view))


def _quick_trace_generation() -> int:
    from repro.failures.profiles import testbed_profiles
    from repro.failures.trace import generate_trace

    return len(generate_trace(testbed_profiles(), 1460.0, seed=1))


def _quick_study_cell() -> float:
    """One seeded study cell end to end: trace, accesses and replay."""
    from repro.experiments.configs import CONFIGURATIONS
    from repro.experiments.runner import StudyParameters, run_cell

    params = StudyParameters(horizon=4000.0, warmup=360.0, batches=4,
                             seed=1988)
    return run_cell(CONFIGURATIONS["F"], "ODV", params).result.unavailability


#: The pinned micro subset behind ``repro bench record --quick``.
#: Names are stable identifiers — comparisons key on them.
QUICK_WORKLOADS: dict[str, Callable[[], Any]] = {
    "micro/kernel_event_throughput": _quick_kernel_events,
    "micro/partition_oracle": _quick_partition_oracle,
    "micro/quorum_evaluation": _quick_quorum_evaluation,
    "micro/trace_generation": _quick_trace_generation,
    "micro/study_cell": _quick_study_cell,
}


# ----------------------------------------------------------------------
# point construction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchmarkStat:
    """Noise-robust statistics of one benchmark in one point."""

    name: str
    rounds: int
    median: float
    iqr: float
    mean: float
    minimum: float
    maximum: float

    def to_dict(self) -> dict[str, Any]:
        """The JSON shape stored in a trajectory point."""
        return {
            "name": self.name,
            "rounds": self.rounds,
            "median": self.median,
            "iqr": self.iqr,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "unit": "seconds",
        }

    @staticmethod
    def from_rounds(name: str, rounds: Sequence[float]) -> "BenchmarkStat":
        """Summarise raw per-round timings."""
        if not rounds:
            raise ConfigurationError(f"benchmark {name!r} has no rounds")
        ordered = sorted(rounds)
        if len(ordered) >= 4:
            quartiles = statistics.quantiles(ordered, n=4)
            iqr = quartiles[2] - quartiles[0]
        elif len(ordered) >= 2:
            iqr = ordered[-1] - ordered[0]
        else:
            iqr = 0.0
        return BenchmarkStat(
            name=name,
            rounds=len(ordered),
            median=statistics.median(ordered),
            iqr=iqr,
            mean=statistics.fmean(ordered),
            minimum=ordered[0],
            maximum=ordered[-1],
        )


def machine_fingerprint() -> dict[str, Any]:
    """What must match for two points to be timing-comparable."""
    return {
        "implementation": platform.python_implementation(),
        "python": "%d.%d" % sys.version_info[:2],
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu_count": os.cpu_count(),
    }


def run_quick(
    rounds: int = 5,
    workloads: Optional[Mapping[str, Callable[[], Any]]] = None,
) -> list[BenchmarkStat]:
    """Time the pinned quick workloads: one warmup, then *rounds* laps."""
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    if workloads is None:
        workloads = QUICK_WORKLOADS
    stats = []
    for name, workload in workloads.items():
        workload()  # warmup: imports, allocator, branch caches
        laps = []
        for _ in range(rounds):
            start = time.perf_counter()
            workload()
            laps.append(time.perf_counter() - start)
        stats.append(BenchmarkStat.from_rounds(name, laps))
    return stats


def ingest_pytest_benchmark(document: Mapping[str, Any]) -> list[BenchmarkStat]:
    """Convert a pytest-benchmark ``--benchmark-json`` document."""
    benchmarks = document.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise ConfigurationError(
            "not a pytest-benchmark document: no 'benchmarks' array"
        )
    stats = []
    for entry in benchmarks:
        try:
            name = entry.get("fullname") or entry["name"]
            raw = entry["stats"]
            stats.append(BenchmarkStat(
                name=str(name),
                rounds=int(raw["rounds"]),
                median=float(raw["median"]),
                iqr=float(raw["iqr"]),
                mean=float(raw["mean"]),
                minimum=float(raw["min"]),
                maximum=float(raw["max"]),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed pytest-benchmark entry: {exc}"
            ) from exc
    return stats


def build_point(
    benchmarks: Sequence[BenchmarkStat],
    source: str,
    index: Optional[int] = None,
    note: str = "",
) -> dict[str, Any]:
    """Assemble one schema-valid trajectory point."""
    from repro.obs.manifest import git_revision

    sha, dirty = git_revision()
    point = {
        "format": FORMAT,
        "version": VERSION,
        "index": index,
        "recorded_at": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(),
        "source": source,
        "note": note,
        "git_sha": sha,
        "git_dirty": dirty,
        "fingerprint": machine_fingerprint(),
        "benchmarks": [stat.to_dict() for stat in benchmarks],
    }
    validate_point(point)
    return point


# ----------------------------------------------------------------------
# schema validation and trajectory files
# ----------------------------------------------------------------------
def validate_point(document: Any) -> None:
    """Raise :class:`ConfigurationError` unless *document* fits the
    ``repro-bench`` v1 schema (see ``BENCH_SCHEMA.md``)."""
    if not isinstance(document, Mapping):
        raise ConfigurationError("trajectory point is not a JSON object")
    if document.get("format") != FORMAT:
        raise ConfigurationError(
            f"not a {FORMAT} document (format={document.get('format')!r})"
        )
    if document.get("version") != VERSION:
        raise ConfigurationError(
            f"unsupported {FORMAT} version {document.get('version')!r}"
        )
    fingerprint = document.get("fingerprint")
    if not isinstance(fingerprint, Mapping):
        raise ConfigurationError("trajectory point lacks a fingerprint")
    for key in ("implementation", "python", "machine"):
        if not isinstance(fingerprint.get(key), str):
            raise ConfigurationError(
                f"fingerprint lacks the {key!r} string"
            )
    benchmarks = document.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise ConfigurationError(
            "trajectory point holds no benchmarks"
        )
    seen: set[str] = set()
    for entry in benchmarks:
        if not isinstance(entry, Mapping):
            raise ConfigurationError("benchmark entry is not an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigurationError("benchmark entry lacks a name")
        if name in seen:
            raise ConfigurationError(f"duplicate benchmark name {name!r}")
        seen.add(name)
        for key in ("median", "iqr", "mean", "min", "max"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                raise ConfigurationError(
                    f"benchmark {name!r}: {key} must be a number >= 0, "
                    f"got {value!r}"
                )
        rounds = entry.get("rounds")
        if not isinstance(rounds, int) or rounds < 1:
            raise ConfigurationError(
                f"benchmark {name!r}: rounds must be an int >= 1"
            )


def load_point(path: Union[str, pathlib.Path]) -> dict[str, Any]:
    """Read and validate one trajectory point."""
    path = pathlib.Path(path)
    try:
        document = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not JSON: {exc}") from exc
    try:
        validate_point(document)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return document


def _trajectory_indices(
    directory: Union[str, pathlib.Path]
) -> list[tuple[int, pathlib.Path]]:
    directory = pathlib.Path(directory)
    found = []
    if directory.is_dir():
        for entry in directory.iterdir():
            match = _TRAJECTORY_RE.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
    return sorted(found)


def next_trajectory_path(
    directory: Union[str, pathlib.Path]
) -> tuple[int, pathlib.Path]:
    """The ``(index, path)`` the next ``BENCH_<n>.json`` should use."""
    indices = _trajectory_indices(directory)
    index = indices[-1][0] + 1 if indices else 0
    return index, pathlib.Path(directory) / f"BENCH_{index}.json"


def latest_trajectory_path(
    directory: Union[str, pathlib.Path]
) -> Optional[pathlib.Path]:
    """The highest-numbered ``BENCH_<n>.json``, or ``None``."""
    indices = _trajectory_indices(directory)
    return indices[-1][1] if indices else None


# ----------------------------------------------------------------------
# comparison: the regression gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ComparisonRow:
    """One benchmark's verdict between two trajectory points."""

    name: str
    verdict: str  # improvement | within-noise | regression |
    #              only-baseline | only-current
    baseline_median: Optional[float] = None
    current_median: Optional[float] = None

    @property
    def ratio(self) -> Optional[float]:
        """current/baseline median, or ``None`` if either is missing."""
        if (
            self.baseline_median is None
            or self.current_median is None
            or self.baseline_median <= 0.0
        ):
            return None
        return self.current_median / self.baseline_median

    def to_dict(self) -> dict[str, Any]:
        """The JSON shape used in comparison exports."""
        return {
            "name": self.name,
            "verdict": self.verdict,
            "baseline_median": self.baseline_median,
            "current_median": self.current_median,
            "ratio": self.ratio,
        }


@dataclass(frozen=True)
class BenchComparison:
    """The diff of two trajectory points.

    ``status`` is ``"ok"`` (everything within noise or improved),
    ``"regression"`` (at least one benchmark regressed — the gate's
    exit-1 condition) or ``"incomparable"`` (fingerprint mismatch; no
    timing verdicts were produced).
    """

    status: str
    rows: tuple[ComparisonRow, ...]
    baseline_fingerprint: Mapping[str, Any]
    current_fingerprint: Mapping[str, Any]
    max_regression: float
    fingerprint_matches: bool

    @property
    def regressions(self) -> tuple[ComparisonRow, ...]:
        """The rows whose verdict is ``"regression"``."""
        return tuple(r for r in self.rows if r.verdict == "regression")

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable export (``--json-out``)."""
        return {
            "format": "repro-bench-comparison",
            "version": 1,
            "status": self.status,
            "max_regression": self.max_regression,
            "fingerprint_matches": self.fingerprint_matches,
            "baseline_fingerprint": dict(self.baseline_fingerprint),
            "current_fingerprint": dict(self.current_fingerprint),
            "rows": [row.to_dict() for row in self.rows],
        }


def noise_gated_verdict(
    baseline: float,
    current: float,
    baseline_noise: float,
    current_noise: float,
    max_regression: float,
    iqr_factor: float,
) -> str:
    """The dual noise gate shared by every regression comparison.

    A measurement regresses only when it grew by more than
    *max_regression* relative to the baseline **and** by more than
    *iqr_factor* times the larger of the two noise estimates — so
    neither a small drift on a quiet series nor a large wobble on a
    noisy one trips the verdict.  Improvement is symmetric.  The bench
    trajectory feeds medians and IQRs; the run registry feeds
    unavailabilities and their batch-means half-widths (``repro runs
    diff``) through the very same gate.

    Returns ``"regression"``, ``"improvement"`` or ``"within-noise"``.
    """
    delta = current - baseline
    noise = iqr_factor * max(baseline_noise, current_noise)
    threshold = max_regression * baseline
    if delta > threshold and delta > noise:
        return "regression"
    if -delta > threshold and -delta > noise:
        return "improvement"
    return "within-noise"


def _fingerprints_match(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    return all(
        a.get(key) == b.get(key)
        for key in ("implementation", "python", "machine")
    )


def compare_points(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    max_regression: float = 0.25,
    iqr_factor: float = 1.5,
    ignore_fingerprint: bool = False,
) -> BenchComparison:
    """Diff two trajectory points with noise-aware thresholds.

    A benchmark regresses when its median grew by more than
    *max_regression* (relative to the baseline median) **and** by more
    than *iqr_factor* times the larger of the two IQRs — both gates must
    open, so neither a small drift on a quiet benchmark nor a large
    wobble on a noisy one trips the verdict.  Improvement is symmetric.
    Benchmarks present in only one point are reported but never gate.

    Raises:
        ConfigurationError: invalid documents or thresholds.
    """
    validate_point(baseline)
    validate_point(current)
    if max_regression <= 0:
        raise ConfigurationError(
            f"max-regression must be > 0, got {max_regression}"
        )
    if iqr_factor < 0:
        raise ConfigurationError(
            f"iqr-factor must be >= 0, got {iqr_factor}"
        )
    base_fp = baseline["fingerprint"]
    cur_fp = current["fingerprint"]
    matches = _fingerprints_match(base_fp, cur_fp)
    if not matches and not ignore_fingerprint:
        return BenchComparison(
            status="incomparable",
            rows=(),
            baseline_fingerprint=base_fp,
            current_fingerprint=cur_fp,
            max_regression=max_regression,
            fingerprint_matches=False,
        )
    base_by_name = {b["name"]: b for b in baseline["benchmarks"]}
    cur_by_name = {b["name"]: b for b in current["benchmarks"]}
    rows = []
    for name in sorted(base_by_name.keys() | cur_by_name.keys()):
        base = base_by_name.get(name)
        cur = cur_by_name.get(name)
        if base is None:
            rows.append(ComparisonRow(
                name, "only-current", None, cur["median"]
            ))
            continue
        if cur is None:
            rows.append(ComparisonRow(
                name, "only-baseline", base["median"], None
            ))
            continue
        verdict = noise_gated_verdict(
            base["median"], cur["median"], base["iqr"], cur["iqr"],
            max_regression, iqr_factor,
        )
        rows.append(ComparisonRow(
            name, verdict, base["median"], cur["median"]
        ))
    status = "regression" if any(
        row.verdict == "regression" for row in rows
    ) else "ok"
    return BenchComparison(
        status=status,
        rows=tuple(rows),
        baseline_fingerprint=base_fp,
        current_fingerprint=cur_fp,
        max_regression=max_regression,
        fingerprint_matches=matches,
    )
