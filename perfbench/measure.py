"""Helpers shared by the workloads: machine-speed calibration,
quantiles, span self time, hygiene.

Nothing here imports ``repro``: the harness must be able to say "no
source tree here" before any program import is attempted, and the
calibration must not depend on the program it calibrates.
"""

from __future__ import annotations

import socket
import statistics
import time
from typing import Any, Iterable, Mapping, Optional, Sequence

#: Seconds :func:`calibrate` takes on the reference machine (the 2-core
#: VM the benchmark was defined on, in its fast periods: the 5th
#: percentile of 2,000 calls).
REFERENCE_CALIBRATION_S = 0.0083


def _calibration_work() -> int:
    """Fixed pure-Python work with the study's mix of operations:
    dict stores, small frozenset/set algebra, integer arithmetic."""
    total = 0
    table: dict[int, Any] = {}
    sites = frozenset(range(8))
    for i in range(30000):
        key = i & 255
        table[key] = (sites & {key & 7, 3}) or total
        total += i * 3 % 7
    return total


def calibrate() -> float:
    """Seconds one fixed calibration workload takes right now.

    The shared machine's speed swings by up to 2x over seconds (other
    tenants' load), and a slow period stretches CPU-bound work and this
    loop alike.  Timings multiplied by :func:`speed_factor` of a
    calibration taken next to them read in reference-machine seconds.
    """
    start = time.perf_counter()
    _calibration_work()
    return time.perf_counter() - start


def speed_factor(calibration_s: float) -> float:
    """Reference seconds per measured second, from one calibration."""
    return REFERENCE_CALIBRATION_S / calibration_s


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    index = min(int(position), len(ordered) - 2)
    fraction = position - index
    return ordered[index] + fraction * (ordered[index + 1] - ordered[index])


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_name(name: str) -> str:
    """A span name as a metric name: ``rpc.state?`` -> ``rpc.state``."""
    return name.replace("?", "")


def span_times(
    traces: Mapping[str, Any],
) -> tuple[dict[str, float], dict[str, float], float]:
    """Self time and exclusive time per span name, plus the root total.

    *traces* is :func:`repro.obs.dtrace.collect.build_traces` output.

    * Self time follows the usual definition: a span's duration minus
      the part of it that its children cover.  Children sent in
      parallel (a ``state?`` broadcast) overlap, so self times of
      siblings can add up to more than their parent's wall time.
    * Exclusive time splits every instant of a client operation's
      interval equally among the deepest spans active at that instant,
      so per name it sums exactly to the total duration of the client
      operation roots — the reconciliation the report prints.

    All processes run on one host, so span start times (wall clock)
    are comparable across span logs.
    """
    self_s: dict[str, float] = {}
    exclusive_s: dict[str, float] = {}
    root_total = 0.0
    for trace in traces.values():
        for root in trace.roots:
            nodes = _clipped_tree(trace, root)
            _accumulate_self(nodes, self_s)
            if str(root.get("name", "")).startswith("client."):
                root_total += float(root.get("dur", 0.0))
                _accumulate_exclusive(nodes, exclusive_s)
    return self_s, exclusive_s, root_total


def _clipped_tree(trace: Any, root: Mapping[str, Any]
                  ) -> list[tuple[str, float, float, int, Optional[int]]]:
    """``(name, start, end, depth, parent index)`` for the subtree of
    *root*, each interval clipped to its parent's."""
    nodes: list[tuple[str, float, float, int, Optional[int]]] = []
    start = float(root.get("start", 0.0))
    stack = [(root, start, start + float(root.get("dur", 0.0)), 0, None)]
    while stack:
        record, lo, hi, depth, parent = stack.pop()
        index = len(nodes)
        nodes.append((span_name(str(record.get("name", "?"))),
                      lo, hi, depth, parent))
        for child in trace.children.get(str(record["span"]), ()):
            c_lo = max(lo, float(child.get("start", 0.0)))
            c_hi = min(hi, float(child.get("start", 0.0))
                       + float(child.get("dur", 0.0)))
            stack.append((child, c_lo, max(c_lo, c_hi), depth + 1, index))
    return nodes


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    reach = None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def _accumulate_self(nodes, out: dict[str, float]) -> None:
    children: dict[int, list[tuple[float, float]]] = {}
    for name, lo, hi, _, parent in nodes:
        if parent is not None:
            children.setdefault(parent, []).append((lo, hi))
    for index, (name, lo, hi, _, _) in enumerate(nodes):
        covered = _union_length(children.get(index, ()))
        out[name] = out.get(name, 0.0) + max(0.0, (hi - lo) - covered)


def _accumulate_exclusive(nodes, out: dict[str, float]) -> None:
    cuts = sorted({point for _, lo, hi, _, _ in nodes for point in (lo, hi)})
    for left, right in zip(cuts, cuts[1:]):
        if right <= left:
            continue
        active = [(depth, name) for name, lo, hi, depth, _ in nodes
                  if lo <= left and hi >= right]
        if not active:
            continue
        deepest = max(depth for depth, _ in active)
        owners = [name for depth, name in active if depth == deepest]
        share = (right - left) / len(owners)
        for name in owners:
            out[name] = out.get(name, 0.0) + share


def port_listening(host: str, port: int) -> bool:
    """Whether something still accepts connections on *port*."""
    try:
        with socket.create_connection((host, port), timeout=0.2):
            return True
    except OSError:
        return False
