"""``kv-contended`` and ``kv-partition``: the live ODV service, timed from
the client side.

Both build a five-replica ODV cluster directly with
``LocalCluster(ClusterSpec(...))``.  ``repro service bench`` is not
used: its fault plan goes through ``ensure_minimums``, which still adds
a kill and a partition at ``--kills 0 --partitions 0``.

Replica-side layers come from each replica's ``metrics?`` frame, read
over its direct port once the load has finished, and from the proxy's
in-process registry.  The traced run also merges the span logs that
``ClusterSpec(trace=True)`` makes every replica (and the proxy) write,
together with the clients' in-memory spans.
"""

from __future__ import annotations

import json
import random
import threading
import time
from pathlib import Path
from typing import Any, Optional

from measure import (
    calibrate,
    median,
    port_listening,
    quantile,
    ratio,
    span_times,
    speed_factor,
)

REPLICAS = 5
POLICY = "ODV"
HOST = "127.0.0.1"
SETUP_TRIALS = 5

#: kv-contended: two closed-loop clients, half puts, no think time.
CONTENDED_CLIENTS = 2
CONTENDED_WRITE_RATIO = 0.5
#: Calibrations per quiet moment around a cluster start.
CALIBRATIONS = 3

#: kv-partition: one open-loop sender at a fixed rate well below the
#: healthy capacity through the proxy (about 28 ops/s with one
#: operation in flight), so the backlog a partition leaves drains.
PARTITION_RATE = 12.0
PARTITION_WRITE_RATIO = 0.1
PARTITION_KEYS = 8
#: The fault plan, as (fraction of the run, action).  Site 5 is on the
#: majority side of the {1,2} | {3,4,5} partition.
KILLED_SITE = 5
FAULT_PLAN = (
    (0.20, "partition"),
    (0.35, "heal"),
    (0.50, "kill"),
    (0.55, "restart"),
)
RECOVERY_TIMEOUT = 30.0


#: Replica frames of the quorum round (``?`` dropped as in span names).
ROUND_FRAMES = ("state?", "commit", "release")


# ----------------------------------------------------------------------
# cluster lifecycle
# ----------------------------------------------------------------------
def start_cluster(directory: Path, proxy: bool, trace: bool):
    """A started cluster and its set-up time (start until all answer)."""
    from repro.service.cluster import ClusterSpec, LocalCluster

    cluster = LocalCluster(ClusterSpec(
        directory=str(directory), replicas=REPLICAS, policy=POLICY,
        host=HOST, fsync="always", proxy=proxy, trace=trace))
    start = time.perf_counter()
    try:
        cluster.start()
    except BaseException:
        stop_cluster(cluster)
        raise
    return cluster, time.perf_counter() - start


def stop_cluster(cluster) -> list[str]:
    """Stop *cluster*; returns any replica process or port that survived.

    A leaked replica would take one of the machine's cores from the
    next run, so a survivor is killed here and reported as a failure.
    """
    cluster.stop()
    leaks = []
    for site, process in cluster.processes.items():
        if process.poll() is None:
            leaks.append(f"site {site} pid {process.pid} still running")
            process.kill()
            process.wait(timeout=10.0)
    ports = list(cluster.replica_ports.values()) \
        + list(cluster.proxy_ports.values())
    leaks += [f"port {port} still listening" for port in ports
              if port_listening(HOST, port)]
    return leaks


def setup_trials(workdir: Path, proxy: bool, trace: bool, trials: int):
    """Start *trials* clusters, keeping the last; (cluster, reference
    seconds per start, leaks).  Each start is scaled by calibrations
    taken just before and just after it."""
    times, leaks = [], []
    for index in range(trials):
        last = index == trials - 1
        before = quiet_calibration()
        cluster, seconds = start_cluster(
            workdir / ("cluster" if last else f"setup-{index}"), proxy,
            trace=trace and last)
        times.append(seconds * speed_factor(
            (before + quiet_calibration()) / 2))
        if last:
            return cluster, times, leaks
        leaks += stop_cluster(cluster)
    raise ValueError("setup needs at least one trial")


def scrape(cluster) -> tuple[list[dict], list[dict]]:
    """(replica series from every site's ``metrics?``, proxy series)."""
    from repro.obs.tsdb.scrape import SocketScrapeTarget

    series: list[dict] = []
    for name, (host, port) in cluster.scrape_addresses().items():
        series += SocketScrapeTarget(name, host, port, timeout=5.0).collect()
    return series, cluster.proxy_metrics.to_dict()["series"]


def history_violations(cluster) -> list[dict]:
    """Offline safety checks over the stopped cluster's WALs."""
    from repro.service.invariants import check_histories, collect_histories

    return check_histories(collect_histories(cluster.root, cluster.sites))


# ----------------------------------------------------------------------
# series arithmetic
# ----------------------------------------------------------------------
def _select(series, name, **labels):
    return [s for s in series if s["name"] == name
            and all(s["labels"].get(k) == v for k, v in labels.items())]


def _value(series, name, **labels) -> float:
    return sum(float(s["value"]) for s in _select(series, name, **labels))


def _sum_count(series, name, **labels) -> tuple[float, int]:
    chosen = _select(series, name, **labels)
    return (sum(float(s["sum"]) for s in chosen),
            sum(int(s["count"]) for s in chosen))


def _mean_ms(series, name) -> float:
    total, count = _sum_count(series, name)
    return 1000.0 * ratio(total, count)


def longest_gap(ok_times: list[float], end: float) -> float:
    """The longest stretch of the run without an ok completion."""
    marks = [0.0] + sorted(ok_times) + [end]
    return max(b - a for a, b in zip(marks, marks[1:]))


def service_layers(series, proxy_series, ok_ops: int, ops: int,
                   attempts: int, out) -> dict[str, float]:
    """Per-layer metrics from the scraped registries."""
    op_s, op_n = _sum_count(series, "service.op.seconds")
    collect_s, rounds = _sum_count(series, "replica.round.collect.seconds")
    evaluate_s, _ = _sum_count(series, "replica.round.evaluate.seconds")
    commit_s, _ = _sum_count(series, "replica.round.commit.seconds")
    denied = _value(series, "replica.lease.denied")
    frames = sum(_value(series, "replica.frames", kind=kind)
                 for kind in ROUND_FRAMES)
    frame_bytes = _value(series, "replica.frame.bytes")
    records = _value(series, "wal.records")
    wal_bytes = _value(series, "wal.bytes")
    dropped = _value(proxy_series, "proxy.frames", verdict="drop")
    seen = _value(proxy_series, "proxy.frames")
    layers = {
        "client.attempts_per_op": ratio(attempts, ops),
        "replica.op_ms": 1000.0 * ratio(op_s, op_n),
        "replica.wait_ms": 1000.0 * ratio(
            op_s - collect_s - evaluate_s - commit_s, op_n),
        "replica.rounds_per_op": ratio(rounds, ok_ops),
        "replica.lease_denied_per_op": ratio(denied, ok_ops),
        "replica.collect_ms": _mean_ms(series,
                                       "replica.round.collect.seconds"),
        "quorum.evaluate_ms": _mean_ms(series,
                                       "replica.round.evaluate.seconds"),
        "replica.commit_ms": _mean_ms(series, "replica.round.commit.seconds"),
        "replica.peer_frames_per_op": ratio(frames, ok_ops),
        "replica.frame_bytes_per_op": ratio(frame_bytes, ok_ops),
        "wal.append_ms": _mean_ms(series, "wal.append.seconds"),
        "wal.fsync_ms": _mean_ms(series, "wal.fsync.seconds"),
        "wal.records_per_op": ratio(records, ok_ops),
        "wal.bytes_per_op": ratio(wal_bytes, ok_ops),
        "wal.snapshot_ms": _mean_ms(series, "wal.snapshot.seconds"),
        "proxy.dropped_ratio": ratio(dropped, seen),
        "replica.recover_ms": _mean_ms(series, "replica.recover.seconds"),
    }
    print(f"# bases: {ops} client operations, {ok_ops} ok, {attempts} "
          f"attempts; {op_n} replica-side operations over {op_s:.3f} s "
          f"(collect {collect_s:.3f} s in {rounds} rounds, evaluate "
          f"{evaluate_s:.3f} s, commit {commit_s:.3f} s); {int(denied)} "
          f"lease denials; {int(frames)} round frames, {int(frame_bytes)} "
          f"reply bytes; {int(records)} WAL records, {int(wal_bytes)} WAL "
          f"bytes; proxy dropped {int(dropped)} of {int(seen)} frames",
          file=out)
    return layers


def span_layers(spans: list[dict], operations: int, out
                ) -> dict[str, float]:
    """``span.<name>.self_s`` plus the reconciliation table."""
    from repro.obs.dtrace.collect import build_traces

    traces = build_traces(spans)
    self_s, exclusive_s, total = span_times(traces)
    print(f"# traced client operations: {total:.3f} s in total over "
          f"{operations} operations; exclusive time per span "
          "(each instant split among the deepest active spans):",
          file=out)
    for name, seconds in sorted(exclusive_s.items(),
                                key=lambda item: -item[1]):
        what = "unattributed (client op, outside any attempt)" \
            if name in ("client.get", "client.put") else ""
        print(f"#   {name:<18} {seconds:9.3f} s  "
              f"{ratio(seconds, total):6.1%}  {what}", file=out)
    print(f"#   {'sum of rows':<18} {sum(exclusive_s.values()):9.3f} s",
          file=out)
    return {f"span.{name}.self_s": seconds
            for name, seconds in self_s.items()}


# ----------------------------------------------------------------------
# loads
# ----------------------------------------------------------------------
class ClosedLoop:
    """Two closed-loop clients for the whole load phase, in wall time.

    Each client is the load generator's own single-writer worker (its
    key space, its stale-read check).  Nothing is scaled by machine
    speed: the contended service waits on leases, backoff and fsync as
    well as computing, and on the reference VM its wall figures spread
    less across seeds than the same figures scaled by calibrations
    taken between chunks of the load (perfbench/NOTES.md).
    """

    def __init__(self, addresses, seed: int, trace: bool):
        from repro.service.loadgen import LoadSpec, _Worker

        spec = LoadSpec(workers=CONTENDED_CLIENTS,
                        write_ratio=CONTENDED_WRITE_RATIO, think_s=0.0,
                        seed=seed, trace=trace)
        self.stop = threading.Event()
        self.started = time.monotonic()
        self.workers = [_Worker(index, addresses, spec, self.stop,
                                self.started)
                        for index in range(CONTENDED_CLIENTS)]
        self.wall = 0.0

    def run(self, seconds: float) -> None:
        threads = [threading.Thread(target=worker.run)
                   for worker in self.workers]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        self.stop.wait(seconds)
        self.stop.set()
        for thread in threads:
            thread.join()
        self.wall = time.monotonic() - start

    @property
    def samples(self) -> list[dict]:
        return [sample for worker in self.workers
                for sample in worker.samples]

    @property
    def throughput(self) -> float:
        """ok operations per wall second of the load phase."""
        return ratio(sum(1 for sample in self.samples
                         if sample["outcome"] == "ok"), self.wall)

    @property
    def latencies(self) -> list[float]:
        """Send-to-reply seconds, per sample."""
        return [sample["latency"] for sample in self.samples]

    @property
    def lags(self) -> list[float]:
        return []  # a closed loop has no due times

    @property
    def violations(self) -> list[dict]:
        return [v for worker in self.workers for v in worker.violations]

    @property
    def spans(self) -> list[dict]:
        return [span for worker in self.workers
                if worker.recorder is not None
                for span in worker.recorder.sink.records]


def quiet_calibration() -> float:
    """Median of a few calibrations, taken while no operation runs."""
    return median([calibrate() for _ in range(CALIBRATIONS)])


def arrivals(seed: int, seconds: float) -> list[tuple[float, bool, int]]:
    """The open loop's seeded schedule: (due offset, is put, key slot).

    A Poisson process conditioned on its count: exactly rate x seconds
    arrivals at seeded uniform times, so the offered load is the same
    for every seed and only its timing varies.
    """
    rng = random.Random(f"perfbench:{seed}:arrivals")
    dues = sorted(rng.uniform(0.0, seconds)
                  for _ in range(round(PARTITION_RATE * seconds)))
    return [(due, rng.random() < PARTITION_WRITE_RATIO,
             rng.randrange(PARTITION_KEYS)) for due in dues]


class OpenLoop:
    """One sender thread replaying :func:`arrivals` against the cluster.

    The stale-read bookkeeping is the load generator's own single-writer
    worker; this class only decides *when* each operation is sent and
    times it from its due time.

    Nothing is scaled by machine speed here: the median healthy round
    does not follow the calibration loop (13-16.6 ms over twelve
    fault-free runs while the loop swung from 9 to 22 ms), and the tail
    is made of ``peer_timeout`` waits.
    """

    def __init__(self, addresses, seed: int, seconds: float, trace: bool):
        from repro.service.loadgen import LoadSpec, _Worker

        self.schedule = arrivals(seed, seconds)
        spec = LoadSpec(duration=seconds, workers=1,
                        write_ratio=PARTITION_WRITE_RATIO,
                        keys_per_worker=PARTITION_KEYS, think_s=0.0,
                        seed=seed, trace=trace)
        self.started = time.monotonic()
        self.worker = _Worker(0, addresses, spec, threading.Event(),
                              self.started)
        #: Due-time-to-reply seconds and sender lateness, per sample.
        self.latencies: list[float] = []
        self.lags: list[float] = []
        self.wall = 0.0
        self.error: Optional[Exception] = None
        self.thread = threading.Thread(target=self._run, name="open-loop")

    @property
    def samples(self) -> list[dict]:
        return self.worker.samples

    @property
    def throughput(self) -> float:
        """ok operations per wall second: follows the offered rate."""
        return ratio(sum(1 for sample in self.samples
                         if sample["outcome"] == "ok"), self.wall)

    @property
    def violations(self) -> list[dict]:
        return self.worker.violations

    @property
    def spans(self) -> list[dict]:
        recorder = self.worker.recorder
        return recorder.sink.records if recorder is not None else []

    def _run(self) -> None:
        try:
            for due, put, slot in self.schedule:
                due_at = self.started + due
                delay = due_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                self.lags.append(time.monotonic() - due_at)
                key = self.worker.keys[slot]
                if put:
                    self.worker._put(key)
                else:
                    self.worker._get(key)
                self.latencies.append(time.monotonic() - due_at)
        except Exception as exc:  # re-raised by partition_load
            self.error = exc
        finally:
            self.wall = time.monotonic() - self.started


def _marker(cluster, site: int) -> tuple[Optional[dict], int]:
    from repro.service.replica import RECOVERY_MARKER

    path = cluster.data_dir(site) / RECOVERY_MARKER
    try:
        return json.loads(path.read_text()), path.stat().st_mtime_ns
    except (OSError, ValueError):
        return None, 0


def await_reinsertion(cluster, site: int, restarted_ns: int,
                      restarted_at: float) -> Optional[float]:
    """Seconds from restart until *site*'s marker, rewritten after the
    restart, reads verified and reinserted; ``None`` on timeout."""
    deadline = time.monotonic() + RECOVERY_TIMEOUT
    while time.monotonic() < deadline:
        marker, written_ns = _marker(cluster, site)
        if marker and written_ns >= restarted_ns \
                and marker.get("verified") and marker.get("reinserted"):
            return time.monotonic() - restarted_at
        time.sleep(0.05)
    return None


def partition_load(cluster, seed: int, seconds: float, trace: bool):
    """Open loop through the fault plan; (loop, reinsert seconds)."""
    loop = OpenLoop(cluster.client_addresses, seed, seconds, trace)
    loop.thread.start()
    restarted_ns, restarted_at = 0, 0.0
    try:
        for fraction, action in FAULT_PLAN:
            delay = loop.started + fraction * seconds - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            if action == "partition":
                cluster.rules.set_partition([{1, 2}, {3, 4, 5}])
            elif action == "heal":
                cluster.rules.heal()
            elif action == "kill":
                cluster.kill(KILLED_SITE)
            else:
                restarted_ns = time.time_ns()
                restarted_at = time.monotonic()
                cluster.restart(KILLED_SITE)
    finally:
        cluster.rules.heal()
        loop.thread.join()
    if loop.error is not None:
        raise loop.error
    return loop, await_reinsertion(cluster, KILLED_SITE, restarted_ns,
                                   restarted_at)


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def _one_pass(workload: str, workdir: Path, seed: int, seconds: float,
              trace: bool, trials: int, out) -> dict[str, Any]:
    """Set up, load, check and tear down one cluster."""
    from repro.obs.dtrace.collect import load_span_logs

    proxy = workload == "kv-partition"
    cluster, setups, leaks = setup_trials(workdir, proxy, trace, trials)
    reinsert_s = None
    try:
        if proxy:
            load, reinsert_s = partition_load(cluster, seed, seconds, trace)
        else:
            load = ClosedLoop(cluster.client_addresses, seed, trace)
            load.run(seconds)
        series, proxy_series = scrape(cluster)
    finally:
        leaks += stop_cluster(cluster)
    history = history_violations(cluster)
    samples = load.samples
    ok = [i for i, sample in enumerate(samples) if sample["outcome"] == "ok"]
    failures = ([f"stale read: {v}" for v in load.violations]
                + [f"history: {v}" for v in history]
                + [f"leak: {leak}" for leak in leaks])
    if proxy and reinsert_s is None:
        failures.append(f"site {KILLED_SITE} recovery marker never read "
                        "verified and reinserted")
    for failure in failures:
        print(f"# CHECK FAILED: {failure}", file=out)
    outcomes: dict[str, int] = {}
    for sample in samples:
        outcomes[sample["outcome"]] = outcomes.get(sample["outcome"], 0) + 1
    print(f"# {workload} seed {seed}: {len(samples)} operations "
          f"{dict(sorted(outcomes.items()))} in {load.wall:.3f} s wall; "
          "setup trials (reference s) "
          + ", ".join(f"{s:.4f}" for s in setups), file=out)
    return {
        "load": load, "ok": len(ok), "setups": setups, "failures": failures,
        "latencies": [load.latencies[i] for i in ok],
        "ok_times": [samples[i]["t"] for i in ok],
        "series": series, "proxy_series": proxy_series,
        "spans": (load.spans + load_span_logs(cluster.root)
                  if trace else []),
        "reinsert_s": reinsert_s,
    }


def _end_to_end(run: dict[str, Any]) -> dict[str, tuple[float, str]]:
    load = run["load"]
    return {
        "setup_s": (median(run["setups"]), "s"),
        "study_s": (load.wall, "s"),
        "ops_per_s": (load.throughput, "1/s"),
        "op_p50_ms": (1000.0 * quantile(run["latencies"], 0.5), "ms"),
        "op_p99_ms": (1000.0 * quantile(run["latencies"], 0.99), "ms"),
        "ok_ratio": (ratio(run["ok"], len(load.samples)), "ratio"),
    }


def run(workload: str, workdir: Path, seed: int, seconds: float,
        trace: bool, out) -> dict[str, Any]:
    """One benchmark run of a ``kv-*`` workload."""
    untraced = _one_pass(workload, workdir / "untraced", seed, seconds,
                         False, 1 if trace else SETUP_TRIALS, out)
    metrics = _end_to_end(untraced)
    print(f"# latency over {len(untraced['latencies'])} ok operations "
          f"({'due time' if workload == 'kv-partition' else 'send'} "
          "to reply)", file=out)
    result: dict[str, Any] = {
        "attempted": 0, "failed": 0, "correct": True, "metrics": metrics,
    }
    _count(result, untraced)
    if not trace:
        return result
    traced = _one_pass(workload, workdir / "traced", seed, seconds, True,
                       1, out)
    _count(result, traced)
    load = traced["load"]
    layers = service_layers(
        traced["series"], traced["proxy_series"], traced["ok"],
        len(load.samples), sum(int(s["attempts"]) for s in load.samples),
        out)
    layers.update(span_layers(traced["spans"], len(load.samples), out))
    layers["loadgen.lag_max_s"] = max(load.lags, default=0.0)
    layers["outage.longest_s"] = longest_gap(traced["ok_times"], load.wall)
    layers["recovery.reinsert_s"] = traced["reinsert_s"] or 0.0
    traced_metrics = _end_to_end(traced)
    layers["service.tracing_overhead"] = ratio(
        traced_metrics["op_p50_ms"][0], metrics["op_p50_ms"][0])
    print("# tracing overhead: "
          + "; ".join(f"{name} traced {traced_metrics[name][0]:.3f} vs "
                      f"untraced {metrics[name][0]:.3f}"
                      for name in ("op_p50_ms", "op_p99_ms", "ops_per_s")),
          file=out)
    result["layers"] = layers
    return result


def _count(result: dict[str, Any], one_pass: dict[str, Any]) -> None:
    """Fold one pass's operations and failed checks into *result*."""
    attempted = len(one_pass["load"].samples)
    result["attempted"] += attempted + len(one_pass["failures"])
    result["failed"] += (attempted - one_pass["ok"]
                         + len(one_pass["failures"]))
    result["correct"] = result["correct"] and not one_pass["failures"]
