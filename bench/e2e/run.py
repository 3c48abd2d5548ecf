#!/usr/bin/env python3
"""End-to-end benchmark of NewTOP, FS-NewTOP and the PBFT baseline.

    python3 bench/e2e/run.py [--seed N] [--workload W] [--seconds S] [--label L]
        Builds the driver (Release, through bench/e2e/CMakeLists.txt), runs
        every workload (or W) with tracing off and then on, prints
        `workload metric value unit` for every metric and writes
        bench/e2e/results/<label>.json. Exits non-zero on any failed gate.

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        One workload in one mode. The last line of stdout is one JSON object
        {"correct", "attempted", "failed", "metrics"} holding the end-to-end
        metrics of BENCHMARK.json (--trace 0) or its per-layer metrics (1).

    python3 bench/e2e/run.py --compare A.json B.json
        Applies the BENCHMARK.json bounds to every (metric, workload) pair of
        two results files; exits non-zero on any regression.

    python3 bench/e2e/run.py --self-test
        Checks the benchmark's own statistics.

The driver (bench/e2e/driver.cpp) runs the system and reports raw samples;
everything statistical lives here. See bench/e2e/README.md for the metrics,
the workloads and how to read the results.
"""

import argparse
import json
import math
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
BUILD_DIR = ROOT / ".bench_build" / "e2e"
DRIVER = BUILD_DIR / "e2e_driver"
RESULTS_DIR = BENCH_DIR / "results"

STACKS = ("newtop", "fsnewtop", "pbft")
GC_STACKS = ("newtop", "fsnewtop")
WORKLOADS = ("paper-n10", "bulk-n4", "crash-n4")

# Sub-seed reps per stack behind each latency percentile: enough that the
# seed-to-seed spread of every percentile stays under a third of its bound.
# NewTOP and PBFT reps cost 1/20 of an FS-NewTOP rep, so they get more where
# their percentiles need them (PBFT's p50 at n=10, NewTOP's crash-shaped p99).
LATENCY_REPS = {
    "paper-n10": {"newtop": 32, "fsnewtop": 16, "pbft": 48},
    "bulk-n4": {"newtop": 8, "fsnewtop": 8, "pbft": 8},
    "crash-n4": {"newtop": 96, "fsnewtop": 8, "pbft": 8},
}
SETUP_REPS = 51
TCP_REQUESTS = 250  # timed requests per member
TCP_WARMUP = 20

# Capacity search: a 1% geometric grid from the nominal rate. A probe passes
# when every request is delivered everywhere, p99 <= 500 ms and the last
# delivery lands within 500 ms of the last arrival.
GRID = 1.01
GALLOP = 41  # grid steps per gallop: 1.01**41 = 1.50
# Probes per narrowing round: the search is the longest chain of dependent
# runs in a workload, and three probes a round cut its rounds by half.
SEARCH_FAN_OUT = 3
PROBE_P99_LIMIT_US = 500_000
PROBE_DRAIN_LIMIT_US = 500_000

# A percentile needs at least this many samples beyond it.
MIN_BEYOND = 10
# setup_s regresses only past max(bound x parent, this many seconds).
SETUP_FLOOR_S = 0.005


class BenchError(Exception):
    """A measurement could not be taken or a statistic is undefined."""


# --- statistics ---------------------------------------------------------------


def percentile(samples, q):
    """Nearest-rank q-quantile. A negative sample is a request never
    delivered and counts as infinite. Refuses a percentile with fewer than
    MIN_BEYOND samples beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(round(q * n, 9)))
    if n - rank < MIN_BEYOND:
        raise BenchError(f"p{q * 100:g} of {n} samples has fewer than {MIN_BEYOND} beyond it")
    ordered = sorted(math.inf if s < 0 else s for s in samples)
    return ordered[rank - 1]


def spread(values):
    """Interquartile distance as a share of the median, with the quartiles
    statistics.quantiles(n=4) gives (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def histogram_percentile(hist, q):
    """Percentile estimate from an obs log-linear histogram: linear
    interpolation inside the bucket that holds the rank (buckets are 25%
    wide, so this is an estimate, not a sample)."""
    count = hist["count"]
    rank = q * count
    if count - math.ceil(rank) < MIN_BEYOND:
        raise BenchError(f"histogram p{q * 100:g} of {count} samples is unsupported")
    seen = hist["zero"]
    if rank <= seen:
        return 0.0
    for lower, n in hist["buckets"]:
        if rank <= seen + n:
            width = 1 if lower < 4 else 1 << (lower.bit_length() - 3)
            return lower + width * (rank - seen) / n
        seen += n
    return float(hist["max"])


class CapacityError(BenchError):
    pass


def capacity_search(passes, fan_out=1, max_index=600):
    """Highest grid index i whose probe passes (rate = nominal * GRID**i).

    `passes(indices)` evaluates a list of grid indices (possibly at once) and
    returns one bool per index. The search gallops up GALLOP steps at a time
    until a probe fails, then narrows the bracket with up to `fan_out`
    evenly spaced probes per round (fan_out=1 is plain bisection). The grid
    point above the answer fails by construction; the point two above must
    fail too, and no probe may pass above one that failed, or the predicate
    is not monotone and the answer is refused. Returns (index, {index: passed})."""
    probes = {}

    def probe(indices):
        todo = [i for i in indices if i not in probes]
        for i, ok in zip(todo, passes(todo)):
            probes[i] = bool(ok)
        passed = [i for i in probes if probes[i]]
        failed = [i for i in probes if not probes[i]]
        if passed and failed and max(passed) > min(failed):
            raise CapacityError(f"non-monotone: index {min(failed)} fails "
                                f"but {max(passed)} passes")
        return [probes[i] for i in indices]

    if not probe([0])[0]:
        raise CapacityError("the nominal rate already fails")
    lo, hi = 0, GALLOP
    while probe([hi])[0]:
        lo, hi = hi, hi + GALLOP
        if hi > max_index:
            raise CapacityError(f"no failing rate up to grid index {max_index}")
    while hi - lo > 1:
        ways = min(fan_out, hi - lo - 1) + 1
        points = sorted({lo + (hi - lo) * j // ways for j in range(1, ways)})
        if len(points) < fan_out:
            points.append(hi + 1)  # the final check's point, if hi - 1 is the answer
        results = probe(points)
        lo = max([lo] + [p for p, ok in zip(points, results) if ok])
        hi = min([hi] + [p for p, ok in zip(points, results) if not ok])
    probe([lo + 2])
    return lo, probes


def verdict(metric, a, b):
    """better / same / worse / unresolved for one (metric, workload) pair.
    `a` and `b` are {"value", "spread"}; spread is the within-run relative
    IQR (0 for deterministic metrics)."""
    bound = metric["bound"]
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    va, vb = a["value"], b["value"]
    gain = (vb - va) if metric["better"] == "higher" else (va - vb)
    allowed = bound * abs(va)
    if metric["name"] == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    if gain < -allowed:
        return "worse"
    if gain > allowed:
        return "better"
    return "same"


# --- driver invocation --------------------------------------------------------


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no failsig source tree to build")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def driver(*args):
    done = subprocess.run([str(DRIVER), *map(str, args)], capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError(f"e2e_driver {' '.join(map(str, args))}: {done.stderr.strip()}")
    return json.loads(done.stdout)


class Pool:
    """Driver invocations on a few worker threads; lower priority first, so
    the steps of a capacity search (a sequential chain) never queue behind
    the independent latency reps."""

    def __init__(self, workers):
        self._tasks = queue.PriorityQueue()
        self._order = 0
        self._lock = threading.Lock()
        self._threads = [threading.Thread(target=self._work) for _ in range(workers)]
        for t in self._threads:
            t.start()

    def submit(self, priority, *args):
        future = Future()
        with self._lock:
            self._order += 1
            self._tasks.put((priority, self._order, args, future))
        return future

    def _work(self):
        while True:
            _, _, args, future = self._tasks.get()
            if future is None:
                return
            try:
                future.set_result(driver(*args))
            except BaseException as e:  # handed to whoever waits on it
                future.set_exception(e)

    def close(self):
        with self._lock:
            for _ in self._threads:
                self._order += 1
                self._tasks.put((math.inf, self._order, (), None))
        for t in self._threads:
            t.join()


# --- one workload -------------------------------------------------------------


class Run:
    """Accumulates one workload's metrics, gates and counts."""

    def __init__(self, workload):
        self.workload = workload
        self.metrics = {}
        self.attempted = 0
        self.failed_requests = 0
        self.failed_gates = []
        self.notes = []
        self.peak_rss_kb = 0

    def put(self, name, value, unit, spread_=0.0):
        self.metrics[name] = {"value": value, "unit": unit, "spread": spread_}

    def gate(self, ok, what):
        if not ok:
            self.failed_gates.append(what)

    def account(self, result, what):
        """Counts a scenario run: its requests, its failures, its invariants."""
        self.attempted += result["attempted"]
        self.failed_requests += result["failed"]
        self.peak_rss_kb = max(self.peak_rss_kb, result.get("peak_rss_kb", 0))
        for inv in result.get("invariants", []):
            self.gate(inv["passed"], f"{what}: invariant {inv['name']} ({inv['detail']})")

    @property
    def failed(self):
        return self.failed_requests + len(self.failed_gates)


def measure_end_to_end(run, meta, seed, seconds):
    workload = run.workload
    nominal = meta["workloads"][workload]["nominal_rate"]
    started = time.monotonic()
    setup = driver("setup", "--workload", workload, "--reps", SETUP_REPS, "--seed", seed)
    run.put("setup_s", sum(median(setup[s]) for s in STACKS), "s",
            spread([sum(setup[s][i] for s in STACKS) for i in range(SETUP_REPS)]))

    # Deterministic simulated-time measurements run in parallel; the wall
    # clock is read afterwards, with nothing else running.
    workers = min(4, os.cpu_count() or 1)
    simulated_from = time.monotonic()
    pool = Pool(workers)
    try:
        latency = {s: [pool.submit(1, "latency", "--workload", workload, "--stack", s,
                                   "--seed", seed, "--rep", k)
                       for k in range(LATENCY_REPS[workload][s])]
                   for s in STACKS}
        searches = {}
        probe_rss_kb = []

        def search(stack):
            def passes(indices):
                pending = [pool.submit(0, "probe", "--workload", workload, "--stack", stack,
                                       "--seed", seed, "--rate", repr(nominal * GRID ** i))
                           for i in indices]
                verdicts = []
                for future in pending:
                    probe = future.result()
                    probe_rss_kb.append(probe["peak_rss_kb"])
                    verdicts.append(
                        probe["failed"] == 0
                        and percentile(probe["latency_us"], 0.99) <= PROBE_P99_LIMIT_US
                        and probe["drain_us"] <= PROBE_DRAIN_LIMIT_US)
                return verdicts
            try:
                searches[stack] = capacity_search(passes, fan_out=SEARCH_FAN_OUT)
            except BenchError as e:
                searches[stack] = e

        threads = [threading.Thread(target=search, args=(s,)) for s in STACKS]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        latency = {s: [f.result() for f in fs] for s, fs in latency.items()}
    finally:
        pool.close()
    run.peak_rss_kb = max([run.peak_rss_kb, *probe_rss_kb])
    speed_from = time.monotonic()
    speed = driver("speed", "--workload", workload, "--seed", seed, "--min-seconds", seconds)
    run.peak_rss_kb = max(run.peak_rss_kb, speed["peak_rss_kb"])

    for stack in STACKS:
        reports = latency[stack]
        for k, rep in enumerate(reports):
            run.account(rep, f"{stack} latency rep {k}")
        p50 = [percentile(r["latency_us"], 0.50) / 1000 for r in reports]
        p99 = [percentile(r["latency_us"], 0.99) / 1000 for r in reports]
        run.put(f"{stack}.latency_p50_ms", median(p50), "ms")
        run.put(f"{stack}.latency_p99_ms", median(p99), "ms")
        run.notes.append(f"{stack} latency: {len(reports)} reps, "
                         f"{sum(len(r['latency_us']) for r in reports)} (request, member) samples")

        found = searches[stack]
        if isinstance(found, BenchError):
            run.gate(False, f"{stack} capacity: {found}")
        else:
            index, probes = found
            run.put(f"{stack}.capacity_msg_s", nominal * GRID ** index, "msg/s")
            run.gate(index >= 1, f"{stack} capacity does not exceed the nominal rate")
            run.notes.append(f"{stack} capacity: probes " + " ".join(
                f"{nominal * GRID ** i:.1f}{'+' if ok else '-'}" for i, ok in sorted(probes.items())))

        reps = speed["stacks"][stack]
        run.account(reps, f"{stack} speed reps")
        run.gate(reps["reps_identical"], f"{stack}: speed reps diverged from the first rep")
        run.gate(reps["trace_hash"] == reports[0]["trace_hash"],
                 f"{stack}: speed-rep trace differs from latency rep 0")
        # The fastest rep: interference from elsewhere on a shared host only
        # ever slows a rep down.
        rates = [reps["counters"]["member_deliveries"] / c for c in reps["cpu_s"]]
        run.put(f"{stack}.cpu_deliveries_per_s", max(rates), "deliveries/s", spread(rates))
        run.notes.append(f"{stack} simulator speed: best of {len(rates)} reps, "
                         f"median {median(rates):.1f} deliveries per CPU second")

    run.put("peak_rss_mb", run.peak_rss_kb / 1024, "MiB")
    run.notes.append(f"time: setup {simulated_from - started:.1f} s, simulated phase "
                     f"{speed_from - simulated_from:.1f} s on {workers} workers, speed phase "
                     f"{time.monotonic() - speed_from:.1f} s")


def measure_per_layer(run, meta, seed, seconds):
    workload = run.workload
    speed = driver("speed", "--workload", workload, "--seed", seed, "--min-seconds", seconds,
                   "--trace")
    for stack in STACKS:
        reps = speed["stacks"][stack]
        run.account(reps, f"{stack} speed reps")
        traced = reps["traced"]
        run.gate(reps["reps_identical"], f"{stack}: speed reps diverged from the first rep")
        run.gate(traced["identical"], f"{stack}: traced rep diverged from the untraced one")
        c = reps["counters"]
        obs = traced["metrics"]
        hist = obs["histograms"]
        requests = c["requests"]
        untraced_s = median(reps["cpu_s"])
        events = obs["gauges"]["sim.events_fired"]

        run.put(f"{stack}.net.msgs_per_request", c["network_messages"] / requests, "count")
        run.put(f"{stack}.net.bytes_per_request", c["network_bytes"] / requests, "B")
        run.put(f"{stack}.net.copied_bytes_per_request", c["payload_bytes_copied"] / requests, "B")
        units = c["batches_formed"] or c["requests_submitted"]
        run.put(f"{stack}.batch.requests_per_unit", c["requests_submitted"] / units, "count")
        run.put(f"{stack}.batch.deadline_flush_ratio",
                c["flushes_on_deadline"] / c["batches_formed"] if c["batches_formed"] else 0.0,
                "ratio")
        # One traced rep holds a few hundred requests: p90 is the highest
        # percentile with ten samples beyond it on every workload.
        for span in ("send_latency", "order_latency"):
            for q in (0.50, 0.90):
                run.put(f"{stack}.span.{span}_p{round(q * 100)}_us",
                        histogram_percentile(hist[f"span.{span}_us"], q), "us")
        run.put(f"{stack}.sim.events_per_request", events / requests, "count")
        run.put(f"{stack}.sim.us_per_event", untraced_s * 1e6 / events, "us")
        run.put(f"{stack}.sim.max_queue_footprint", obs["gauges"]["sim.max_queue_footprint"],
                "count")
        run.put(f"{stack}.obs.traced_cpu_ratio", traced["cpu_s"] / untraced_s, "ratio")
        run.put(f"{stack}.outage_ms", reps["outage_us"] / 1000, "ms")
        run.put(f"{stack}.views_installed", c["views_installed"], "count")
        run.put(f"{stack}.app.checkpoints_taken", c["checkpoints_taken"], "count")
        if stack in GC_STACKS:
            run.put(f"{stack}.gc.holdback_depth_p99",
                    histogram_percentile(hist["gc.holdback_depth"], 0.99), "count")
            run.put(f"{stack}.detect_ms", reps["detect_us"] / 1000, "ms")
        if stack == "fsnewtop":
            calls = c["verify_ops"] + c["verify_cache_hits"]
            run.put("fsnewtop.crypto.verify_ops_per_request", c["verify_ops"] / requests, "count")
            run.put("fsnewtop.crypto.memo_hit_ratio", c["verify_cache_hits"] / calls, "ratio")
            run.put("fsnewtop.crypto.sign_sim_us_per_request",
                    hist["crypto.sign_us"]["sum"] / requests, "us")
            run.put("fsnewtop.crypto.verify_sim_us_per_request",
                    hist["crypto.verify_us"]["sum"] / requests, "us")
            run.put("fsnewtop.fail_signals", c["fail_signal_events"], "count")
        if stack == "pbft":
            run.put("pbft.log_slots_retained", c["log_slots_retained"], "count")

    n1 = driver("latency", "--workload", workload, "--stack", "newtop", "--seed", seed,
                "--rep", 0, "--members", 1)
    run.account(n1, "newtop n=1 reference")
    run.put("newtop.n1_latency_p50_ms", percentile(n1["latency_us"], 0.50) / 1000, "ms")

    micro = driver("micro")
    for name, unit in (("crypto.hmac_sign_ns", "ns"), ("crypto.verify_cached_hit_ns", "ns"),
                       ("crypto.verify_cached_miss_ns", "ns"), ("crypto.sha256_mb_s", "MB/s"),
                       ("orb.request_codec_ns_8b", "ns"), ("orb.request_codec_ns_4k", "ns"),
                       ("sim.schedule_fire_ns", "ns"), ("deploy.tcp_vstep_us", "us")):
        run.put(name, micro[name], unit)
    run.put("net.tcp_rtt_p50_us", percentile(micro["net.tcp_rtt_us"], 0.50), "us")
    run.put("net.tcp_rtt_p99_us", percentile(micro["net.tcp_rtt_us"], 0.99), "us")

    # FS-NewTOP is left off TCP until KeyService's verify memo is safe to
    # share between executor threads (README: excluded shapes).
    for stack in ("newtop", "pbft"):
        tcp = driver("tcp", "--stack", stack, "--seed", seed, "--requests", TCP_REQUESTS,
                     "--warmup", TCP_WARMUP)
        run.account(tcp, f"{stack} tcp")
        run.gate(tcp["sequences_identical"], f"{stack} tcp: members delivered different sequences")
        lat = tcp["latency_ns"]
        run.put(f"{stack}.tcp.latency_p50_ms", percentile(lat, 0.50) / 1e6, "ms")
        run.put(f"{stack}.tcp.latency_p99_ms", percentile(lat, 0.99) / 1e6, "ms")
        run.put(f"{stack}.tcp.deliveries_per_s", tcp["member_deliveries"] / tcp["wall_s"],
                "deliveries/s")
        run.put(f"{stack}.tcp.msgs_per_request", tcp["network_messages"] / tcp["requests"],
                "count")
        run.put(f"{stack}.tcp.setup_s", tcp["setup_s"], "s")
        run.notes.append(f"{stack} tcp: {len(lat)} (request, member) samples")


def run_workload(workload, trace, meta, seed, seconds):
    run = Run(workload)
    if trace:
        measure_per_layer(run, meta, seed, seconds)
    else:
        measure_end_to_end(run, meta, seed, seconds)
    return run


# --- output -------------------------------------------------------------------


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(run, names):
    """Prints `workload metric value unit` lines; returns the contract line."""
    for note in run.notes:
        print(f"# {run.workload}: {note}")
    for gate in run.failed_gates:
        print(f"# {run.workload}: FAILED {gate}")
    metrics = {}
    for name in names:
        m = run.metrics.get(name)
        if m is None or not math.isfinite(m["value"]):
            run.gate(False, f"metric {name} was not measured")
            print(f"# {run.workload}: FAILED metric {name} was not measured")
            continue
        print(f"{run.workload} {name} {m['value']!r} {m['unit']}")
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"{run.workload} failed_ratio {ratio!r} ratio")
    return {"correct": run.failed == 0, "attempted": max(1, run.attempted),
            "failed": run.failed, "metrics": metrics}


def environment(meta, seed):
    cache = {}
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "compiler": version.stdout.splitlines()[0] if version.returncode == 0 else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "seed": seed,
        "machine": platform.machine(),
        "cost_model": meta["cost_model"],
        "link_model": meta["link_model"],
        "nominal_rates": {w: v["nominal_rate"] for w, v in meta["workloads"].items()},
    }


def cmd_compare(path_a, path_b):
    spec = load_spec()
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for key in ("cost_model", "link_model"):
        if a["meta"][key] != b["meta"][key]:
            print(f"# note: {key} differs — simulated-time changes are calibration, not speed")
    any_worse = False
    for workload in WORKLOADS:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        ma = a["workloads"][workload]["metrics"]
        mb = b["workloads"][workload]["metrics"]
        tally = {"better": [], "same": [], "worse": [], "unresolved": []}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name in ma and name in mb:
                v = verdict(metric, ma[name], mb[name])
                tally[v].append(name)
                print(f"{workload} {name} {ma[name]['value']:.6g} -> {mb[name]['value']:.6g} "
                      f"{metric['unit']} {v}")
        any_worse = any_worse or bool(tally["worse"])
        print(f"{workload}: " + " ".join(f"{k}={len(v)}" for k, v in tally.items())
              + "".join(f" | {k}: {', '.join(v)}" for k, v in tally.items()
                        if k != "same" and v))
    return 1 if any_worse else 0


# --- self-test ----------------------------------------------------------------


def self_test():
    def expect_error(fn, exc=BenchError):
        try:
            fn()
        except exc:
            return
        raise AssertionError(f"{fn} did not raise {exc.__name__}")

    samples = list(range(1, 1001))
    assert percentile(samples, 0.50) == 500
    assert percentile(samples, 0.99) == 990
    assert percentile(list(reversed(samples)), 0.99) == 990
    assert percentile(samples[:100], 0.90) == 90  # exactly ten beyond
    expect_error(lambda: percentile(samples[:99], 0.90))
    expect_error(lambda: percentile(samples[:999], 0.99))
    assert percentile([1] * 980 + [-1] * 20, 0.99) == math.inf  # undelivered = infinite

    assert median([3, 1, 2]) == 2 and median([4, 1, 3, 2]) == 2.5
    # Quartiles 2.75 and 8.25 around the median 5.5 (the "exclusive" method).
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (8.25 - 2.75) / 5.5
    assert spread([7, 7, 7, 7]) == 0.0 and spread([5]) == 0.0

    hist = {"count": 100, "zero": 10, "max": 47,
            "buckets": [[8, 40], [40, 50]]}  # [8, 10) and [40, 48)
    assert histogram_percentile(hist, 0.05) == 0.0
    assert histogram_percentile(hist, 0.30) == 8 + 2 * 20 / 40
    assert histogram_percentile(hist, 0.75) == 40 + 8 * 25 / 50
    expect_error(lambda: histogram_percentile(hist, 0.95))

    calls = []

    def threshold(limit):
        def passes(indices):
            calls.extend(indices)
            return [i <= limit for i in indices]
        return passes

    for fan_out in (1, 3):
        for limit in (0, 1, 5, 40, 41, 42, 82, 100):
            calls.clear()
            index, probes = capacity_search(threshold(limit), fan_out)
            assert index == limit, (fan_out, limit, index)
            assert probes[limit] and not probes[limit + 1] and not probes[limit + 2]
            assert len(calls) == len(set(calls)), "a grid point was probed twice"
        expect_error(lambda: capacity_search(threshold(-1), fan_out), CapacityError)
        expect_error(lambda: capacity_search(lambda idx: [True] * len(idx), fan_out),
                     CapacityError)
        # Passes up to 9 and again at 11: the narrowing settles on 9 (or
        # probes 11 on the way), and the point two steps above 9 passes.
        expect_error(lambda: capacity_search(lambda idx: [i <= 9 or i == 11 for i in idx],
                                             fan_out), CapacityError)
    rounds = {}
    for fan_out in (1, 3):
        batches = []
        capacity_search(lambda idx: batches.append(idx) or [i <= 30 for i in idx], fan_out)
        rounds[fan_out] = len(batches)
    assert rounds[3] < rounds[1], rounds

    lower = {"name": "x_ms", "better": "lower", "bound": 0.1}
    higher = {"name": "y_msg_s", "better": "higher", "bound": 0.05}
    setup = {"name": "setup_s", "better": "lower", "bound": 0.1}

    def pt(value, spread_=0.0):
        return {"value": value, "spread": spread_}

    assert verdict(lower, pt(10), pt(10.9)) == "same"
    assert verdict(lower, pt(10), pt(11.1)) == "worse"
    assert verdict(lower, pt(10), pt(8.9)) == "better"
    assert verdict(higher, pt(100), pt(94)) == "worse"
    assert verdict(higher, pt(100), pt(106)) == "better"
    assert verdict(higher, pt(100, 0.06), pt(100)) == "unresolved"
    assert verdict(setup, pt(0.001), pt(0.004)) == "same"  # inside the 5 ms floor
    assert verdict(setup, pt(0.001), pt(0.0061)) == "worse"
    assert verdict(setup, pt(0.1), pt(0.109)) == "same"
    assert verdict(setup, pt(0.1), pt(0.111)) == "worse"

    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    print("self-test passed")
    return 0


# --- main ---------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="least wall time spent timing simulator speed")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--label", help="results file name (default: seed<N>)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.compare:
        return cmd_compare(*args.compare)

    try:
        spec = load_spec()
        build()
        meta = driver("meta")
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
            run = run_workload(args.workload, args.trace, meta, args.seed, args.seconds)
            line = report(run, names)
            print(json.dumps(line))
            return 0 if line["correct"] else 1

        results = {"format": "failsig-e2e-v1", "meta": environment(meta, args.seed), "workloads": {}}
        ok = True
        for workload in [args.workload] if args.workload else WORKLOADS:
            entry = {"metrics": {}, "notes": [], "failed_gates": []}
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                run = run_workload(workload, trace, meta, args.seed, args.seconds)
                line = report(run, [m["name"] for m in spec[kind]])
                ok = ok and line["correct"]
                entry["metrics"].update({n: run.metrics[n] for n in line["metrics"]})
                entry["notes"] += run.notes
                entry["failed_gates"] += run.failed_gates
                entry[f"attempted_{kind}"] = run.attempted
                entry[f"failed_{kind}"] = run.failed
            results["workloads"][workload] = entry
        label = args.label or f"seed{args.seed}"
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{label}.json"
        path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
        print(f"# results written to {path.relative_to(ROOT)}")
        return 0 if ok else 1
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
