#!/usr/bin/env python3
"""End-to-end benchmark of figure regeneration and serving.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record        # re-record the golden files
    python3 perfbench/run.py --golden-full   # all --scale 1.0 vs results/

Run from the root of a checkout.  Workloads, metrics and the layer map
are described in perfbench/README.md.  The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import bisect
import hashlib
import http.client
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ENTRY = os.path.join(HERE, "entry.py")
GOLDEN_FIGURES = os.path.join(HERE, "golden", "figures.json")
GOLDEN_SERVE = os.path.join(HERE, "golden", "serve.json")

#: `all` runs at this scale.  Below about 0.1 the suite stops shrinking
#: (workloads have a floor), so this is the cheapest scale that still
#: runs every driver on every program.
FIGURES_SCALE = 0.05
#: Each run measures at least this many `all` processes (median).
MIN_ITERATIONS = 2
#: A run must end within 180 s; stop starting work after this.
DEADLINE_S = 170.0

#: serve_mix: endpoint shares, per-request trace scale, share of
#: requests on the `train` input set, and requests per second of
#: `--seconds` (1000 requests at 20 s keeps ten samples beyond p99).
ENDPOINT_SHARES = (("compile", 90), ("explain", 7), ("simulate", 3))
REQUEST_SCALE = 0.25
TRAIN_SHARE = 0.15
REQUESTS_PER_SECOND = 50
#: Daemon launches per serve run; setup_s is their median.
SERVE_SETUPS = 3
TEARDOWN_S = 15.0
TRACE_HEADER = "X-Repro-Trace-Id"

#: Simulated-statistics totals in a run manifest (serial runs only: a
#: pool repeats baseline simulations in a schedule-dependent way).
PREFILL = """
import sys
from repro.exec import artifact_cache
from repro.experiments.runner import get_artifacts
from repro.workloads import BENCHMARK_NAMES
from repro.workloads.suite import INPUT_SETS

artifact_cache.set_cache_dir(sys.argv[1])
for name in BENCHMARK_NAMES:
    for input_set in INPUT_SETS:
        get_artifacts(name, input_set, float(sys.argv[2]))
"""

MANIFEST_FINGERPRINT = (
    "sim_cycles_total", "sim_instructions_total", "sim_dpred_episodes_total",
    "sim_dpred_wrong_path_insts_total", "sim_pipeline_flushes_total",
)


class Run:
    """One benchmark run: a private work directory and the op tally."""

    def __init__(self, name, deadline=DEADLINE_S):
        self.started = time.monotonic()
        self.deadline = deadline
        self.dir = os.path.join(ROOT, ".bench_run", f"{name}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(os.path.join(self.dir, "tmp"))
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = SRC
        self.env["TMPDIR"] = os.path.join(self.dir, "tmp")
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._dirs = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def fresh_dir(self, prefix):
        self._dirs += 1
        path = os.path.join(self.dir, f"{prefix}-{self._dirs}")
        os.makedirs(path)
        return path

    def remaining(self):
        return self.deadline - (time.monotonic() - self.started)


def _quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- figures workloads ------------------------------------------------------


def _load_golden_figures():
    with open(GOLDEN_FIGURES, encoding="utf-8") as handle:
        golden = json.load(handle)
    golden["chunks"] = [(name, (text + "\n\n").encode())
                        for name, text in golden["tables"]]
    return golden


def run_cli(run, argv, spans_dir=None, timeout=None):
    """Run `python -m repro ARGV` (through entry.py) and measure it.

    Returns a dict with wall/cpu seconds (process and its children, from
    wait4), peak RSS, set-up seconds, stdout bytes and the monotonic
    times at which stdout reached each size.
    """
    ready = os.path.join(run.dir, "ready")
    if os.path.exists(ready):
        os.remove(ready)
    command = [sys.executable, "-u", ENTRY, ready, spans_dir or "-", *argv]
    timeout = min(timeout or DEADLINE_S, max(1.0, run.remaining()))
    with open(os.path.join(run.dir, "stderr.txt"), "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=err,
                                env=run.env, cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        chunks, marks, size = [], [], 0
        try:
            fd = proc.stdout.fileno()
            while True:
                data = os.read(fd, 1 << 16)
                if not data:
                    break
                size += len(data)
                chunks.append(data)
                marks.append((size, time.monotonic()))
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    ready_at = None
    if os.path.exists(ready):
        with open(ready, encoding="utf-8") as handle:
            ready_at = float(handle.read())
    return {
        "status": proc.returncode,
        "started": started,
        "wall": ended - started,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "setup": (ready_at - started) if ready_at is not None else None,
        "stdout": b"".join(chunks),
        "marks": marks,
    }


def check_figures(run, result, golden, manifest=None):
    """One op per artifact table (byte-for-byte against the golden), one
    for the manifest fingerprint when `manifest` is given.  Returns each
    table's latency in ms: from spawning `all` until the table is on
    stdout.  Returns [] when the output did not match."""
    if result["status"] != 0:
        for name, _ in golden["chunks"]:
            run.check(False, f"{name}: all exited {result['status']}")
        return []
    out = result["stdout"]
    cursor, ends, intact = 0, [], True
    for name, chunk in golden["chunks"]:
        found = out.find(chunk, cursor)
        ok = found == cursor
        run.check(ok, f"{name}: table differs from the golden")
        intact = intact and ok
        if found >= 0:
            cursor = found + len(chunk)
        ends.append(cursor)
    if manifest is not None:
        try:
            with open(manifest, encoding="utf-8") as handle:
                metrics = json.load(handle)["metrics"]
            counts = {k: metrics[k]["value"] for k in MANIFEST_FINGERPRINT}
        except (OSError, ValueError, KeyError) as exc:
            counts = repr(exc)
        run.check(counts == golden["manifest_fingerprint"],
                  f"manifest fingerprint {counts} differs from the golden")
    if not intact:
        return []
    marks = result["marks"]
    return [(next(t for size, t in marks if size >= end) - result["started"])
            * 1000.0 for end in ends]


def figures_argv(run, jobs, cache_dir):
    return ["all", "--scale", str(FIGURES_SCALE), "--jobs", str(jobs),
            "--cache-dir", cache_dir,
            "--manifest", os.path.join(run.dir, "manifest.json")]


def run_figures(run, args, warm):
    golden = _load_golden_figures()
    jobs = (os.cpu_count() or 1) if warm else 1
    cache_dir = None
    if warm:
        # Fill the cache with every artifact `all` loads: each program
        # on each input set at the benchmark's scale.
        cache_dir = run.fresh_dir("cache")
        subprocess.run(
            [sys.executable, "-c", PREFILL, cache_dir, str(FIGURES_SCALE)],
            env=run.env, cwd=ROOT, check=True, timeout=run.remaining(),
        )

    def iteration(spans_dir=None):
        cache = cache_dir or run.fresh_dir("cache")
        result = run_cli(run, figures_argv(run, jobs, cache), spans_dir)
        manifest = None if warm else os.path.join(run.dir, "manifest.json")
        result["latencies"] = check_figures(run, result, golden, manifest)
        return result

    if args.trace:
        plain = iteration()
        spans_dir = run.fresh_dir("spans")
        traced = iteration(spans_dir)
        metrics, fingerprint, consistent, attributed = \
            tracing.analyze(spans_dir)
        run.check(fingerprint == golden["fingerprint"] and consistent,
                  f"fingerprint {fingerprint} (consistent={consistent}) "
                  f"differs from the golden")
        metrics.update({
            "serve.compile.p50_ms": 0.0, "serve.explain.p50_ms": 0.0,
            "serve.simulate.p50_ms": 0.0, "serve.overhead_ms": 0.0,
            "serve.coalesced_ratio": 0.0,
            "trace.unattributed_share":
                (traced["wall"] - attributed) / traced["wall"],
            "trace.overhead_s": traced["wall"] - plain["wall"],
        })
        return metrics

    # Measure whole `all` processes until the next one would end past
    # --seconds, but at least MIN_ITERATIONS of them.
    measuring = time.monotonic()
    results = []
    while True:
        if results:
            typical = statistics.median(r["wall"] for r in results)
            if typical > run.remaining() or (
                    len(results) >= MIN_ITERATIONS
                    and time.monotonic() - measuring + typical > args.seconds):
                break
        results.append(iteration())
    latencies = [ms for r in results for ms in r["latencies"]] or [0.0]
    wall = statistics.median(r["wall"] for r in results)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu"] for r in results),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
        "setup_s": statistics.median(r["setup"] or 0.0 for r in results),
        "req_per_s": len(golden["chunks"]) / wall,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": _quantile(latencies, 99),
    }


# -- serve_mix --------------------------------------------------------------


def _zipf(n):
    return [1.0 / rank for rank in range(1, n + 1)]


def request_body(endpoint, benchmark, input_set, preset):
    subject, config = {
        "compile": ("benchmark", "config"),
        "explain": ("workload", "config"),
        "simulate": ("benchmark", "selection"),
    }[endpoint]
    return {subject: benchmark, "input_set": input_set,
            "scale": REQUEST_SCALE, config: preset}


def request_key(endpoint, body):
    return endpoint + " " + json.dumps(body, sort_keys=True)


def _stratified(rng, items, weights, count):
    """`count` draws of `items` whose histogram follows `weights` as
    closely as `count` allows; the seed decides their order."""
    total = sum(weights)
    bounds = list(itertools.accumulate(w / total for w in weights))
    draws = [items[min(bisect.bisect(bounds, (i + rng.random()) / count),
                       len(items) - 1)]
             for i in range(count)]
    rng.shuffle(draws)
    return draws


def make_stream(seed, count, universe):
    """`count` seeded (endpoint, body) requests.

    Endpoints, programs, input sets and presets are drawn stratified:
    each seed sends the same mix (Zipf over programs and presets, in the
    fixed order the golden file lists them) in a different order and
    pairing, so seeds do not differ in how many expensive requests they
    hold.
    """
    rng = random.Random(seed)
    endpoints = _stratified(rng, [e for e, _ in ENDPOINT_SHARES],
                            [s for _, s in ENDPOINT_SHARES], count)
    benchmarks = universe["benchmarks"]
    stream = [None] * count
    for endpoint, _ in ENDPOINT_SHARES:
        slots = [i for i, e in enumerate(endpoints) if e == endpoint]
        presets = universe["simulate_presets" if endpoint == "simulate"
                           else "presets"]
        draws = zip(
            _stratified(rng, benchmarks, _zipf(len(benchmarks)), len(slots)),
            _stratified(rng, ("reduced", "train"),
                        (1.0 - TRAIN_SHARE, TRAIN_SHARE), len(slots)),
            _stratified(rng, presets, _zipf(len(presets)), len(slots)),
        )
        for slot, (benchmark, input_set, preset) in zip(slots, draws):
            stream[slot] = (endpoint, request_body(endpoint, benchmark,
                                                   input_set, preset))
    return stream


def _post(conn, endpoint, body):
    """One request on a keep-alive connection: (ms, status, bytes, trace)."""
    payload = json.dumps(body).encode()
    started = time.monotonic()
    # http.client sends headers and a bytes body in a single write.
    conn.request("POST", "/v1/" + endpoint, body=payload,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    data = response.read()
    elapsed = (time.monotonic() - started) * 1000.0
    traceparent = response.getheader(TRACE_HEADER) or ""
    trace_id = traceparent.split("-")[1] if traceparent.count("-") == 3 \
        else None
    return elapsed, response.status, data, trace_id


def _proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_mb(pid):
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Daemon:
    """A `python -m repro serve` process with default flags, its own
    artifact cache and temp directory, on an ephemeral port."""

    def __init__(self, run, spans_dir=None):
        self.run = run
        cache = run.fresh_dir("serve-cache")
        command = [sys.executable, "-u", ENTRY,
                   os.path.join(run.dir, "serve-ready"), spans_dir or "-",
                   "serve", "--port", "0", "--cache-dir", cache]
        self.started = time.monotonic()
        self.err = open(os.path.join(run.dir, "serve-stderr.txt"), "ab")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self.err, env=run.env, cwd=ROOT)
        self.port = None
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                text = line.decode(errors="replace")
                if "listening on http://" in text:
                    self.port = int(text.split("http://", 1)[1]
                                    .split()[0].rsplit(":", 1)[1])
                    break
        finally:
            watchdog.cancel()
        if self.port is None:
            self.stop()
            raise RuntimeError("serve daemon did not start "
                               "(see serve-stderr.txt)")

    def connect(self):
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def first_touch(self, universe, digests):
        """Answer one compile per program; returns launch-to-done seconds."""
        conn = self.connect()
        try:
            for benchmark in universe["benchmarks"]:
                body = request_body("compile", benchmark, "reduced",
                                    "all-best-heur")
                _, status, data, _ = _post(conn, "compile", body)
                self.run.check(
                    status == 200 and hashlib.sha256(data).hexdigest()
                    == digests.get(request_key("compile", body)),
                    f"first touch of {benchmark}: status {status}")
        finally:
            conn.close()
        return time.monotonic() - self.started

    def stop(self):
        """SIGTERM (callers close their connections first), bounded wait."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=TEARDOWN_S)
                return True
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return False
        finally:
            self.proc.stdout.close()
            self.err.close()


def closed_loop(daemon, stream, connections):
    """Send `stream` over `connections` keep-alive connections, each
    sending its next request only after the previous reply."""
    results = [None] * len(stream)
    lock = threading.Lock()
    cursor = iter(range(len(stream)))

    def client():
        conn = daemon.connect()
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                endpoint, body = stream[index]
                try:
                    results[index] = _post(conn, endpoint, body)
                except (OSError, http.client.HTTPException) as exc:
                    results[index] = (None, 0, repr(exc).encode(), None)
                    conn.close()
                    conn = daemon.connect()
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(connections)]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, time.monotonic() - started


def serve_pass(run, universe, digests, stream, spans_dir=None):
    """Launch, first-touch, run the stream, stop.  Returns measurements."""
    daemon = Daemon(run, spans_dir)
    try:
        setup = daemon.first_touch(universe, digests)
        cpu_before = _proc_cpu_s(daemon.proc.pid)
        results, wall = closed_loop(daemon, stream, os.cpu_count() or 1)
        cpu = _proc_cpu_s(daemon.proc.pid) - cpu_before
        rss = _proc_hwm_mb(daemon.proc.pid)
    finally:
        run.check(daemon.stop(), f"daemon teardown exceeded {TEARDOWN_S}s")
    for (endpoint, body), result in zip(stream, results):
        _, status, data, _ = result or (None, 0, b"", None)
        run.check(status == 200 and hashlib.sha256(data).hexdigest()
                  == digests.get(request_key(endpoint, body)),
                  f"{endpoint} {body}: status {status}")
    return {"setup": setup, "wall": wall, "cpu": cpu, "rss_mb": rss,
            "results": results}


def run_serve(run, args):
    with open(GOLDEN_SERVE, encoding="utf-8") as handle:
        universe = json.load(handle)
    digests = universe["digests"]
    stream = make_stream(args.seed, REQUESTS_PER_SECOND * args.seconds,
                         universe)
    if args.trace:
        plain = serve_pass(run, universe, digests, stream)
        spans_dir = run.fresh_dir("spans")
        traced = serve_pass(run, universe, digests, stream, spans_dir)
        metrics, _, _, _ = tracing.analyze(spans_dir)
        client_ms = {r[3]: r[0] for r in traced["results"] if r and r[3]}
        serve, unattributed = tracing.serve_metrics(spans_dir, client_ms)
        metrics.update(serve)
        metrics["trace.unattributed_share"] = unattributed
        metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
        return metrics

    setups = []
    for _ in range(SERVE_SETUPS - 1):
        daemon = Daemon(run)
        try:
            setups.append(daemon.first_touch(universe, digests))
        finally:
            run.check(daemon.stop(), f"daemon teardown exceeded {TEARDOWN_S}s")
    measured = serve_pass(run, universe, digests, stream)
    setups.append(measured["setup"])
    latencies = [r[0] for r in measured["results"] if r and r[0] is not None] \
        or [0.0]
    return {
        "wall_s": measured["wall"],
        "cpu_s": measured["cpu"],
        "peak_rss_mb": measured["rss_mb"],
        "setup_s": statistics.median(setups),
        "req_per_s": len(stream) / measured["wall"],
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": _quantile(latencies, 99),
    }


WORKLOADS = {
    "figures_cold_serial": lambda run, args: run_figures(run, args, False),
    "figures_warm_parallel": lambda run, args: run_figures(run, args, True),
    "serve_mix": run_serve,
}


# -- golden files -----------------------------------------------------------


def _python(run, code):
    out = subprocess.run([sys.executable, "-c", code], env=run.env,
                         cwd=ROOT, check=True, capture_output=True)
    return json.loads(out.stdout)


def record(run):
    """Re-record the golden tables, fingerprints and serve digests."""
    tables = []
    cache = run.fresh_dir("cache")
    for name in tracing.DRIVERS:
        result = run_cli(run, [name, "--scale", str(FIGURES_SCALE),
                               "--jobs", "1", "--cache-dir", cache],
                         timeout=600)
        text = result["stdout"].decode()
        if result["status"] != 0 or not text.endswith("\n\n"):
            raise RuntimeError(f"{name} failed")
        tables.append((name, text[:-2]))
    golden = {"scale": FIGURES_SCALE, "tables": tables}
    spans_dir = run.fresh_dir("spans")
    plain = run_cli(run, figures_argv(run, 1, run.fresh_dir("cache")),
                    timeout=600)
    with open(os.path.join(run.dir, "manifest.json"), encoding="utf-8") as f:
        metrics = json.load(f)["metrics"]
    golden["manifest_fingerprint"] = {
        k: metrics[k]["value"] for k in MANIFEST_FINGERPRINT}
    run_cli(run, figures_argv(run, 1, run.fresh_dir("cache")), spans_dir,
            timeout=600)
    _, golden["fingerprint"], consistent, _ = tracing.analyze(spans_dir)
    expected = "".join(text + "\n\n" for _, text in tables).encode()
    if not plain["stdout"].startswith(expected) or not consistent:
        raise RuntimeError("`all` output is not the concatenated tables")
    with open(GOLDEN_FIGURES, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")

    universe = _python(run, (
        "import json\n"
        "from repro.compiler import registry\n"
        "from repro.workloads import BENCHMARK_NAMES\n"
        "names = registry.names()\n"
        "print(json.dumps({'benchmarks': list(BENCHMARK_NAMES),"
        " 'presets': names, 'simulate_presets': [n for n in names"
        " if getattr(registry.resolve(n), 'meld', None) is None]}))\n"))
    requests = [
        (endpoint, request_body(endpoint, benchmark, input_set, preset))
        for endpoint, _ in ENDPOINT_SHARES
        for benchmark in universe["benchmarks"]
        for input_set in ("reduced", "train")
        for preset in universe["simulate_presets" if endpoint == "simulate"
                               else "presets"]
    ]
    daemon = Daemon(run)
    conn = daemon.connect()
    digests = {}
    try:
        for endpoint, body in requests:
            _, status, data, _ = _post(conn, endpoint, body)
            if status != 200:
                raise RuntimeError(f"{endpoint} {body}: status {status}")
            digests[request_key(endpoint, body)] = \
                hashlib.sha256(data).hexdigest()
    finally:
        conn.close()
        daemon.stop()
    universe["digests"] = digests
    with open(GOLDEN_SERVE, "w", encoding="utf-8") as handle:
        json.dump(universe, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(tables)} tables and {len(digests)} serve digests")


def golden_full(run):
    """`all --scale 1.0` (fig7 at 0.5) against the tables in results/."""
    reference = {}
    for name in tracing.DRIVERS:
        path = os.path.join(ROOT, "results", f"{name}.txt")
        if os.path.exists(path):
            with open(path, "rb") as handle:
                reference[name] = handle.read() + b"\n"
    cache = run.fresh_dir("cache")
    jobs = str(os.cpu_count() or 1)
    full = run_cli(run, ["all", "--scale", "1.0", "--jobs", jobs,
                         "--cache-dir", cache,
                         "--manifest", os.path.join(run.dir, "m.json")],
                   timeout=3600)
    half = run_cli(run, ["fig7", "--scale", "0.5", "--jobs", jobs,
                         "--cache-dir", cache], timeout=3600)
    ok = full["status"] == 0 and half["status"] == 0
    cursor = 0
    for name in tracing.DRIVERS:
        if name not in reference:
            print(f"{name}: no reference table in results/")
            continue
        if name == "fig7":
            match = half["stdout"] == reference[name]
        else:
            found = full["stdout"].find(reference[name], cursor)
            match = found >= 0
            cursor = found + len(reference[name]) if match else cursor
        ok = ok and match
        print(f"{name}: {'identical' if match else 'DIFFERS'}")
    return 0 if ok else 1


# -- main -------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--golden-full", action="store_true")
    args = parser.parse_args()
    if not os.path.exists(os.path.join(SRC, "repro", "__main__.py")):
        sys.exit(f"perfbench: no repro sources under {SRC}; run from the "
                 f"root of a checkout")
    if not (args.record or args.golden_full or args.workload):
        parser.error("--workload is required")

    run = Run(args.workload or "golden",
              DEADLINE_S if args.workload else float("inf"))
    try:
        if args.record:
            record(run)
            return 0
        if args.golden_full:
            return golden_full(run)
        values = WORKLOADS[args.workload](run, args)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"env": {
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }}))
    for error in run.errors[:20]:
        print(f"FAILED: {error}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
