"""Benchmark-side tracing: spans around calls into each layer of `repro`.

Nothing inside `src/` is instrumented.  `install()` replaces each layer's
public entry point, in every module that imported it, with a wrapper that
records one span `[id, parent, name, start, end, attrs]`.  Times come from
`time.monotonic()`, which is system-wide, so spans from several processes
and the benchmark's own clock share one timeline.  Spans stay in memory
and are written out when the process ends; forked pool workers start with
an empty buffer and write their own file when they exit.

`analyze()` and `serve_metrics()` turn the span files of one traced run
into the per-layer metrics named in `BENCHMARK.json`.
"""

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
import zlib

#: Layers whose self time is reported.
LAYERS = ("workloads", "emulator", "compiler", "uarch", "exec",
          "experiments", "serve")

#: The ten drivers `python -m repro all` runs, in the order it runs them.
DRIVERS = ("fig10", "fig5", "fig6", "fig7", "fig8", "fig9", "meldcompare",
           "priorwork", "table1", "table2")

#: Fingerprint entries and the `SimStats` fields they sum.
FINGERPRINT_FIELDS = (
    ("sim_cycles", "cycles"),
    ("sim_insts", "retired_instructions"),
    ("dpred_episodes", "dpred_episodes"),
    ("wrong_path_insts", "dpred_wrong_path_insts"),
    ("flushes", "pipeline_flushes"),
)


class Recorder:
    """In-memory span buffer with a per-thread stack of open spans."""

    def __init__(self, out_dir, role):
        self.out_dir = out_dir
        self.role = role
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        """`fn` wrapped in a span.

        `attrs(args, kwargs, result, cpu_start)` returns the span's
        attributes (it is skipped when `fn` raises).  `name` may be a
        callable of `(args, kwargs)` for spans whose name depends on the
        call.
        """
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            cpu = time.process_time()
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append([span_id, parent,
                              name(args, kwargs) if callable(name) else name,
                              start, time.monotonic(), None])
                raise
            finally:
                stack.pop()
            end = time.monotonic()
            spans.append([span_id, parent,
                          name(args, kwargs) if callable(name) else name,
                          start, end,
                          attrs(args, kwargs, result, cpu) if attrs else None])
            return result

        return wrapper

    def dump(self):
        """Write this process's spans to `<out_dir>/spans-<pid>.json`."""
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"role": self.role, "spans": self.spans}, handle)

    def after_fork(self):
        """In a forked pool worker: start empty, write spans at exit."""
        import multiprocessing.util as mp_util

        self.spans.clear()
        self._local = threading.local()
        self.role = "worker"
        mp_util.Finalize(self, self.dump, exitpriority=100)


def _replace_everywhere(original, replacement):
    """Rebind every `repro` module attribute that is `original`."""
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".", 1)[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(recorder, module, attr, name, attrs=None):
    original = getattr(module, attr)
    _replace_everywhere(original, recorder.wrap(name, original, attrs))


def _patch_method(recorder, cls, attr, name, attrs=None):
    setattr(cls, attr, recorder.wrap(name, vars(cls)[attr], attrs))


def _sim_name(args, kwargs):
    return "uarch.baseline" if args[0].annotation is None \
        else "uarch.annotated"


def _sim_attrs(args, kwargs, stats, cpu):
    """Exact simulated statistics plus the identity of the simulation."""
    from repro.core import annotation_io

    simulator, trace = args[0], args[1]
    label = args[2] if len(args) > 2 else kwargs.get("label", "")
    marks = "" if simulator.annotation is None \
        else annotation_io.dumps(simulator.annotation, indent=None)
    replay = zlib.crc32(getattr(trace, "addresses", b""),
                        zlib.crc32(getattr(trace, "pcs", b"")))
    key = "|".join((label, simulator.program.fingerprint,
                    repr(simulator.config),
                    f"{zlib.crc32(marks.encode()):08x}",
                    f"{len(trace)}:{replay:08x}"))
    attrs = {"key": key}
    for out, field in FINGERPRINT_FIELDS:
        attrs[out] = getattr(stats, field)
    return attrs


def _patch_analysis(recorder):
    """`compiler.analysis` spans that say whether the manager hit."""
    from repro.compiler.analysis_manager import AnalysisManager

    original = AnalysisManager.analysis
    lookups = {}

    def probe(self, program, profile):
        key = self.key_for(program, profile)
        lookups[threading.get_ident()] = (repr(key), key in self)
        return original(self, program, profile)

    def attrs(args, kwargs, result, cpu):
        key, hit = lookups.pop(threading.get_ident())
        return {"key": key, "hit": hit}

    AnalysisManager.analysis = recorder.wrap(
        "compiler.analysis", functools.wraps(original)(probe), attrs)


def _patch_pool(recorder):
    """`exec.pool` spans around pooled `execute` calls, `experiments.cell`
    spans (with the job's CPU time) around each job in a worker."""
    from repro.exec import engine

    original = engine.execute
    pooled = recorder.wrap(
        "exec.pool", original,
        lambda a, k, r, cpu: {"workers": min(engine.resolve_jobs(k["jobs"]),
                                             len(a[0]))},
    )

    @functools.wraps(original)
    def execute(jobs_list, jobs=None):
        planned = list(jobs_list)
        if min(engine.resolve_jobs(jobs), len(planned)) <= 1:
            return original(planned, jobs=jobs)
        return pooled(planned, jobs=jobs)

    _replace_everywhere(original, execute)
    engine._run_job = recorder.wrap(
        "experiments.cell", engine._run_job,
        lambda a, k, r, cpu: {"cpu": time.process_time() - cpu},
    )


def install(out_dir, serve=False):
    """Wrap every layer's entry points; returns this process's recorder."""
    import multiprocessing.util as mp_util

    import repro.__main__ as cli
    from repro.core.selector import DivergeSelector
    from repro.emulator.emulator import Emulator
    from repro.exec import artifact_cache
    from repro.uarch.simulator import TimingSimulator
    from repro.uarch.vectorized import VectorizedTimingSimulator
    from repro.workloads import suite

    recorder = Recorder(out_dir, "main")
    _patch_function(recorder, suite, "load_benchmark", "workloads.load",
                    lambda a, k, r, cpu: {"key": a[0]})
    _patch_method(recorder, Emulator, "run", "emulator.run",
                  lambda a, k, r, cpu: {"insts": r.instruction_count})
    _patch_method(recorder, DivergeSelector, "select", "compiler.select")
    _patch_analysis(recorder)
    for cls in (TimingSimulator, VectorizedTimingSimulator):
        _patch_method(recorder, cls, "run", _sim_name, _sim_attrs)
    _patch_function(recorder, artifact_cache, "load", "exec.cache_load",
                    lambda a, k, r, cpu: {"key": a[0], "hit": r is not None})
    _patch_function(recorder, artifact_cache, "store", "exec.cache_store")
    _patch_pool(recorder)
    for name, module in cli.ARTIFACTS.items():
        _patch_function(recorder, module, "run", f"experiments.{name}")
    if serve:
        from repro.serve.app import ServeApp

        _patch_method(
            recorder, ServeApp, "handle_request", "serve.request",
            lambda a, k, r, cpu: {
                "endpoint": r[2]["endpoint"], "status": r[0],
                "coalesced": r[2]["coalesced"], "trace_id": r[2]["trace_id"],
            },
        )
    mp_util.register_after_fork(recorder, Recorder.after_fork)
    return recorder


# -- analysis ---------------------------------------------------------------


def load_spans(out_dir):
    """Every span file of one traced run, as a list of `(role, spans)`."""
    loaded = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(out_dir, entry), encoding="utf-8") as handle:
                data = json.load(handle)
            loaded.append((data["role"], data["spans"]))
    return loaded


def _ratio(num, den):
    return num / den if den else 0.0


def _duration(span):
    return span[4] - span[3]


def analyze(out_dir):
    """Per-layer metrics and the simulation fingerprint of a traced run.

    Returns `(metrics, fingerprint, consistent, attributed_s)`:

    - `metrics` holds every per-layer metric except the `serve.*` and
      `trace.*` ones;
    - `fingerprint` sums the simulated statistics over *distinct*
      simulations, so work a pool repeats does not change it;
    - `consistent` is False if two simulations with the same identity
      produced different statistics;
    - `attributed_s` is the main process's self time inside named layers
      other than the experiment drivers.
    """
    by_name = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    attributed = 0.0
    calibration_keys = []
    for role, spans in load_spans(out_dir):
        # Span ids are unique only within one process.
        by_id = {span[0]: span for span in spans}
        child_time = {}
        for span in spans:
            if span[1]:
                child_time[span[1]] = child_time.get(span[1], 0.0) \
                    + _duration(span)
        for span in spans:
            name = span[2]
            by_name.setdefault(name, []).append(span)
            layer = name.split(".", 1)[0]
            own = _duration(span) - child_time.get(span[0], 0.0)
            layer_self[layer] += own
            if role == "main" and layer != "experiments":
                attributed += own
            parent = by_id.get(span[1])
            # A calibration is the emulator run inside a workload load.
            if name == "emulator.run" and parent is not None \
                    and parent[2] == "workloads.load":
                calibration_keys.append(parent[5]["key"] if parent[5] else None)

    def spans(name):
        return by_name.get(name, [])

    def total(name):
        return sum(_duration(span) for span in spans(name))

    m = {}
    m["workloads.load.calls"] = len(spans("workloads.load"))
    m["workloads.load.s"] = total("workloads.load")
    m["workloads.calibrations"] = len(calibration_keys)
    m["workloads.calibration_keys"] = len(set(calibration_keys))
    emulations = spans("emulator.run")
    m["emulator.run.calls"] = len(emulations)
    m["emulator.run.s"] = total("emulator.run")
    m["emulator.insts_per_s"] = _ratio(
        sum(s[5]["insts"] for s in emulations if s[5]), m["emulator.run.s"])
    m["compiler.select.calls"] = len(spans("compiler.select"))
    m["compiler.select.s"] = total("compiler.select")
    analyses = [s for s in spans("compiler.analysis") if s[5]]
    hits = sum(1 for s in analyses if s[5]["hit"])
    m["compiler.analysis_hit_ratio"] = _ratio(hits, len(analyses))
    m["compiler.analysis_misses"] = len(analyses) - hits
    m["compiler.analysis_keys"] = len({s[5]["key"] for s in analyses})

    seen = {}
    consistent = True
    for kind in ("annotated", "baseline"):
        runs = [s for s in spans(f"uarch.{kind}") if s[5]]
        seconds = total(f"uarch.{kind}")
        m[f"uarch.{kind}.runs"] = len(spans(f"uarch.{kind}"))
        m[f"uarch.{kind}.s"] = seconds
        m[f"uarch.{kind}.insts_per_s"] = _ratio(
            sum(s[5]["sim_insts"] for s in runs), seconds)
        for span in runs:
            stats = tuple(span[5][out] for out, _ in FINGERPRINT_FIELDS)
            if seen.setdefault(span[5]["key"], stats) != stats:
                consistent = False
        if kind == "baseline":
            keys = len({s[5]["key"] for s in runs})
            m["uarch.baseline.keys"] = keys
            m["uarch.baseline.dup_ratio"] = _ratio(len(runs), keys)
    fingerprint = {
        out: sum(stats[i] for stats in seen.values())
        for i, (out, _) in enumerate(FINGERPRINT_FIELDS)
    }
    m.update({f"uarch.{out}": value for out, value in fingerprint.items()})

    loads = spans("exec.cache_load")
    m["exec.cache_store.calls"] = len(spans("exec.cache_store"))
    m["exec.cache_store.s"] = total("exec.cache_store")
    m["exec.cache_load.calls"] = len(loads)
    m["exec.cache_load.s"] = total("exec.cache_load")
    m["exec.cache_load.keys"] = len({s[5]["key"] for s in loads if s[5]})
    m["exec.cache_hit_ratio"] = _ratio(
        sum(1 for s in loads if s[5] and s[5]["hit"]), len(loads))
    pools = [s for s in spans("exec.pool") if s[5]]
    m["exec.pool.s"] = total("exec.pool")
    m["exec.pool.efficiency"] = _ratio(
        sum(s[5]["cpu"] for s in spans("experiments.cell") if s[5]),
        sum(s[5]["workers"] * _duration(s) for s in pools))

    for driver in DRIVERS:
        m[f"experiments.{driver}.s"] = total(f"experiments.{driver}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m, fingerprint, consistent, attributed


def serve_metrics(out_dir, client_ms_by_trace):
    """Serve-layer metrics from the daemon shim's `serve.request` spans.

    `client_ms_by_trace` maps a request's trace id, which the daemon
    echoes in a response header, to the latency the client measured.
    Returns `(metrics, unattributed_share)`, where the share is the part
    of the client's waiting that no daemon-side request span covers.
    """
    requests = [s for _, spans in load_spans(out_dir) for s in spans
                if s[2] == "serve.request" and s[5]]
    m = {}
    for endpoint in ("compile", "explain", "simulate"):
        durations = [_duration(s) * 1000.0 for s in requests
                     if s[5]["endpoint"] == endpoint]
        m[f"serve.{endpoint}.p50_ms"] = \
            statistics.median(durations) if durations else 0.0
    overhead = []
    daemon_total = client_total = 0.0
    for span in requests:
        client_ms = client_ms_by_trace.get(span[5]["trace_id"])
        if client_ms is None:
            continue
        daemon_ms = _duration(span) * 1000.0
        overhead.append(client_ms - daemon_ms)
        daemon_total += daemon_ms
        client_total += client_ms
    m["serve.overhead_ms"] = statistics.median(overhead) if overhead else 0.0
    m["serve.coalesced_ratio"] = _ratio(
        sum(1 for s in requests if s[5]["coalesced"]), len(requests))
    return m, 1.0 - _ratio(daemon_total, client_total)
