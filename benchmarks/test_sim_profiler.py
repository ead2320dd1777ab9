"""Simulator cost-profiler benchmarks: the zero-overhead proof.

The per-component cost attribution in :mod:`repro.uarch.profiler` is
opt-in: ``TimingSimulator(..., profiler=None)`` — the default — must
stay on the check-free hot path (kernels are charged per window, never
per row).  This suite times both paths on the same prebuilt trace,
under two machine configurations:

- the Table 1 machine, whose I-cache holds the program, so the loop
  makes no I-cache probes (``test_run_vectorized_*``).
  ``vectorized_unprofiled_insts_per_sec``
  in ``BENCH_simprofiler.json`` is the zero-overhead figure
  ``benchmarks/trajectory.py`` gates against history, so a PR that
  sneaks per-instruction work onto the default path trips CI;
- a 1 KB direct-mapped I-cache that cannot hold the program, so the
  loop probes the I-cache per fetch group (``test_run_probing_*``).

Each profiled run records the measured slowdown (the *accepted* cost of
asking where the time goes) and the attributed component fractions,
and must keep the nine component buckets meaningful (a non-empty
partition summing to the run) with stats identical to the unprofiled
run.
"""

import json
import os
import pathlib

import pytest

from repro.emulator import execute
from repro.profiling import Profiler
from repro.uarch import ProcessorConfig, SimProfiler, TimingSimulator
from repro.workloads import load_benchmark

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

BENCHMARK = "crafty"
SCALE = 0.2

#: Machine configurations timed, by report-key prefix.
CONFIGS = {
    "vectorized": ProcessorConfig(),
    "probing": ProcessorConfig(icache_kb=1, icache_assoc=1),
}

_RESULTS = {}


@pytest.fixture(scope="module")
def prepared():
    workload = load_benchmark(BENCHMARK, scale=SCALE)
    collector = Profiler().collector()
    trace, result = execute(
        workload.program,
        memory=workload.memory,
        max_instructions=workload.max_instructions,
        on_branch=collector.on_branch,
        compact=True,
    )
    return workload, trace


@pytest.fixture(scope="module", autouse=True)
def simprofiler_report():
    yield
    if not _RESULTS:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    report = {
        "schema": 1,
        "cpu_count": os.cpu_count(),
        "benchmark": BENCHMARK,
        "scale": SCALE,
    }
    report.update(sorted(_RESULTS.items()))
    for prefix in CONFIGS:
        unprofiled = _RESULTS.get(f"{prefix}_unprofiled_seconds")
        profiled = _RESULTS.get(f"{prefix}_profiled_seconds")
        if unprofiled and profiled:
            report[f"{prefix}_profiling_slowdown"] = profiled / unprofiled
    path = RESULTS_DIR / "BENCH_simprofiler.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n[bench] sim-profiler timings written to {path}")


def _time_unprofiled(benchmark, prepared, prefix):
    workload, trace = prepared
    config = CONFIGS[prefix]
    stats = benchmark.pedantic(
        lambda: TimingSimulator(workload.program, config=config).run(trace),
        rounds=5,
        iterations=1,
    )
    seconds = benchmark.stats.stats.min
    _RESULTS[f"{prefix}_unprofiled_seconds"] = seconds
    _RESULTS[f"{prefix}_unprofiled_insts_per_sec"] = (
        stats.retired_instructions / seconds
    )
    return stats


def _time_profiled(benchmark, prepared, prefix):
    workload, trace = prepared
    config = CONFIGS[prefix]

    def run():
        profiler = SimProfiler()
        stats = TimingSimulator(
            workload.program, config=config, profiler=profiler
        ).run(trace)
        return stats, profiler

    stats, profiler = benchmark.pedantic(run, rounds=5, iterations=1)
    seconds = benchmark.stats.stats.min
    _RESULTS[f"{prefix}_profiled_seconds"] = seconds
    _RESULTS[f"{prefix}_profiled_insts_per_sec"] = (
        stats.retired_instructions / seconds
    )
    _RESULTS[f"{prefix}_components"] = {
        row["name"]: {
            "fraction": round(row["fraction"], 4),
            "events": row["events"],
        }
        for row in profiler.components()
    }
    # The stopwatch partition must account for (essentially) the whole
    # instrumented run: buckets are charged back-to-back with no gaps.
    assert profiler.total_seconds() > 0
    # Attribution never changes the machine model.
    assert stats.as_dict() == TimingSimulator(
        workload.program, config=config
    ).run(trace).as_dict()
    return stats, profiler


def test_run_vectorized_unprofiled(benchmark, prepared):
    """The default ``profiler=None`` hot path (the zero-overhead gate)."""
    _time_unprofiled(benchmark, prepared, "vectorized")


def test_run_vectorized_profiled(benchmark, prepared):
    """Per-kernel component attribution on the Table 1 machine."""
    _time_profiled(benchmark, prepared, "vectorized")


def test_run_probing_unprofiled(benchmark, prepared):
    """``profiler=None`` with per-fetch-group I-cache probes."""
    stats = _time_unprofiled(benchmark, prepared, "probing")
    assert stats.icache_misses > 0


def test_run_probing_profiled(benchmark, prepared):
    """Attribution with probes: one icache event per probe, after the
    warm pass's one per line."""
    stats, profiler = _time_profiled(benchmark, prepared, "probing")
    icache = next(row for row in profiler.components()
                  if row["name"] == "icache")
    assert icache["events"] > stats.icache_misses > 0
