"""Engine throughput benchmarks (not paper figures).

Times the experiment engine introduced with ``repro.exec``: the fused
single-pass artifact build vs the old two-pass build, warm
artifact-cache loads, simulation over the compact trace encoding, and
a small figure-suite run at ``--jobs 1`` vs ``--jobs 2``.  The
measured wall-clock seconds are written to
``benchmarks/results/BENCH_engine.json`` so the performance trajectory
is tracked across PRs.
"""

import json
import os
import pathlib
import statistics
import time

import pytest

from repro.emulator import execute
from repro.exec import artifact_cache
from repro.experiments import fig6, runner
from repro.profiling import Profiler
from repro.uarch import TimingSimulator
from repro.workloads import load_benchmark
from tests._reference_sim import ReferenceSimulator

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Small fixed cell grid so suite timings are comparable across runs.
SUITE_BENCHMARKS = ["gzip", "twolf", "crafty"]
SUITE_SCALE = 0.2

#: Interleaved oracle/replay rounds behind the >= 5x speedup assert.
SPEEDUP_ROUNDS = 21

_RESULTS = {}

#: Extra top-level report keys; ``*_per_sec`` entries here are picked
#: up by ``benchmarks/trajectory.py`` as ``engine.<key>`` and gated.
_TOP = {}


def _record(name, benchmark):
    _RESULTS[name] = benchmark.stats.stats.min


@pytest.fixture(scope="module", autouse=True)
def engine_report(tmp_path_factory):
    """Redirect the disk cache for the module, then write the report."""
    previous = os.environ.get(artifact_cache.ENV_CACHE_DIR)
    scratch = tmp_path_factory.mktemp("engine-cache")
    os.environ[artifact_cache.ENV_CACHE_DIR] = str(scratch)
    runner.clear_cache()
    yield
    if previous is None:
        os.environ.pop(artifact_cache.ENV_CACHE_DIR, None)
    else:
        os.environ[artifact_cache.ENV_CACHE_DIR] = previous
    runner.clear_cache()
    if not _RESULTS:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    report = {
        "schema": 1,
        "cpu_count": os.cpu_count(),
        "suite_benchmarks": SUITE_BENCHMARKS,
        "suite_scale": SUITE_SCALE,
        "seconds": dict(sorted(_RESULTS.items())),
    }
    report.update(sorted(_TOP.items()))
    path = RESULTS_DIR / "BENCH_engine.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n[bench] engine timings written to {path}")


@pytest.fixture(scope="module")
def workload():
    return load_benchmark("crafty", scale=0.2)


def _single_pass(workload):
    profiler = Profiler()
    collector = profiler.collector()
    trace, result = execute(
        workload.program,
        memory=workload.memory,
        max_instructions=workload.max_instructions,
        on_branch=collector.on_branch,
        compact=True,
    )
    return trace, collector.finish(result)


def test_single_pass_build(benchmark, workload):
    """One fused emulation producing both trace and profile."""
    benchmark.pedantic(lambda: _single_pass(workload), rounds=3,
                       iterations=1)
    _record("emulator_single_pass_build", benchmark)


def test_two_pass_build(benchmark, workload):
    """The pre-engine baseline: trace run plus a second profile run."""

    def two_pass():
        trace, _ = execute(
            workload.program,
            memory=workload.memory,
            max_instructions=workload.max_instructions,
        )
        profile = Profiler().profile(
            workload.program,
            memory=workload.memory,
            max_instructions=workload.max_instructions,
        )
        return trace, profile

    benchmark.pedantic(two_pass, rounds=3, iterations=1)
    _record("emulator_two_pass_build", benchmark)


def test_cache_warm_load(benchmark, workload):
    """Deserializing a cached (trace, profile) pair from disk."""
    profiler = Profiler()
    trace, profile = _single_pass(workload)
    key = artifact_cache.artifact_key(workload, profiler.fingerprint())
    artifact_cache.store(key, trace, profile)
    loaded = benchmark.pedantic(
        lambda: artifact_cache.load(key), rounds=3, iterations=1
    )
    assert loaded is not None
    _record("cache_warm_load", benchmark)


def test_simulator_reference(benchmark, workload):
    """The frozen scalar oracle (``tests/_reference_sim.py``).

    Timed only as the yardstick for the batch replay's speedup; its
    throughput is test-side code, so it is recorded as
    ``reference_insts_per_s`` and kept out of the trajectory gate.
    """
    trace, _ = _single_pass(workload)
    stats = benchmark.pedantic(
        lambda: ReferenceSimulator(workload.program).run(trace),
        rounds=3,
        iterations=1,
    )
    _record("simulator_reference", benchmark)
    _TOP["reference_insts_per_s"] = (
        stats.retired_instructions / benchmark.stats.stats.min
    )


def _interleaved_speedup(program, trace, rounds=SPEEDUP_ROUNDS):
    """The batch replay's speedup over the scalar oracle.

    Each round runs the oracle twice, then the batch replay twice, on
    the same trace, and times the second run of each (simulator
    construction included): the first warms the CPU caches for that
    engine, as the consecutive rounds of a ``benchmark.pedantic`` run
    do.  The speedup is the median of the per-round ratios.  Pairing
    adjacent runs cancels slow phases of a shared machine, and the
    median over many rounds keeps one outlier from deciding the
    result.  Returns ``(speedup, oracle median s, replay median s)``.
    """

    def timed(cls):
        cls(program).run(trace)
        start = time.perf_counter()
        cls(program).run(trace)
        return time.perf_counter() - start

    ratios, oracle, replay = [], [], []
    for _ in range(rounds):
        oracle.append(timed(ReferenceSimulator))
        replay.append(timed(TimingSimulator))
        ratios.append(oracle[-1] / replay[-1])
    return (statistics.median(ratios), statistics.median(oracle),
            statistics.median(replay))


def test_simulator_vectorized(benchmark, workload):
    """The simulator's batch replay on the same trace.

    Emits ``sim_vectorized.insts_per_sec`` (trajectory-gated as
    ``engine.sim_vectorized.insts_per_sec``; best of 3 rounds) and
    asserts the speedup over the scalar oracle stays at or above 5x —
    the batch replay's contract, per-round construction included.
    The speedup comes from :func:`_interleaved_speedup`, not from the
    two benchmarks' best rounds: a 3-round minimum of ~13 ms runs is
    too noisy on a shared machine to hold a 5x bound.
    """
    trace, _ = _single_pass(workload)
    reference_stats = ReferenceSimulator(workload.program).run(trace)
    stats = benchmark.pedantic(
        lambda: TimingSimulator(workload.program).run(trace),
        rounds=3,
        iterations=1,
    )
    assert stats.as_dict() == reference_stats.as_dict()
    _record("simulator_vectorized", benchmark)
    _TOP["sim_vectorized.insts_per_sec"] = (
        stats.retired_instructions / benchmark.stats.stats.min
    )
    speedup, oracle_s, replay_s = _interleaved_speedup(
        workload.program, trace
    )
    _TOP["sim_vectorized_speedup"] = speedup
    _TOP["sim_speedup_rounds"] = {
        "rounds": SPEEDUP_ROUNDS,
        "oracle_median_s": oracle_s,
        "replay_median_s": replay_s,
    }
    assert speedup >= 5.0, (
        f"batch replay must be >= 5x the scalar oracle, got "
        f"{speedup:.2f}x (median of {SPEEDUP_ROUNDS} interleaved rounds)"
    )


def _suite(jobs):
    runner.clear_cache()
    artifact_cache.set_disabled(True)
    try:
        return fig6.run(scale=SUITE_SCALE, benchmarks=SUITE_BENCHMARKS,
                        jobs=jobs)
    finally:
        artifact_cache.set_disabled(None)
        runner.clear_cache()


def test_suite_serial(benchmark):
    """A three-benchmark fig6 sweep on the serial path."""
    benchmark.pedantic(lambda: _suite(1), rounds=1, iterations=1)
    _record("suite_jobs1", benchmark)


def test_suite_two_workers(benchmark):
    """The same sweep fanned out over two worker processes."""
    benchmark.pedantic(lambda: _suite(2), rounds=1, iterations=1)
    _record("suite_jobs2", benchmark)
