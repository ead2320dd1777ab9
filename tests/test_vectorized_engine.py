"""The batch replay against the frozen scalar oracle.

The contract under test (see ``repro.uarch.simulator``): the batch
replay of :class:`~repro.uarch.TimingSimulator` produces *bit-identical*
``SimStats`` — including per-branch counters, runtime-ledger rows, and
the tracer event stream — to the one-row-at-a-time replay frozen in
:mod:`tests._reference_sim`, for every (program, config, annotation)
triple at every window size.  That includes configs whose I-cache
cannot hold the program, where the replay probes the I-cache at
fetch-group starts.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SelectionConfig, select_diverge_branches
from repro.emulator import execute
from repro.errors import SimulationError
from repro.isa import assemble
from repro.memory import MemoryHierarchy
from repro.obs.ledger import RuntimeLedger
from repro.obs.tracer import ListSink, Tracer
from repro.profiling import Profiler
from repro.uarch import ProcessorConfig, TimingSimulator
from repro.uarch.simulator import icache_conflicts
from repro.workloads import load_benchmark
from repro.workloads.generator import (
    BenchmarkSpec,
    Region,
    build_program,
    fill_memory,
)
from repro.workloads.suite import BENCHMARK_SPECS

from tests._reference_sim import ReferenceSimulator
from tests.test_simulator_dmp import hammock_annotation, hammock_setup


def _trace_of(workload):
    trace, _ = execute(
        workload.program,
        memory=workload.memory,
        max_instructions=workload.max_instructions,
        compact=True,
    )
    return trace


def _profiled_trace(program, memory, max_instructions=200_000):
    """Emulate once, returning ``(trace, branch profile)``."""
    profiler = Profiler()
    collector = profiler.collector()
    trace, result = execute(
        program, memory=memory, max_instructions=max_instructions,
        on_branch=collector.on_branch, compact=True,
    )
    return trace, collector.finish(result)


def _run_pair(program, trace, annotation=None, config=None,
              window_size=None, label="run", events=False):
    """Oracle and batch-replay results for one input.

    Each result is ``(stats dict, ledger rows)``, plus the tracer's
    JSON-encoded event stream when ``events`` is set.
    """
    out = []
    for cls in (ReferenceSimulator, TimingSimulator):
        kwargs = {}
        if cls is TimingSimulator and window_size is not None:
            kwargs["window_size"] = window_size
        if events:
            sink = ListSink()
            kwargs["tracer"] = Tracer(sink)
        ledger = RuntimeLedger()
        stats = cls(
            program, config=config, annotation=annotation,
            collect_per_branch=True, ledger=ledger, **kwargs
        ).run(trace, label=label)
        result = (stats.as_dict(per_branch=True), ledger._branches)
        if events:
            result += (json.dumps(sink.records, sort_keys=True),)
        out.append(result)
    return out


class TestSuiteBitIdentity:
    """Every workload, baseline + both selection presets."""

    @pytest.mark.parametrize("name", sorted(BENCHMARK_SPECS))
    def test_workload(self, name):
        workload = load_benchmark(name, scale=0.05)
        trace, profile = _profiled_trace(
            workload.program, workload.memory,
            workload.max_instructions,
        )
        annotations = [None]
        for config in (SelectionConfig.all_best_heur(),
                       SelectionConfig.all_best_cost()):
            annotations.append(select_diverge_branches(
                workload.program, profile, config
            ))
        for annotation in annotations:
            (scalar, scalar_led), (vec, vec_led) = _run_pair(
                workload.program, trace, annotation, label=name
            )
            assert scalar == vec
            assert scalar_led == vec_led


class TestEventStreamIdentity:
    @pytest.mark.parametrize("name", ["twolf", "gzip"])
    def test_tracer_events_identical(self, name):
        workload = load_benchmark(name, scale=0.05)
        trace, profile = _profiled_trace(
            workload.program, workload.memory,
            workload.max_instructions,
        )
        annotation = select_diverge_branches(
            workload.program, profile, SelectionConfig.all_best_heur()
        )
        streams = []
        for cls in (ReferenceSimulator, TimingSimulator):
            sink = ListSink()
            cls(workload.program, annotation=annotation,
                tracer=Tracer(sink)).run(trace, label=name)
            streams.append(json.dumps(sink.records, sort_keys=True))
        assert streams[0] == streams[1]


class TestWindowBoundaries:
    def test_window_sweep_with_episodes(self):
        """Tiny windows force episode entries/flushes onto boundaries."""
        program, trace = hammock_setup()
        annotation = hammock_annotation()
        reference = ReferenceSimulator(
            program, annotation=annotation
        ).run(trace).as_dict()
        assert reference["dpred_episodes"] > 0
        for window_size in (1, 2, 3, 5, 7, 16, 64, 1000):
            got = TimingSimulator(
                program, annotation=annotation, window_size=window_size
            ).run(trace).as_dict()
            assert got == reference, f"window_size={window_size}"

    def test_episode_entry_pinned_on_window_edge(self):
        """Windows cut exactly at the first diverge-branch row."""
        from repro.emulator import trace_rows
        from tests.test_simulator_dmp import HAMMOCK_BRANCH

        program, trace = hammock_setup()
        annotation = hammock_annotation(always=True)
        first = next(
            i for i, (pc, _, _) in enumerate(trace_rows(trace))
            if pc == HAMMOCK_BRANCH
        )
        reference = ReferenceSimulator(
            program, annotation=annotation
        ).run(trace).as_dict()
        assert reference["dpred_episodes"] > 0
        for window_size in (first, first + 1, max(1, first - 1)):
            got = TimingSimulator(
                program, annotation=annotation, window_size=window_size
            ).run(trace).as_dict()
            assert got == reference, f"window_size={window_size}"

    def test_object_trace(self):
        workload = load_benchmark("gzip", scale=0.05)
        trace, _ = execute(
            workload.program, memory=workload.memory,
            max_instructions=workload.max_instructions, compact=False,
        )
        assert ReferenceSimulator(workload.program).run(trace).as_dict() \
            == TimingSimulator(workload.program).run(trace).as_dict()

    def test_window_size_validated(self):
        workload = load_benchmark("gzip", scale=0.05)
        with pytest.raises(SimulationError):
            TimingSimulator(workload.program, window_size=0)


REGION_KINDS = (
    "simple_hammock", "nested_hammock", "freq_hammock",
    "short_hammock", "split", "ret_hammock", "diverge_loop",
    "long_loop", "compute", "memory",
)


@st.composite
def random_workloads(draw):
    regions = tuple(
        Region(
            kind=draw(st.sampled_from(REGION_KINDS)),
            behavior=draw(st.sampled_from(("biased", "markov",
                                           "pattern"))),
            p=draw(st.floats(min_value=0.05, max_value=0.95)),
            side_insts=draw(st.integers(min_value=1, max_value=10)),
            body_insts=draw(st.integers(min_value=1, max_value=8)),
            mean_iters=draw(st.floats(min_value=1.0, max_value=6.0)),
            trip_kind=draw(st.sampled_from(("geometric", "jittery",
                                            "uniform"))),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    return (
        regions,
        draw(st.integers(min_value=16, max_value=60)),   # iterations
        draw(st.integers(min_value=0, max_value=2**31)),  # memory seed
        draw(st.sampled_from((1, 3, 7, 64, 1 << 15))),    # window
        draw(st.booleans()),                              # annotate?
    )


class TestPropertyBitIdentity:
    @given(random_workloads())
    @settings(max_examples=25, deadline=None)
    def test_random_programs(self, params):
        regions, iterations, seed, window_size, annotate = params
        spec = BenchmarkSpec(
            name="prop", regions=regions, iterations=iterations
        )
        program, segments = build_program(spec)
        memory = fill_memory(spec, segments, seed)
        trace, profile = _profiled_trace(program, memory)
        annotation = None
        if annotate:
            annotation = select_diverge_branches(
                program, profile, SelectionConfig.all_best_heur()
            )
        (scalar, scalar_led), (vec, vec_led) = _run_pair(
            program, trace, annotation, window_size=window_size
        )
        assert scalar == vec
        assert scalar_led == vec_led


#: A 1 KB direct-mapped I-cache holds no shipped workload.
NON_RESIDENT = ProcessorConfig(icache_kb=1, icache_assoc=1)

#: Workloads the config property test draws from.
PROPERTY_WORKLOADS = ("gzip", "twolf", "gcc", "mcf", "crafty", "go")

_PREPARED = {}


def _prepared(name):
    """``(program, trace, all-best-heur annotation)``, built once."""
    if name not in _PREPARED:
        workload = load_benchmark(name, scale=0.05)
        trace, profile = _profiled_trace(
            workload.program, workload.memory,
            workload.max_instructions,
        )
        annotation = select_diverge_branches(
            workload.program, profile, SelectionConfig.all_best_heur()
        )
        _PREPARED[name] = (workload.program, trace, annotation)
    return _PREPARED[name]


class TestNonResidentICache:
    """Configs whose I-cache cannot hold the program: the replay probes
    the I-cache at fetch-group starts on lines of over-full sets."""

    def test_icache_conflicts_marks_overfull_sets(self):
        """26 lines over 16 direct-mapped sets: lines 0-9 share a set
        with lines 16-25, lines 10-15 have a set to themselves."""
        icache = MemoryHierarchy(icache_kb=1, icache_assoc=1).icache
        per_line = icache.words_per_line
        conflict = icache_conflicts(26 * per_line, icache)
        assert conflict[::per_line] == [True] * 10 + [False] * 6 \
            + [True] * 10
        assert conflict == [c for c in conflict[::per_line]
                            for _ in range(per_line)]

    @pytest.mark.parametrize("name", sorted(BENCHMARK_SPECS))
    def test_workload(self, name):
        workload = load_benchmark(name, scale=0.05)
        trace, profile = _profiled_trace(
            workload.program, workload.memory,
            workload.max_instructions,
        )
        annotation = select_diverge_branches(
            workload.program, profile, SelectionConfig.all_best_heur()
        )
        for marks in (None, annotation):
            reference, got = _run_pair(
                workload.program, trace, marks, config=NON_RESIDENT,
                label=name, events=True,
            )
            assert reference == got
            assert reference[0]["icache_misses"] > 0

    @given(
        name=st.sampled_from(PROPERTY_WORKLOADS),
        icache_kb=st.sampled_from((1, 2, 4)),
        icache_assoc=st.sampled_from((1, 2)),
        rob_size=st.sampled_from((8, 32, 128, 512)),
        fetch_width=st.integers(min_value=1, max_value=8),
        window_size=st.sampled_from((1, 3, 7, 64, 1 << 15)),
        annotate=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_configs(self, name, icache_kb, icache_assoc,
                            rob_size, fetch_width, window_size,
                            annotate):
        program, trace, annotation = _prepared(name)
        config = ProcessorConfig(
            icache_kb=icache_kb, icache_assoc=icache_assoc,
            rob_size=rob_size, fetch_width=fetch_width,
        )
        reference, got = _run_pair(
            program, trace, annotation if annotate else None,
            config=config, window_size=window_size, events=True,
        )
        assert reference == got


class TestEngineSelection:
    """There is one simulator and one replay loop, whatever the
    configuration."""

    def test_auto_picks_vectorized_when_supported(self):
        """On the Table 1 machine the code is I-cache resident: after
        the warm pass every fetch-group probe hits."""
        workload = load_benchmark("gzip", scale=0.05)
        trace, _ = execute(workload.program, memory=workload.memory,
                           max_instructions=workload.max_instructions,
                           compact=True)
        stats = TimingSimulator(workload.program).run(trace)
        assert stats.icache_misses == 0

    def test_auto_falls_back_on_unsupported_program(self):
        """A tiny I-cache misses on fetch-group probes, and the same
        replay loop still matches the oracle."""
        workload = load_benchmark("gzip", scale=0.05)
        trace, _ = execute(workload.program, memory=workload.memory,
                           max_instructions=workload.max_instructions,
                           compact=True)
        reference, got = _run_pair(workload.program, trace, None,
                                   config=NON_RESIDENT)
        assert reference == got
        assert got[0]["icache_misses"] > 0

    def test_config_validate_rejects_unknown_engine(self):
        """The old engine field is unknown to the config."""
        with pytest.raises(TypeError):
            ProcessorConfig(sim_engine="bogus")

    def test_unknown_engine_name_raises(self):
        """``--sim-engine`` is gone, so every engine name is a usage
        error."""
        from repro import __main__ as repro_main

        for name in ("warp", "vectorized"):
            with pytest.raises(SystemExit) as exc:
                repro_main.main(["fig5", "--sim-engine", name])
            assert exc.value.code == 2


class TestProfileCliEngine:
    def test_profile_json_validates_with_vectorized(self, tmp_path,
                                                    capsys):
        """The batch replay's profile record validates; it names no
        engine because there is only one."""
        from repro.obs.profile_cli import main, validate_profile

        out = tmp_path / "profile.json"
        assert main(["gzip", "--scale", "0.1", "--json",
                     "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert "engine" not in data
        assert validate_profile(data) == []
