"""The timing simulator's content-keyed result memo.

A memo hit must be indistinguishable from a fresh replay: the same
figure results, the same metrics (the memo's own
``cache_simresults_*`` counters aside), and an independent stats
object.  Runs whose side channels cannot be replayed — a tracer, a
ledger, a profiler — bypass it.
"""

import dataclasses
import json

import pytest

from repro.compiler import resolve
from repro.core import SelectionConfig, select_diverge_branches
from repro.core.marks import BinaryAnnotation
from repro.errors import SimulationError
from repro.exec import artifact_cache
from repro.experiments import fig5, fig7, meldcompare, runner
from repro.experiments.runner import KeyedCache, get_artifacts
from repro.obs import MetricsRegistry, PhaseProfile, telemetry
from repro.obs.ledger import RuntimeLedger
from repro.obs.tracer import ListSink, Tracer
from repro.uarch import ProcessorConfig, SimProfiler, TimingSimulator

SCALE = 0.05
BENCH = ["gzip", "twolf", "mcf"]
HITS = "cache_simresults_hits_total"


class _NoMemo:
    """Stands in for the runner's memo: every run replays."""

    def get(self, key):
        return None

    def put(self, key, value):
        pass

    def clear(self):
        pass


def _figures(monkeypatch, memo):
    """fig5 and fig7 from cold caches; returns (results, metrics)."""
    monkeypatch.setattr(runner, "sim_memo", memo)
    registry = MetricsRegistry()
    with telemetry(metrics=registry, phases=PhaseProfile()):
        runner.clear_cache()
        results = (
            fig5.run(scale=SCALE, benchmarks=BENCH, jobs=1),
            fig7.run(scale=SCALE, benchmarks=BENCH, jobs=1),
        )
    metrics = {
        name: entry for name, entry in registry.as_dict().items()
        if not name.startswith("cache_simresults_")
        and not name.endswith("_seconds_total")
    }
    return results, metrics, registry


def _setup(name="twolf", input_set="reduced"):
    artifacts = get_artifacts(name, input_set, SCALE)
    annotation = select_diverge_branches(
        artifacts.program, artifacts.profile,
        SelectionConfig.all_best_heur(),
    )
    return artifacts, annotation


def _hits(registry):
    instrument = registry.get(HITS)
    return 0 if instrument is None else instrument.value


class TestFiguresUnchanged:
    def test_memo_matches_fresh_replays(self, monkeypatch):
        artifact_cache.set_disabled(True)
        try:
            fresh, fresh_metrics, _ = _figures(monkeypatch, _NoMemo())
            memo = KeyedCache("simresults", max_entries=1024)
            memoized, memo_metrics, registry = _figures(monkeypatch, memo)
        finally:
            artifact_cache.set_disabled(None)
            runner.clear_cache()
        assert memoized == fresh
        assert memo_metrics == fresh_metrics
        # fig7's threshold sweep and fig5's presets repeat simulations.
        assert _hits(registry) > 0
        # Every simulation, baselines included, looked the memo up.
        assert registry.counter("sim_runs_total").value \
            == _hits(registry) \
            + registry.counter("cache_simresults_misses_total").value


class TestHits:
    def test_hit_is_an_independent_relabeled_copy(self):
        artifacts, annotation = _setup()
        memo = KeyedCache("simresults")
        registry = MetricsRegistry()

        def run(label):
            return TimingSimulator(
                artifacts.program, annotation=annotation,
                collect_per_branch=True, metrics=registry, memo=memo,
            ).run(artifacts.trace, label=label)

        with telemetry(metrics=registry):
            first = run("first")
            second = run("second")
            assert _hits(registry) == 1
            assert second is not first
            assert second.label == "second"
            assert first.label == "first"
            assert dataclasses.replace(second, label="first") == first
            second.cycles += 1
            pc = next(iter(second.per_branch))
            second.per_branch[pc]["executions"] += 1
            third = run("third")
        assert dataclasses.replace(third, label="first") == first
        assert _hits(registry) == 2

    def test_hit_records_the_runs_metric_contribution(self):
        artifacts, annotation = _setup()
        memo = KeyedCache("simresults")
        contributions = []
        for _ in range(2):
            registry = MetricsRegistry()
            with telemetry(metrics=registry):
                TimingSimulator(
                    artifacts.program, annotation=annotation,
                    metrics=registry, memo=memo,
                ).run(artifacts.trace, label="run")
            contributions.append(registry)
        missed, hit = (r.as_dict() for r in contributions)
        assert _hits(contributions[1]) == 1
        for snapshot in (missed, hit):
            for name in list(snapshot):
                if name.startswith("cache_simresults_"):
                    del snapshot[name]
        assert hit == missed
        assert missed["sim_runs_total"]["value"] == 1
        assert missed["dpred_episode_cycles"]["count"] > 0
        # Help texts travel with the contribution.
        assert contributions[1].get("confidence_pvn").help

    def test_a_memoized_simulator_runs_once(self):
        artifacts, annotation = _setup()
        simulator = TimingSimulator(
            artifacts.program, annotation=annotation,
            memo=KeyedCache("simresults"),
        )
        simulator.run(artifacts.trace)
        with pytest.raises(SimulationError, match="runs once"):
            simulator.run(artifacts.trace)

    def test_runner_hits_show_in_the_counter(self):
        registry = MetricsRegistry()
        _, annotation = _setup()
        with telemetry(metrics=registry):
            a = runner.run_annotated("twolf", annotation, scale=SCALE,
                                     label="a")
            b = runner.run_annotated("twolf", annotation, scale=SCALE,
                                     label="b")
        assert _hits(registry) == 1
        assert (a.label, b.label) == ("a", "b")
        assert b.cycles == a.cycles
        runner.clear_cache()
        assert len(runner.sim_memo) == 0

    def test_empty_selection_hits_the_baseline(self):
        registry = MetricsRegistry()
        with telemetry(metrics=registry):
            runner.clear_cache()
            base = runner.run_baseline("twolf", scale=SCALE)
            empty = runner.run_annotated(
                "twolf", BinaryAnnotation("twolf", []), scale=SCALE,
                label="none",
            )
        assert _hits(registry) == 1
        assert dataclasses.replace(empty, label=base.label) == base
        runner.clear_cache()


class TestBypass:
    """Event streams, ledger rows and profiles are never replayed."""

    def _prefilled(self, artifacts, annotation):
        memo = KeyedCache("simresults")
        TimingSimulator(
            artifacts.program, annotation=annotation, memo=memo,
        ).run(artifacts.trace, label="x")
        return memo

    def _bypassed(self, memo, artifacts, annotation, **kwargs):
        entries = len(memo)
        registry = MetricsRegistry()
        with telemetry(metrics=registry):
            stats = TimingSimulator(
                artifacts.program, annotation=annotation,
                metrics=registry, memo=memo, **kwargs,
            ).run(artifacts.trace, label="x")
        assert registry.get(HITS) is None
        assert registry.get("cache_simresults_misses_total") is None
        assert len(memo) == entries
        return stats

    def test_tracer(self):
        artifacts, annotation = _setup()
        memo = self._prefilled(artifacts, annotation)
        streams = []
        for use_memo in (KeyedCache("simresults"), memo):
            sink = ListSink()
            self._bypassed(use_memo, artifacts, annotation,
                           tracer=Tracer(sink))
            streams.append(json.dumps(sink.records, sort_keys=True))
        assert streams[0] == streams[1]
        assert '"sim.run.end"' in streams[0]

    def test_ledger(self):
        artifacts, annotation = _setup()
        memo = self._prefilled(artifacts, annotation)
        rows = []
        for use_memo in (KeyedCache("simresults"), memo):
            ledger = RuntimeLedger()
            self._bypassed(use_memo, artifacts, annotation, ledger=ledger)
            rows.append(ledger.as_dict())
        assert rows[0] == rows[1]
        assert rows[0]

    def test_profiler(self):
        artifacts, annotation = _setup()
        memo = self._prefilled(artifacts, annotation)
        events = []
        for use_memo in (KeyedCache("simresults"), memo):
            profiler = SimProfiler()
            self._bypassed(use_memo, artifacts, annotation,
                           profiler=profiler)
            assert len(profiler.runs) == 1
            events.append(profiler.runs[0]["events"])
        assert events[0] == events[1]


class TestKeys:
    """One differing input is one differing key — and a miss."""

    def _key(self, program, trace, **kwargs):
        return TimingSimulator(program, **kwargs).memo_key(trace)

    def _assert_miss(self, program, trace, base_kwargs, kwargs):
        memo = KeyedCache("simresults")
        registry = MetricsRegistry()
        with telemetry(metrics=registry):
            for program_, trace_, kw in (
                (program[0], trace[0], base_kwargs),
                (program[1], trace[1], kwargs),
            ):
                TimingSimulator(
                    program_, metrics=registry, memo=memo, **kw
                ).run(trace_)
        assert _hits(registry) == 0
        assert len(memo) == 2

    def test_config_field(self):
        artifacts, annotation = _setup()
        program, trace = artifacts.program, artifacts.trace
        base = {"annotation": annotation}
        other = {"annotation": annotation,
                 "config": ProcessorConfig(rob_size=256)}
        assert self._key(program, trace, **base) \
            != self._key(program, trace, **other)
        self._assert_miss((program, program), (trace, trace), base, other)

    def test_one_mark(self):
        artifacts, annotation = _setup()
        program, trace = artifacts.program, artifacts.trace
        marks = list(annotation)
        assert len(marks) > 1
        changed = dataclasses.replace(
            marks[0], always_predicate=not marks[0].always_predicate
        )
        variants = (
            BinaryAnnotation(program.name, marks[1:]),
            BinaryAnnotation(program.name, [changed] + marks[1:]),
        )
        base = self._key(program, trace, annotation=annotation)
        for variant in variants:
            assert self._key(program, trace, annotation=variant) != base
            self._assert_miss((program, program), (trace, trace),
                              {"annotation": annotation},
                              {"annotation": variant})
        assert self._key(program, trace, annotation=BinaryAnnotation(
            program.name, marks)) == base

    def test_melded_program(self):
        artifacts = get_artifacts("twolf", "reduced", SCALE)
        state, melded, melded_trace = meldcompare.melded_run(
            "twolf", resolve("meld"), scale=SCALE
        )
        assert state.transform is not None
        assert melded.fingerprint != artifacts.program.fingerprint
        # Same trace, only the program differs.
        assert self._key(artifacts.program, artifacts.trace) \
            != self._key(melded, artifacts.trace)
        self._assert_miss((artifacts.program, melded),
                          (artifacts.trace, melded_trace), {}, {})

    def test_input_set(self):
        reduced = get_artifacts("twolf", "reduced", SCALE)
        train = get_artifacts("twolf", "train", SCALE)
        assert reduced.trace.digest() != train.trace.digest()
        assert self._key(reduced.program, reduced.trace) \
            != self._key(train.program, train.trace)
        self._assert_miss((reduced.program, train.program),
                          (reduced.trace, train.trace), {}, {})


class TestDigests:
    def test_program_fingerprint_is_128_bits(self):
        program = get_artifacts("gzip", "reduced", SCALE).program
        assert len(program.fingerprint) == 32
        int(program.fingerprint, 16)

    def test_trace_digest_covers_every_column_and_appends(self):
        from repro.emulator import Trace
        from repro.emulator.windows import trace_digest

        trace = Trace.from_bytes(*get_artifacts(
            "gzip", "reduced", SCALE).trace.to_bytes())
        digest = trace.digest()
        assert trace.digest() == digest
        for column in ("pcs", "next_pcs", "addresses"):
            copy = Trace.from_bytes(*trace.to_bytes())
            getattr(copy, column)[-1] += 1
            assert copy.digest() != digest
        # A row-object trace digests like its compact equivalent.
        assert trace_digest(list(trace)) == digest
        trace.record(0, 1)
        assert trace.digest() != digest
