"""Opt-in per-component cost attribution for the timing simulator.

Answers *where the simulator's own wall-clock goes* — fetch-group
management, branch prediction, I/D-cache walks, ROB retire, dpred
episode bookkeeping, wrong-path synthesis — so a speedup can be pinned
to the component it moved instead of one opaque total.

The accounting is a *stopwatch partition*, not nested timers: the run
keeps a single running timestamp and charges the time since the
previous charge point to exactly one component bucket at each segment
boundary.  Segments are the batch replay's kernels (per window), not
rows: the per-window pre-passes bill to their own components and the
replay loop's residual bills to ``dataflow``.  The buckets therefore sum to the instrumented run's total
wall-clock *exactly* (no double counting, no gaps between the first
and last charge).  Each bucket also carries a deterministic event
count (instructions fetched, predictions made, cache walks, wrong-path
µops synthesized, ...) derived purely from the trace — identical
across repeated runs and across machines, unlike the seconds.

Following the decision-ledger pattern (PR 5), the profiler is opt-in:
``TimingSimulator(..., profiler=None)`` — the default — keeps the hot
loop on the counter-free path (a single hoisted ``profiling`` bool
guards every charge site), which the zero-overhead benchmark in
``benchmarks/test_sim_profiler.py`` pins down.
"""

#: Component bucket names, in charge-index order.
COMPONENTS = (
    "fetch",
    "branch_predict",
    "icache",
    "dcache",
    "rob_retire",
    "dpred_episode",
    "wrong_path",
    "dataflow",
    "other",
)

(FETCH, BRANCH_PRED, ICACHE, DCACHE, ROB_RETIRE, DPRED_EPISODE,
 WRONG_PATH, DATAFLOW, OTHER) = range(len(COMPONENTS))

NUM_COMPONENTS = len(COMPONENTS)

#: What each bucket's event count means (shown in the hotspot table).
EVENT_MEANING = {
    "fetch": "instructions through the front end",
    "branch_predict": "control-flow instructions predicted",
    "icache": "I-cache walks",
    "dcache": "D-cache walks",
    "rob_retire": "µops retired (incl. wrong-path and selects)",
    "dpred_episode": "episodes entered or extended",
    "wrong_path": "wrong-path µops synthesized",
    "dataflow": "instructions issued",
    "other": "run finalization",
}


class SimProfiler:
    """Accumulates per-component seconds and event counts across runs."""

    __slots__ = ("runs", "seconds", "events")

    def __init__(self):
        self.runs = []
        self.seconds = [0.0] * NUM_COMPONENTS
        self.events = [0] * NUM_COMPONENTS

    def record_run(self, label, comp_seconds, comp_events, stats,
                   metrics=None):
        """Fold one run's buckets in; mirror ``simprof_*`` counters.

        Called once per :meth:`TimingSimulator.run` — never from the
        per-instruction loop.
        """
        for index in range(NUM_COMPONENTS):
            self.seconds[index] += comp_seconds[index]
            self.events[index] += comp_events[index]
        self.runs.append({
            "label": label,
            "seconds": {
                name: comp_seconds[i] for i, name in enumerate(COMPONENTS)
            },
            "events": {
                name: comp_events[i] for i, name in enumerate(COMPONENTS)
            },
            "total_seconds": sum(comp_seconds),
            "retired_instructions": stats.retired_instructions,
            "cycles": stats.cycles,
        })
        if metrics is not None:
            for index, name in enumerate(COMPONENTS):
                if comp_seconds[index]:
                    metrics.counter(
                        f"simprof_{name}_seconds_total"
                    ).inc(comp_seconds[index])
                if comp_events[index]:
                    metrics.counter(
                        f"simprof_{name}_events_total"
                    ).inc(comp_events[index])

    def total_seconds(self):
        return sum(self.seconds)

    def components(self):
        """Per-component rows in self-time (seconds) order, largest first."""
        total = self.total_seconds()
        rows = [
            {
                "name": name,
                "seconds": self.seconds[index],
                "events": self.events[index],
                "fraction": (
                    self.seconds[index] / total if total > 0 else 0.0
                ),
            }
            for index, name in enumerate(COMPONENTS)
        ]
        rows.sort(key=lambda row: (-row["seconds"], row["name"]))
        return rows

    def as_dict(self):
        """JSON-ready snapshot (components in self-time order)."""
        return {
            "runs": len(self.runs),
            "total_seconds": self.total_seconds(),
            "components": self.components(),
        }

    def hotspot_table(self):
        """Human-readable hotspot table, self-time order."""
        rows = self.components()
        total = self.total_seconds()
        lines = [
            f"simulator hotspots ({len(self.runs)} run(s), "
            f"{total:.3f}s attributed):",
            f"  {'component':<15} {'seconds':>9} {'%':>6} "
            f"{'events':>12}  events are",
        ]
        for row in rows:
            lines.append(
                f"  {row['name']:<15} {row['seconds']:>9.4f} "
                f"{100.0 * row['fraction']:>5.1f}% "
                f"{row['events']:>12}  "
                f"{EVENT_MEANING.get(row['name'], '')}"
            )
        return "\n".join(lines)

    def folded(self, prefix=("repro", "simulate")):
        """Brendan-Gregg folded-stack lines (µs weights) for flamegraphs.

        One ``a;b;component <microseconds>`` line per non-zero bucket;
        feed to ``flamegraph.pl`` or speedscope directly.
        """
        stack = tuple(prefix)
        lines = []
        for index, name in enumerate(COMPONENTS):
            micros = int(round(self.seconds[index] * 1e6))
            if micros > 0:
                lines.append(";".join(stack + (name,)) + f" {micros}")
        return lines
