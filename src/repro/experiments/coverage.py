"""Misprediction-coverage report.

For one benchmark, shows exactly *which* mispredicted branches DMP
covers and which it leaves to flush — the per-branch view behind
Figure 6 and behind observations like "carefully selected branches
cover only 30% of gcc's mispredicted branches" (§7.2).

For each static branch (sorted by misprediction count): executions,
mispredictions, whether it is marked (and how), how many dpred
episodes it triggered, and what fraction of its mispredictions avoided
the flush.
"""

from repro.core import SelectionConfig
from repro.core.selector import DivergeSelector
from repro.exec import Job, execute
from repro.experiments.report import render_table
from repro.experiments.runner import get_artifacts
from repro.uarch import TimingSimulator


def run_many(benchmark_names, scale=1.0, config=None, top=15, jobs=None):
    """Coverage analysis for several benchmarks (one job each)."""
    return execute(
        [Job(run, name, scale, config, top, label=f"coverage:{name}", key=name)
         for name in benchmark_names],
        jobs=jobs,
    )


def run(benchmark_name, scale=1.0, config=None, top=15):
    """Coverage analysis of one benchmark under one selection config."""
    config = config or SelectionConfig.all_best_heur()
    artifacts = get_artifacts(benchmark_name, scale=scale)
    annotation = DivergeSelector(
        artifacts.program, artifacts.profile, config
    ).select()
    simulator = TimingSimulator(
        artifacts.program,
        annotation=annotation,
        collect_per_branch=True,
    )
    stats = simulator.run(artifacts.trace, label=f"{benchmark_name}/cov")

    rows = []
    ranked = sorted(
        stats.per_branch.items(),
        key=lambda item: -item[1]["mispredictions"],
    )
    total_misp = sum(c["mispredictions"] for _, c in ranked)
    covered = sum(c["flushes_avoided"] for _, c in ranked)
    for pc, counters in ranked[:top]:
        mark = annotation.get(pc)
        kind = mark.kind.value if mark else "-"
        if mark and mark.always_predicate:
            kind += "(always)"
        misp = counters["mispredictions"]
        rows.append(
            {
                "pc": pc,
                "instruction": artifacts.program[pc].format(),
                "executions": counters["executions"],
                "mispredictions": misp,
                "marked": kind,
                "episodes": counters["episodes"],
                "covered": counters["flushes_avoided"],
                "coverage": (
                    counters["flushes_avoided"] / misp if misp else 0.0
                ),
            }
        )
    return {
        "benchmark": benchmark_name,
        "rows": rows,
        "total_mispredictions": total_misp,
        "total_covered": covered,
        "coverage": covered / total_misp if total_misp else 0.0,
        "stats": stats,
        "annotation": annotation,
        "scale": scale,
    }


def format_result(result):
    table_rows = [
        (
            r["pc"],
            r["instruction"],
            r["executions"],
            r["mispredictions"],
            r["marked"],
            r["episodes"],
            r["covered"],
            f"{r['coverage'] * 100:.0f}%",
        )
        for r in result["rows"]
    ]
    table = render_table(
        ["pc", "instruction", "exec", "misp", "marked", "episodes",
         "covered", "coverage"],
        table_rows,
        title=(
            f"Misprediction coverage: {result['benchmark']} "
            f"(All-best-heur)"
        ),
    )
    return (
        table
        + f"\nTotal: {result['total_covered']} of "
        f"{result['total_mispredictions']} mispredictions covered "
        f"({result['coverage'] * 100:.0f}%)"
    )


def main():
    import sys

    name = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    print(format_result(run(name)))


if __name__ == "__main__":
    main()
