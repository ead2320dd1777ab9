"""Figure 9: DMP performance when profiling uses a different input set.

"same" profiles and runs on the reduced input set; "diff" profiles on
the train input set and runs on the reduced one (§7.3).  The paper's
finding: the improvement drops only ~0.5% on average — DMP is not
significantly sensitive to the profiling input set.
"""

from repro.core import SelectionConfig
from repro.exec import Job, execute
from repro.experiments.report import percent, render_table
from repro.experiments.runner import (
    DEFAULT_BENCHMARKS,
    mean_speedup,
    run_baseline,
    run_selection,
)

SERIES = (
    ("all-best-heur-same", SelectionConfig.all_best_heur(), "reduced"),
    ("all-best-heur-diff", SelectionConfig.all_best_heur(), "train"),
    ("all-best-cost-same", SelectionConfig.all_best_cost(), "reduced"),
    ("all-best-cost-diff", SelectionConfig.all_best_cost(), "train"),
)


def _bench_cell(name, scale):
    """One benchmark under every profiling input set (a parallel job)."""
    baseline = run_baseline(name, scale=scale)
    cell = {}
    for label, config, profile_set in SERIES:
        stats, _ = run_selection(
            name,
            config,
            scale=scale,
            input_set="reduced",
            profile_input_set=profile_set,
        )
        cell[label] = stats.speedup_over(baseline)
    return cell


def run(scale=1.0, benchmarks=None, jobs=None):
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    cells = execute(
        [Job(_bench_cell, name, scale, label=f"fig9:{name}", key=name)
         for name in benchmarks],
        jobs=jobs,
    )
    results = {
        label: {name: cell[label]
                for name, cell in zip(benchmarks, cells)}
        for label, _, _ in SERIES
    }
    means = {
        label: mean_speedup(per.values()) for label, per in results.items()
    }
    return {
        "benchmarks": list(benchmarks),
        "series": [label for label, _, _ in SERIES],
        "speedups": results,
        "means": means,
        "scale": scale,
    }


def format_result(result):
    headers = ["Benchmark"] + result["series"]
    rows = []
    for name in result["benchmarks"]:
        rows.append(
            [name]
            + [percent(result["speedups"][s][name]) for s in result["series"]]
        )
    rows.append(
        ["MEAN"] + [percent(result["means"][s]) for s in result["series"]]
    )
    same = result["means"]["all-best-heur-same"]
    diff = result["means"]["all-best-heur-diff"]
    return (
        render_table(
            headers,
            rows,
            title=(
                "Figure 9. DMP improvement with same vs different "
                "profiling input set"
            ),
        )
        + f"\nHeuristic same-vs-diff gap: {percent(same - diff)}"
    )


def main():
    print(format_result(run()))


if __name__ == "__main__":
    main()
