"""Figure 5: DMP performance with different selection algorithms.

Left graph: the heuristic techniques added cumulatively (Alg-exact →
+Alg-freq → +short hammocks → +return CFMs → +diverge loops,
"All-best-heur").  Right graph: the cost-benefit model (cost-long,
cost-edge, then +short/+ret/+loop, "All-best-cost").  Values are IPC
improvements over the baseline processor per benchmark, plus the mean.
"""

from repro.exec import Job, execute
from repro.experiments.configs import COST_CONFIGS, CUMULATIVE_HEURISTICS
from repro.experiments.report import percent, render_table
from repro.experiments.runner import (
    DEFAULT_BENCHMARKS,
    mean_speedup,
    run_baseline,
    run_selection,
)


def _series(side):
    series = []
    if side in ("left", "both"):
        series.extend(CUMULATIVE_HEURISTICS)
    if side in ("right", "both"):
        series.extend(COST_CONFIGS)
    return series


def _bench_cell(name, scale, side):
    """One benchmark's speedups for every series (a parallel job)."""
    baseline = run_baseline(name, scale=scale)
    cell = {}
    for label, config in _series(side):
        stats, _ = run_selection(name, config, scale=scale)
        cell[label] = stats.speedup_over(baseline)
    return cell


def run(scale=1.0, benchmarks=None, side="both", jobs=None):
    """``side`` selects "left" (heuristics), "right" (cost) or "both"."""
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    series = _series(side)
    cells = execute(
        [Job(_bench_cell, name, scale, side, label=f"fig5:{name}", key=name)
         for name in benchmarks],
        jobs=jobs,
    )
    results = {
        label: {name: cell[label]
                for name, cell in zip(benchmarks, cells)}
        for label, _ in series
    }

    means = {
        label: mean_speedup(per_bench.values())
        for label, per_bench in results.items()
    }
    return {
        "benchmarks": list(benchmarks),
        "series": [label for label, _ in series],
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
    return render_table(
        headers,
        rows,
        title=(
            "Figure 5. DMP performance improvement with different "
            "selection algorithms"
        ),
    )


def main():
    print(format_result(run()))


if __name__ == "__main__":
    main()
