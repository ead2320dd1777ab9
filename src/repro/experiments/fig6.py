"""Figure 6: pipeline flushes due to branch mispredictions.

Flushes per kilo-instruction in the baseline and in DMP as the
selection techniques are added cumulatively — the paper's evidence
that the selected diverge branches actually remove flushes.
"""

from repro.exec import Job, execute
from repro.experiments.configs import CUMULATIVE_HEURISTICS
from repro.experiments.report import render_table
from repro.experiments.runner import (
    DEFAULT_BENCHMARKS,
    run_baseline,
    run_selection,
)


def _bench_cell(name, scale):
    """One benchmark's flush rates for every series (a parallel job)."""
    baseline = run_baseline(name, scale=scale)
    cell = {"baseline": baseline.flushes_per_kilo_inst}
    for label, config in CUMULATIVE_HEURISTICS:
        stats, _ = run_selection(name, config, scale=scale)
        cell[label] = stats.flushes_per_kilo_inst
    return cell


def run(scale=1.0, benchmarks=None, jobs=None):
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    labels = ["baseline"] + [label for label, _ in CUMULATIVE_HEURISTICS]
    cells = execute(
        [Job(_bench_cell, name, scale, label=f"fig6:{name}", key=name)
         for name in benchmarks],
        jobs=jobs,
    )
    flushes = {
        label: {name: cell[label]
                for name, cell in zip(benchmarks, cells)}
        for label in labels
    }
    means = {
        label: sum(per.values()) / len(per) for label, per in flushes.items()
    }
    return {
        "benchmarks": list(benchmarks),
        "series": labels,
        "flushes_per_ki": flushes,
        "means": means,
        "scale": scale,
    }


def format_result(result):
    headers = ["Benchmark"] + result["series"]
    rows = []
    for name in result["benchmarks"]:
        rows.append(
            [name]
            + [
                f"{result['flushes_per_ki'][s][name]:.2f}"
                for s in result["series"]
            ]
        )
    rows.append(
        ["MEAN"] + [f"{result['means'][s]:.2f}" for s in result["series"]]
    )
    return render_table(
        headers,
        rows,
        title="Figure 6. Pipeline flushes per kilo-instruction",
    )


def main():
    print(format_result(run()))


if __name__ == "__main__":
    main()
