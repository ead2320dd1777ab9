"""Figure 8: comparison with simple diverge-branch selection algorithms.

Every-br, Random-50, High-BP-5, Immediate and If-else against
All-best-heur.  The shape to reproduce: the simple algorithms cluster
around a small improvement (the paper: 4.3–4.5% for the best three)
while the proposed algorithms reach ~20%, with the simple ones doing
comparatively well only on the simple-hammock-dominated benchmarks
(eon, perlbmk, li).
"""

from repro.core import SelectionConfig
from repro.core.simple_algorithms import SIMPLE_ALGORITHMS
from repro.exec import Job, execute
from repro.experiments.report import percent, render_table
from repro.experiments.runner import (
    DEFAULT_BENCHMARKS,
    get_artifacts,
    mean_speedup,
    run_annotated,
    run_baseline,
    run_selection,
)

ALGORITHM_ORDER = (
    "every-br",
    "random-50",
    "high-bp-5",
    "immediate",
    "if-else",
    "all-best-heur",
)


def _bench_cell(name, scale):
    """One benchmark under every algorithm (a parallel job)."""
    baseline = run_baseline(name, scale=scale)
    artifacts = get_artifacts(name, scale=scale)
    cell = {}
    for label, select in SIMPLE_ALGORITHMS.items():
        annotation = select(artifacts.program, artifacts.profile)
        stats = run_annotated(
            name, annotation, scale=scale, label=f"{name}/{label}"
        )
        cell[label] = stats.speedup_over(baseline)
    stats, _ = run_selection(
        name, SelectionConfig.all_best_heur(), scale=scale
    )
    cell["all-best-heur"] = stats.speedup_over(baseline)
    return cell


def run(scale=1.0, benchmarks=None, jobs=None):
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    cells = execute(
        [Job(_bench_cell, name, scale, label=f"fig8:{name}", key=name)
         for name in benchmarks],
        jobs=jobs,
    )
    results = {
        label: {name: cell[label]
                for name, cell in zip(benchmarks, cells)}
        for label in ALGORITHM_ORDER
    }
    means = {
        label: mean_speedup(per.values()) for label, per in results.items()
    }
    return {
        "benchmarks": list(benchmarks),
        "series": list(ALGORITHM_ORDER),
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
            "Figure 8. DMP improvement with alternative simple "
            "selection algorithms"
        ),
    )


def main():
    print(format_result(run()))


if __name__ == "__main__":
    main()
