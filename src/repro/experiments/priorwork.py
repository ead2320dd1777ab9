"""Comparison against the prior dynamic-predication mechanisms.

The paper's §2/§8 position DMP as the generalization of two earlier
ideas; this experiment quantifies the progression on our suite:

- **dual-path** — selective dual-path execution (Heil & Smith): fork
  fetch on low confidence, never reconverge, benefit limited to a
  softened misprediction penalty;
- **dynamic-hammock** — dynamic hammock predication (Klauser et al.):
  predicate only *simple* hammocks chosen by size;
- **DMP (All-best-heur)** — the paper's full mechanism: nested and
  frequently-hammocks, short hammocks, return CFMs, and diverge loops.

Expected shape: dual-path < dynamic-hammock < DMP, with the gap from
dynamic-hammock to DMP dominated by frequently-hammocks — the paper's
core argument for compiler-identified CFM points.
"""

from repro.core import SelectionConfig
from repro.core.simple_algorithms import (
    select_dual_path,
    select_dynamic_hammock,
)
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

SERIES = ("dual-path", "dynamic-hammock", "dmp-all-best")


def _bench_cell(name, scale):
    """One benchmark under every prior mechanism (a parallel job)."""
    baseline = run_baseline(name, scale=scale)
    artifacts = get_artifacts(name, scale=scale)
    cell = {}
    for label, select in (
        ("dual-path", select_dual_path),
        ("dynamic-hammock", select_dynamic_hammock),
    ):
        annotation = select(artifacts.program, artifacts.profile)
        stats = run_annotated(
            name, annotation, scale=scale, label=f"{name}/{label}"
        )
        cell[label] = stats.speedup_over(baseline)
    stats, _ = run_selection(
        name, SelectionConfig.all_best_heur(), scale=scale
    )
    cell["dmp-all-best"] = stats.speedup_over(baseline)
    return cell


def run(scale=1.0, benchmarks=None, jobs=None):
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    cells = execute(
        [Job(_bench_cell, name, scale, label=f"priorwork:{name}", key=name)
         for name in benchmarks],
        jobs=jobs,
    )
    results = {
        label: {name: cell[label]
                for name, cell in zip(benchmarks, cells)}
        for label in SERIES
    }
    means = {
        label: mean_speedup(per.values()) for label, per in results.items()
    }
    return {
        "benchmarks": list(benchmarks),
        "series": list(SERIES),
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
            "Prior-work comparison: dual-path execution vs dynamic "
            "hammock predication vs DMP"
        ),
    )


def main():
    print(format_result(run()))


if __name__ == "__main__":
    main()
