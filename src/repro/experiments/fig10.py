"""Figure 10: diverge-branch selection overlap across profiling inputs.

Diverge branches (All-best-heur) are classified into *only-run*
(selected only when profiling on the run-time/reduced input),
*only-train* (only when profiling on the train input) and
*either-run-train* (selected with both).  Fractions are weighted by
each branch's dynamic execution count on the run input, matching the
paper's "fraction of all dynamic diverge branches".  Shape to
reproduce: ≥ ~74% land in either-run-train everywhere.
"""

from repro.core import DivergeSelector, SelectionConfig
from repro.exec import Job, execute
from repro.experiments.report import render_table
from repro.experiments.runner import DEFAULT_BENCHMARKS, get_artifacts


def _bench_cell(name, scale):
    """Selection-overlap row for one benchmark (a parallel job)."""
    run_artifacts = get_artifacts(name, "reduced", scale)
    train_artifacts = get_artifacts(name, "train", scale)
    selected_run = {
        b.branch_pc
        for b in DivergeSelector(
            run_artifacts.program,
            run_artifacts.profile,
            SelectionConfig.all_best_heur(),
        ).select()
    }
    selected_train = {
        b.branch_pc
        for b in DivergeSelector(
            run_artifacts.program,
            train_artifacts.profile,
            SelectionConfig.all_best_heur(),
        ).select()
    }
    edge = run_artifacts.profile.edge_profile

    def weight(pcs):
        return sum(edge.exec_count(pc) for pc in pcs)

    only_run = weight(selected_run - selected_train)
    only_train = weight(selected_train - selected_run)
    either = weight(selected_run & selected_train)
    total = only_run + only_train + either
    total = total or 1
    return {
        "benchmark": name,
        "only_run": only_run / total,
        "only_train": only_train / total,
        "either": either / total,
        "num_run": len(selected_run),
        "num_train": len(selected_train),
    }


def run(scale=1.0, benchmarks=None, jobs=None):
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    rows = execute(
        [Job(_bench_cell, name, scale, label=f"fig10:{name}", key=name)
         for name in benchmarks],
        jobs=jobs,
    )
    return {"rows": rows, "scale": scale, "benchmarks": list(benchmarks)}


def format_result(result):
    table_rows = [
        (
            r["benchmark"],
            f"{r['only_run'] * 100:.1f}%",
            f"{r['only_train'] * 100:.1f}%",
            f"{r['either'] * 100:.1f}%",
            r["num_run"],
            r["num_train"],
        )
        for r in result["rows"]
    ]
    return render_table(
        ["Benchmark", "Only-run", "Only-train", "Either-run-train",
         "#run", "#train"],
        table_rows,
        title=(
            "Figure 10. Diverge branches selected with different "
            "profiling input sets (dynamic-execution weighted)"
        ),
    )


def main():
    print(format_result(run()))


if __name__ == "__main__":
    main()
