"""Table 2: benchmark characteristics.

Per benchmark: baseline IPC, branch MPKI, retired instructions, static
conditional branch count, number of diverge branches selected by
All-best-heur, and the average number of CFM points per diverge branch
— the same columns as the paper's Table 2.
"""

from repro.core import SelectionConfig
from repro.exec import Job, execute
from repro.experiments.report import render_table
from repro.experiments.runner import (
    DEFAULT_BENCHMARKS,
    get_artifacts,
    run_baseline,
    run_selection,
)


def _bench_cell(name, scale):
    """Characteristics row for one benchmark (a parallel job)."""
    artifacts = get_artifacts(name, scale=scale)
    baseline = run_baseline(name, scale=scale)
    _, annotation = run_selection(
        name, SelectionConfig.all_best_heur(), scale=scale
    )
    return {
        "benchmark": name,
        "base_ipc": baseline.ipc,
        "mpki": baseline.mpki,
        "insts": baseline.retired_instructions,
        "static_branches": len(
            artifacts.program.conditional_branch_pcs()
        ),
        "diverge_branches": len(annotation),
        "avg_cfm": annotation.average_cfm_points,
    }


def run(scale=1.0, benchmarks=None, jobs=None):
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    rows = execute(
        [Job(_bench_cell, name, scale, label=f"table2:{name}", key=name)
         for name in benchmarks],
        jobs=jobs,
    )
    return {"rows": rows, "scale": scale}


def format_result(result):
    table_rows = [
        (
            r["benchmark"],
            f"{r['base_ipc']:.2f}",
            f"{r['mpki']:.1f}",
            f"{r['insts']:,}",
            r["static_branches"],
            r["diverge_branches"],
            f"{r['avg_cfm']:.2f}",
        )
        for r in result["rows"]
    ]
    return render_table(
        ["Benchmark", "Base IPC", "MPKI", "Insts", "All br.",
         "Diverge br.", "Avg #CFM"],
        table_rows,
        title="Table 2. Benchmark characteristics",
    )


def main():
    print(format_result(run()))


if __name__ == "__main__":
    main()
