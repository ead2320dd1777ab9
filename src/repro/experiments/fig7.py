"""Figure 7: MAX_INSTR × MIN_MERGE_PROB threshold sweep.

Average DMP improvement with only Alg-exact + Alg-freq while sweeping
the two main selection thresholds.  The paper's findings to reproduce:
the best average point is MAX_INSTR = 50 with a small MIN_MERGE_PROB;
very small MAX_INSTR (10) forfeits coverage, very large (200) admits
window-filling hammocks; and high merge-probability candidates carry
most of the benefit.
"""

from repro.core import SelectionConfig, SelectionThresholds
from repro.exec import Job, execute
from repro.experiments.report import percent, render_table
from repro.experiments.runner import (
    DEFAULT_BENCHMARKS,
    mean_speedup,
    run_baseline,
    run_selection,
)

#: The paper's sweep values (Figure 7 x-axis groups and series).
MAX_INSTR_VALUES = (10, 50, 100, 200)
MIN_MERGE_PROB_VALUES = (0.01, 0.05, 0.30, 0.60, 0.90)


def _grid_configs(max_instr_values, min_merge_prob_values):
    for max_instr in max_instr_values:
        for min_merge in min_merge_prob_values:
            thresholds = SelectionThresholds().with_overrides(
                max_instr=max_instr, min_merge_prob=min_merge
            )
            yield (max_instr, min_merge), SelectionConfig(
                thresholds=thresholds,
                name=f"mi{max_instr}-mm{int(min_merge * 100)}",
            )


def _bench_cell(name, scale, max_instr_values, min_merge_prob_values):
    """One benchmark's speedup at every grid point (a parallel job)."""
    baseline = run_baseline(name, scale=scale)
    cell = {}
    for point, config in _grid_configs(
        max_instr_values, min_merge_prob_values
    ):
        stats, _ = run_selection(name, config, scale=scale)
        cell[point] = stats.speedup_over(baseline)
    return cell


def campaign_spec(scale=1.0, benchmarks=None,
                  max_instr_values=MAX_INSTR_VALUES,
                  min_merge_prob_values=MIN_MERGE_PROB_VALUES):
    """This figure as a durable campaign (``campaign run fig7``).

    The campaign's two-axis sensitivity view renders the same grid as
    :func:`run`: identical per-cell speedups, identical benchmark-order
    means — but journaled, resumable, and fault-tolerant.
    """
    from repro.campaign import Axis, CampaignSpec

    return CampaignSpec(
        name="fig7",
        benchmarks=tuple(benchmarks or DEFAULT_BENCHMARKS),
        scale=scale,
        selection="exact-freq",
        axes=(
            Axis("max_instr", tuple(max_instr_values)),
            Axis("min_merge_prob", tuple(min_merge_prob_values)),
        ),
    )


def run(scale=1.0, benchmarks=None, max_instr_values=MAX_INSTR_VALUES,
        min_merge_prob_values=MIN_MERGE_PROB_VALUES, jobs=None):
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    cells = execute(
        [Job(_bench_cell, name, scale, tuple(max_instr_values),
             tuple(min_merge_prob_values), label=f"fig7:{name}", key=name)
         for name in benchmarks],
        jobs=jobs,
    )
    # Means are taken in benchmark order, exactly like the serial loop.
    grid = {
        point: mean_speedup(cell[point] for cell in cells)
        for point, _ in _grid_configs(
            max_instr_values, min_merge_prob_values
        )
    }
    best = max(grid, key=grid.get)
    return {
        "grid": grid,
        "max_instr_values": list(max_instr_values),
        "min_merge_prob_values": list(min_merge_prob_values),
        "best": best,
        "scale": scale,
        "benchmarks": list(benchmarks),
    }


def format_result(result):
    headers = ["MAX_INSTR \\ MIN_MERGE"] + [
        f"{int(p * 100)}%" for p in result["min_merge_prob_values"]
    ]
    rows = []
    for max_instr in result["max_instr_values"]:
        rows.append(
            [str(max_instr)]
            + [
                percent(result["grid"][(max_instr, p)])
                for p in result["min_merge_prob_values"]
            ]
        )
    table = render_table(
        headers,
        rows,
        title=(
            "Figure 7. Mean DMP improvement vs MAX_INSTR and "
            "MIN_MERGE_PROB (Alg-exact + Alg-freq only)"
        ),
    )
    best_mi, best_mm = result["best"]
    return (
        table
        + f"\nBest point: MAX_INSTR={best_mi}, "
        f"MIN_MERGE_PROB={int(best_mm * 100)}% "
        f"({percent(result['grid'][result['best']])})"
    )


def main():
    print(format_result(run()))


if __name__ == "__main__":
    main()
