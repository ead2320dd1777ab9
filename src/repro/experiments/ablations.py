"""Ablations of DESIGN.md's design choices (beyond the paper's figures).

Four studies:

- ``acc_conf``: cost-model sensitivity to the assumed Acc_Conf
  (footnote 5 of the paper: performance should be stable over 20-50%).
- ``max_cfm``: how many CFM points per diverge branch are needed
  (§3.3: the paper found 3 is enough; Table 2 shows ~1 used on
  average).
- ``confidence_threshold``: the runtime JRS gate — a low threshold
  predicates rarely (missed coverage), 14-15 covers most
  mispredictions.
- ``easy_branch_filter``: the §8.3 future-work extension — excluding
  always-easy branches from selection; it should cost little or help
  (notably where the fixed Acc_Conf=40% assumption over-predicates
  predictable codes).
"""

from repro.core import SelectionConfig
from repro.core.cost_model import CostModelParams
from repro.core.thresholds import SelectionThresholds
from repro.exec import Job, execute
from repro.experiments.report import percent, render_table
from repro.experiments.runner import (
    DEFAULT_BENCHMARKS,
    mean_speedup,
    run_baseline,
    run_selection,
)
from repro.uarch import ProcessorConfig


def _bench_cell(name, scale, configs, processor_configs):
    """One benchmark's speedup per sweep config (a parallel job)."""
    speedups = []
    for i, (_, config) in enumerate(configs):
        processor = (
            processor_configs[i] if processor_configs else None
        )
        baseline = run_baseline(name, scale=scale, config=processor)
        stats, _ = run_selection(
            name, config, scale=scale, config=processor
        )
        speedups.append(stats.speedup_over(baseline))
    return speedups


def _sweep(configs, scale, benchmarks, processor_configs=None, jobs=None):
    """Mean speedup for each (label, SelectionConfig) pair."""
    configs = list(configs)
    cells = execute(
        [Job(_bench_cell, name, scale, configs, processor_configs,
             label=f"ablation:{name}", key=name)
         for name in benchmarks],
        jobs=jobs,
    )
    # Per config, the mean runs over benchmarks in benchmark order —
    # the same float summation order as the serial sweep.
    return {
        label: mean_speedup(cell[i] for cell in cells)
        for i, (label, _) in enumerate(configs)
    }


def run_acc_conf(scale=1.0, benchmarks=None,
                 values=(0.15, 0.20, 0.30, 0.40, 0.50), jobs=None):
    """Cost-model Acc_Conf sweep (paper footnote 5)."""
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    configs = [
        (
            f"acc={value:.2f}",
            SelectionConfig(
                cost_model="edge",
                cost_params=CostModelParams(acc_conf=value),
                name=f"cost-acc{int(value * 100)}",
            ),
        )
        for value in values
    ]
    means = _sweep(configs, scale, benchmarks, jobs=jobs)
    return {"means": means, "kind": "acc_conf", "scale": scale}


def run_max_cfm(scale=1.0, benchmarks=None, values=(1, 2, 3), jobs=None):
    """MAX_CFM ablation (§3.3 / Table 1's 3 CFM registers)."""
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    configs = [
        (
            f"max_cfm={value}",
            SelectionConfig(
                thresholds=SelectionThresholds().with_overrides(
                    max_cfm=value
                ),
                enable_short=True,
                enable_return_cfm=True,
                enable_loop=True,
                name=f"maxcfm{value}",
            ),
        )
        for value in values
    ]
    means = _sweep(configs, scale, benchmarks, jobs=jobs)
    return {"means": means, "kind": "max_cfm", "scale": scale}


def run_confidence_threshold(scale=1.0, benchmarks=None,
                             values=(6, 10, 14, 15), jobs=None):
    """Runtime JRS threshold sweep (Table 1 uses 14)."""
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    selection = SelectionConfig.all_best_heur()
    configs = [(f"threshold={v}", selection) for v in values]
    processors = [
        ProcessorConfig(confidence_threshold=v) for v in values
    ]
    means = _sweep(configs, scale, benchmarks,
                   processor_configs=processors, jobs=jobs)
    return {"means": means, "kind": "confidence_threshold", "scale": scale}


def run_per_app_acc_conf(scale=1.0, benchmarks=None, jobs=None):
    """§4.1's per-application Acc_Conf vs the fixed 40% assumption."""
    from dataclasses import replace

    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    fixed = SelectionConfig.all_best_cost()
    configs = [
        ("acc_conf=fixed-40%", fixed),
        ("acc_conf=measured",
         replace(fixed, per_app_acc_conf=True,
                 name="all-best-cost-perapp")),
    ]
    means = _sweep(configs, scale, benchmarks, jobs=jobs)
    return {"means": means, "kind": "per_app_acc_conf", "scale": scale}


def run_predictor_sensitivity(scale=1.0, benchmarks=None,
                              kinds=("bimodal", "gshare", "tournament",
                                     "perceptron"), jobs=None):
    """DMP benefit under different baseline predictors.

    The premise check: a better predictor leaves fewer mispredictions,
    so DMP's *relative* benefit should shrink as the predictor improves
    — but stay positive (hard branches remain hard under any history
    predictor).
    """
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    selection = SelectionConfig.all_best_heur()
    configs = [(f"predictor={kind}", selection) for kind in kinds]
    processors = [ProcessorConfig(predictor_kind=kind) for kind in kinds]
    means = _sweep(configs, scale, benchmarks,
                   processor_configs=processors, jobs=jobs)
    return {"means": means, "kind": "predictor_sensitivity",
            "scale": scale}


def run_easy_branch_filter(scale=1.0, benchmarks=None,
                           floors=(0.0, 0.01, 0.03), jobs=None):
    """§8.3 extension: drop always-easy branches from selection."""
    benchmarks = benchmarks or DEFAULT_BENCHMARKS
    configs = []
    for floor in floors:
        base = SelectionConfig.all_best_cost()
        configs.append(
            (
                f"min_misp={floor:.2f}",
                SelectionConfig(
                    enable_short=base.enable_short,
                    enable_return_cfm=base.enable_return_cfm,
                    enable_loop=base.enable_loop,
                    cost_model=base.cost_model,
                    min_misp_rate=floor,
                    name=f"cost-floor{int(floor * 100)}",
                ),
            )
        )
    means = _sweep(configs, scale, benchmarks, jobs=jobs)
    return {"means": means, "kind": "easy_branch_filter", "scale": scale}


def campaign_spec_confidence_threshold(scale=1.0, benchmarks=None,
                                       values=(6, 10, 14, 15)):
    """The JRS-threshold ablation as a durable campaign."""
    from repro.campaign import Axis, CampaignSpec

    return CampaignSpec(
        name="confidence-threshold",
        benchmarks=tuple(benchmarks or DEFAULT_BENCHMARKS),
        scale=scale,
        selection="all-best-heur",
        axes=(Axis("proc.confidence_threshold", tuple(values)),),
    )


def campaign_spec_predictor_sensitivity(scale=1.0, benchmarks=None,
                                        kinds=("bimodal", "gshare",
                                               "tournament",
                                               "perceptron")):
    """The predictor-sensitivity ablation as a durable campaign."""
    from repro.campaign import Axis, CampaignSpec

    return CampaignSpec(
        name="predictor-sensitivity",
        benchmarks=tuple(benchmarks or DEFAULT_BENCHMARKS),
        scale=scale,
        selection="all-best-heur",
        axes=(Axis("proc.predictor_kind", tuple(kinds)),),
    )


def campaign_spec_max_cfm(scale=1.0, benchmarks=None, values=(1, 2, 3)):
    """The MAX_CFM ablation as a durable campaign.

    Note the monolithic :func:`run_max_cfm` also flips on the short/
    return/loop passes; the campaign preset ``all-best-heur`` does the
    same, so the two agree cell-for-cell.
    """
    from repro.campaign import Axis, CampaignSpec

    return CampaignSpec(
        name="max-cfm",
        benchmarks=tuple(benchmarks or DEFAULT_BENCHMARKS),
        scale=scale,
        selection="all-best-heur",
        axes=(Axis("max_cfm", tuple(values)),),
    )


def format_result(result):
    rows = [(label, percent(value))
            for label, value in result["means"].items()]
    return render_table(
        ["Configuration", "Mean speedup"],
        rows,
        title=f"Ablation: {result['kind']}",
    )
