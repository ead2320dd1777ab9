"""Synthetic SPEC-like benchmark suite.

The paper evaluates 12 SPEC CPU2000 + 5 SPEC 95 integer benchmarks;
those binaries and inputs are unavailable here, so this package
generates 17 synthetic programs *named after them*, each built from
control-flow regions (simple/nested/frequently/short/return-merged
hammocks, diverge and long loops, memory and compute blocks) whose
branch behaviour is driven by generated input data.  Region mixes and
branch-predictability parameters are calibrated so each benchmark's
qualitative character matches Table 2 and the per-benchmark
observations of §7 (e.g. eon/perlbmk/li are simple-hammock-heavy,
gzip/parser have hot mispredicted loops, twolf/go merge at returns,
mcf is memory-bound).

Each benchmark has two input sets, ``reduced`` (the paper's MinneSPEC
stand-in, default for both profiling and runs) and ``train`` (for the
§7.3 input-set sensitivity experiments).
"""

from repro.workloads.behaviors import BehaviorRNG
from repro.workloads.generator import BenchmarkSpec, Region, build_program
from repro.workloads.suite import (
    BENCHMARK_NAMES,
    BENCHMARK_SPECS,
    Workload,
    load_benchmark,
    scale_arg,
    validate_scale,
)

__all__ = [
    "BehaviorRNG",
    "BenchmarkSpec",
    "Region",
    "build_program",
    "BENCHMARK_NAMES",
    "BENCHMARK_SPECS",
    "Workload",
    "load_benchmark",
    "scale_arg",
    "validate_scale",
]
