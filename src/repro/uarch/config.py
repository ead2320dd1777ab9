"""Processor configuration (paper Table 1).

Every field mirrors a Table 1 row; the defaults *are* the paper's
baseline + DMP support.  The front-end depth and redirect penalty are
chosen so the minimum branch misprediction penalty is 25 cycles: a
branch fetched at cycle c executes no earlier than
``c + frontend_depth + 1`` and the correct path refetches
``redirect_penalty`` cycles later.
"""

from dataclasses import dataclass, fields

from repro.branchpred import PREDICTORS

#: Fields that size a structure (capacity, ways, width, table entries)
#: and so must be at least 1; every other integer field may be 0.
POSITIVE_FIELDS = frozenset((
    "fetch_width", "retire_width", "rob_size",
    "perceptron_entries", "perceptron_history", "btb_entries",
    "ras_depth", "confidence_entries",
    "icache_kb", "icache_assoc", "dcache_kb", "dcache_assoc",
    "l2_kb", "l2_assoc",
))


@dataclass(frozen=True)
class ProcessorConfig:
    """Baseline machine plus DMP support parameters."""

    # Front end.
    fetch_width: int = 8
    max_cond_branches_per_cycle: int = 3   # "fetches up to 3 cond not-taken"
    frontend_depth: int = 20
    redirect_penalty: int = 5

    # Branch prediction.
    predictor_kind: str = "perceptron"
    perceptron_entries: int = 256
    perceptron_history: int = 64
    btb_entries: int = 4096
    ras_depth: int = 64

    # Execution core.
    rob_size: int = 512
    retire_width: int = 8

    # Memory system (sizes in KB; latencies in cycles).
    icache_kb: int = 64
    icache_assoc: int = 2
    icache_latency: int = 2
    dcache_kb: int = 64
    dcache_assoc: int = 4
    dcache_latency: int = 2
    l2_kb: int = 1024
    l2_assoc: int = 8
    l2_latency: int = 10
    memory_latency: int = 300

    # DMP support (Table 1 bottom row).  The enhanced JRS indexing
    # (pc XOR 12-bit history, Table 1) is implemented and available,
    # but the default machine indexes by pc alone: the synthetic
    # workloads' branch outcomes carry far more entropy per branch
    # than SPEC's, and XOR-indexing then spreads each branch over the
    # whole table, leaving every counter undertrained (DESIGN.md §6).
    confidence_entries: int = 4096       # 2KB of 4-bit counters
    confidence_history: int = 0
    confidence_threshold: int = 14
    num_predicate_registers: int = 32
    num_cfm_registers: int = 3

    # DMP episode bounds (implementation knobs, see DESIGN.md): the
    # wrong-path walker synthesizes at most this many instructions per
    # path, and loop episodes predicate at most this many iterations.
    dpred_max_wrong_path_insts: int = 256
    dpred_max_loop_iterations: int = 32

    @property
    def min_misprediction_penalty(self):
        """Cycles from fetch to earliest correct-path refetch."""
        return self.frontend_depth + 1 + self.redirect_penalty

    def validate(self):
        """Check every field once; returns ``self``.

        Raises :class:`ValueError` naming the first bad field: an
        integer field holding anything but an ``int``, a negative
        value, a size, way count, width or table size that is not
        positive, or an unknown predictor kind.
        """
        for item in fields(self):
            value = getattr(self, item.name)
            if item.name == "predictor_kind":
                if not isinstance(value, str) or value not in PREDICTORS:
                    raise ValueError(
                        f"predictor_kind must be one of "
                        f"{', '.join(PREDICTORS)}, got {value!r}"
                    )
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"{item.name} must be an integer, got {value!r}"
                )
            floor = 1 if item.name in POSITIVE_FIELDS else 0
            if value < floor:
                raise ValueError(
                    f"{item.name} must be "
                    f"{'positive' if floor else 'non-negative'}, "
                    f"got {value}"
                )
        return self


#: The paper's Table 1 machine.
BASELINE = ProcessorConfig()
