"""Simulation statistics."""

from dataclasses import dataclass, field, fields, replace

#: Derived read-only properties included in :meth:`SimStats.as_dict`.
_DERIVED = (
    "ipc",
    "mpki",
    "flushes_per_kilo_inst",
    "measured_acc_conf",
    "merge_rate",
)


@dataclass
class SimStats:
    """Counters and derived metrics from one timing simulation."""

    label: str = ""
    cycles: int = 0
    retired_instructions: int = 0

    # Branch behaviour.
    conditional_branches: int = 0
    mispredictions: int = 0
    pipeline_flushes: int = 0

    # Confidence estimator behaviour (PVN = measured Acc_Conf).
    low_confidence_branches: int = 0
    low_confidence_mispredicted: int = 0

    # DMP behaviour.
    dpred_episodes: int = 0
    dpred_episodes_merged: int = 0
    dpred_episodes_loop: int = 0
    dpred_flushes_avoided: int = 0
    dpred_wrong_path_insts: int = 0
    dpred_select_uops: int = 0

    # Memory behaviour.
    icache_misses: int = 0
    dcache_misses: int = 0
    l2_misses: int = 0

    #: Optional per-branch counters (populated when the simulator runs
    #: with ``collect_per_branch=True``): pc -> dict with keys
    #: ``executions``, ``mispredictions``, ``episodes``,
    #: ``flushes_avoided``, ``flushes``.
    per_branch: dict = field(default_factory=dict)

    @property
    def ipc(self):
        if self.cycles == 0 or self.retired_instructions == 0:
            return 0.0
        return self.retired_instructions / self.cycles

    @property
    def mpki(self):
        """Branch mispredictions per kilo-instruction."""
        if self.retired_instructions == 0:
            return 0.0
        return 1000.0 * self.mispredictions / self.retired_instructions

    @property
    def flushes_per_kilo_inst(self):
        """Figure 6's metric."""
        if self.retired_instructions == 0:
            return 0.0
        return 1000.0 * self.pipeline_flushes / self.retired_instructions

    @property
    def measured_acc_conf(self):
        """PVN of the confidence estimator during this run."""
        if self.low_confidence_branches == 0:
            return 0.0
        return self.low_confidence_mispredicted / self.low_confidence_branches

    @property
    def merge_rate(self):
        """Fraction of dpred episodes that reconverged at a CFM point."""
        if self.dpred_episodes == 0:
            return 0.0
        return self.dpred_episodes_merged / self.dpred_episodes

    def as_dict(self, derived=True, per_branch=False):
        """JSON-ready snapshot of the counters (and derived metrics).

        The run manifest and ``--metrics`` output embed this; derived
        properties are all safe at ``retired_instructions == 0``.
        """
        snapshot = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("label", "per_branch")
        }
        snapshot["label"] = self.label
        if derived:
            for name in _DERIVED:
                snapshot[name] = getattr(self, name)
        if per_branch and self.per_branch:
            snapshot["per_branch"] = {
                str(pc): dict(counters)
                for pc, counters in self.per_branch.items()
            }
        return snapshot

    def copy(self, label=None):
        """An independent copy (``per_branch`` included), relabeled to
        ``label`` when one is given."""
        return replace(
            self,
            label=self.label if label is None else label,
            per_branch={
                pc: dict(counters)
                for pc, counters in self.per_branch.items()
            },
        )

    def merge(self, other, label=None):
        """A new :class:`SimStats` with the counters of both runs summed.

        Useful for aggregating shards of one workload; derived
        properties recompute from the combined counters.  Per-branch
        counter dicts are merged by pc.
        """
        merged = SimStats(
            label=label if label is not None
            else (self.label or other.label)
        )
        for f in fields(self):
            if f.name in ("label", "per_branch"):
                continue
            setattr(merged, f.name,
                    getattr(self, f.name) + getattr(other, f.name))
        if self.per_branch or other.per_branch:
            combined = {
                pc: dict(counters)
                for pc, counters in self.per_branch.items()
            }
            for pc, counters in other.per_branch.items():
                entry = combined.setdefault(pc, {})
                for key, value in counters.items():
                    entry[key] = entry.get(key, 0) + value
            merged.per_branch = combined
        return merged

    def speedup_over(self, baseline):
        """IPC improvement relative to ``baseline`` (e.g. 0.204 = +20.4%)."""
        if baseline.ipc == 0:
            return 0.0
        return self.ipc / baseline.ipc - 1.0

    def report(self):
        """Multi-line human-readable summary."""
        lines = [
            f"[{self.label}] cycles={self.cycles} "
            f"retired={self.retired_instructions} IPC={self.ipc:.3f}",
            f"  branches={self.conditional_branches} "
            f"mispred={self.mispredictions} (MPKI={self.mpki:.2f}) "
            f"flushes={self.pipeline_flushes} "
            f"({self.flushes_per_kilo_inst:.2f}/ki)",
        ]
        if self.dpred_episodes:
            lines.append(
                f"  dpred: episodes={self.dpred_episodes} "
                f"merged={self.dpred_episodes_merged} "
                f"loops={self.dpred_episodes_loop} "
                f"flushes_avoided={self.dpred_flushes_avoided} "
                f"wrong_path={self.dpred_wrong_path_insts} "
                f"selects={self.dpred_select_uops}"
            )
        return "\n".join(lines)
