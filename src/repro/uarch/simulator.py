"""Trace-driven cycle-level timing simulation (baseline and DMP).

The simulator replays the functional trace through a timing model of
the Table 1 machine:

- **Front end**: ``fetch_width`` instructions per cycle, fetch breaks
  on taken control flow, at most ``max_cond_branches_per_cycle``
  conditional branches per cycle, I-cache miss stalls, BTB miss
  bubbles on taken control, return-address-stack prediction of
  returns.
- **Execution**: each instruction dispatches ``frontend_depth`` cycles
  after fetch and completes when its source registers are ready plus
  its latency (loads/stores walk the cache hierarchy).  This dataflow
  ready-time model captures dependence chains without simulating a
  scheduler structurally.
- **Retire**: in-order, ``retire_width`` per cycle, bounded by the
  ``rob_size``-entry reorder buffer; fetch stalls when the ROB fills.
- **Branches**: resolved at their completion cycle; a misprediction
  flushes — the correct path refetches at
  ``resolution + redirect_penalty`` (minimum penalty 25 cycles).

With a :class:`~repro.core.marks.BinaryAnnotation`, diverge branches
additionally trigger **dpred-mode** on low confidence (or always, for
short hammocks): the front end splits, fetching the true path (from
the trace) and a synthesized wrong path (:mod:`repro.uarch.wrongpath`)
on alternating cycles until both reach a CFM point of the branch.  On
merge, select-µops are inserted (consuming fetch slots and making the
hammock-written registers wait for the branch's resolution); on
resolution-before-merge the episode degrades to dual-path execution.
Either way a mispredicted diverge branch in dpred-mode does not flush —
that is DMP's benefit.  Diverge loop branches predicate iterations:
late exits avoid the flush at the cost of fetching the extra (NOPped)
iterations and per-iteration select-µops; early exits flush as usual
(§5.1's three cases).

**How the trace is replayed.**  The branch machinery — perceptron, JRS
confidence, BTB, RAS — evolves purely from *trace-determined* inputs
(pc, taken, next_pc), never from timing state.  So the trace is
consumed in windows of ``window_size`` rows and, per window:

1. **Decode gather** — static per-pc tables (kind, latency, sources,
   destination) are gathered for the window's rows in one numpy
   indexing operation.
2. **L1 D pre-pass** — the private L1 D is replayed over the window's
   loads/stores in trace order (``memory.data_l1_hit``).  Hit loads
   get the L1 D latency in the window's latency vector; miss rows are
   marked for the replay loop, which walks the shared L2 for them.
3. **Branch pre-pass** — predictor outcomes and confidence queries for
   the window's conditional branches.  For the perceptron, per-branch
   histories are materialized as one sliding-window matrix over
   ``initial history ⊕ outcomes`` and training happens in place per
   branch; prediction and update share one dot product.
4. **Control pre-pass** — BTB bubbles and RAS return predictions for
   the window's control rows, emitted as cursor-indexed lists.
5. **Replay** — one python loop advances the front-end / dataflow /
   ROB clocks over plain python lists, with the in-order retire state
   folded into a closed-form counter (``p = retire_width *
   last_retire_cycle + retired_in_cycle - 1`` advances as ``p' = max(p
   + 1, retire_width * complete)`` per retired entry).  Dpred
   episodes, flushes and wrong-path walks run in the loop, interleaved
   with the bias table, because the walker reads the bias table as of
   the (timing-dependent) episode entry row.

**The L2 and the I-cache.**  After a warm pass over the static code,
the I-cache is probed at the start of every fetch group.  Fetch-group
starts depend on timing (ROB stalls, half-width dpred episodes), and
I-misses share the unified L2 with data, so the I-cache probes and
every L2 access (``memory.data_miss_latency`` for an L1 D miss) happen
in the replay loop, in trace order.  A probe can only miss on a line
whose set more program lines map to than it has ways
(:func:`icache_conflicts`); any other probe hits and changes nothing,
so the loop skips it.  The Table 1 I-cache holds every shipped
workload, so for them the loop makes no probes.

With ``profiler=None`` the replay loop carries no per-row stopwatch
checks.  With a profiler, each batched kernel is charged to its
component: window setup/gathers → fetch, L1 D pre-pass → dcache,
branch/control pre-passes → branch_predict, replay loop (including
I-cache probes and L2 walks) → dataflow, warm pass → icache, drain →
rob_retire, episode construction/walks → dpred_episode/wrong_path.
The stopwatch partition sums exactly to the instrumented run.
"""

import weakref
from dataclasses import astuple

import numpy as np

from repro.branchpred import (
    BranchTargetBuffer,
    JRSConfidenceEstimator,
    ReturnAddressStack,
    make_predictor,
)
from repro.branchpred.confidence import COUNTER_MAX
from repro.branchpred.perceptron import (
    WEIGHT_MAX,
    WEIGHT_MIN,
    PerceptronPredictor,
)
from repro.core.marks import DivergeKind
from repro.emulator.windows import (
    trace_columns,
    trace_digest,
    window_bounds,
)
from repro.errors import SimulationError
from repro.isa.registers import NUM_REGISTERS
from repro.memory import MemoryHierarchy
from repro.obs import events as obs_events
from repro.obs.context import get_metrics, get_tracer
from repro.obs.metrics import MetricsRegistry
from repro.uarch.config import ProcessorConfig
from repro.uarch.profiler import (
    BRANCH_PRED,
    DATAFLOW,
    DCACHE,
    DPRED_EPISODE,
    FETCH,
    ICACHE,
    NUM_COMPONENTS,
    OTHER,
    ROB_RETIRE,
    WRONG_PATH,
)
from repro.uarch.stats import SimStats
from repro.uarch.wrongpath import BiasTable, WrongPathWalker

#: Histogram buckets for dpred episode length in cycles.
EPISODE_CYCLE_BUCKETS = (2, 5, 10, 20, 50, 100, 200, 500)

#: Histogram buckets for wrong-path instructions fetched per episode.
WRONG_PATH_INST_BUCKETS = (0, 5, 10, 25, 50, 100, 200)

#: Histogram buckets for the confidence estimator's per-run PVN.
PVN_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0)

#: Row classes in the static decode tables.  Memory rows collapse to
#: ``_PLAIN`` in the replay-kind table (the L1 D pre-pass precomputes
#: their latency), so the replay loop only branches on control kinds
#: and on the L1 D misses the pre-pass gives their memory kind back.
_PLAIN, _COND, _JMP, _CALL, _RET, _LOAD, _STORE = range(7)

#: Default replay window (rows).  Large enough to amortize the numpy
#: pre-passes, small enough that the gathered columns stay cache-warm.
DEFAULT_WINDOW = 1 << 15

#: Sentinel register indices: decode tables map "no destination" (NOP,
#: store, branch, or an architectural r0 write) to a scratch slot that
#: is written but never read, and "no source" to a null slot that is
#: read but never written (so it always reports ready-at-0).  This
#: keeps the replay loop branch-free on operand presence.
_SCRATCH_REG = NUM_REGISTERS
_NULL_REG = NUM_REGISTERS + 1

#: Static decode tables are pure functions of the program, shared
#: across simulator instances (constructing a simulator per run is the
#: common pattern in the experiment drivers).
_DECODE_CACHE = weakref.WeakKeyDictionary()


def icache_conflicts(num_instructions, icache):
    """Which pcs' I-cache lines can be evicted, as a list of bools.

    Program pcs occupy contiguous lines ``0 .. L-1`` and only the
    replay's probes touch the I-cache, so a line can only be evicted
    from a set that more program lines map to than it has ways.  After
    the warm pass every other line hits on every probe, and LRU order
    in its set never matters, so the replay loop skips those probes.
    """
    per_line = icache.words_per_line
    num_sets = icache.num_sets
    program_lines = np.arange(-(-num_instructions // per_line))
    lines_per_set = np.bincount(program_lines % num_sets,
                                minlength=num_sets)
    sets = np.arange(num_instructions) // per_line % num_sets
    return (lines_per_set > icache.associativity)[sets].tolist()


class _Episode:
    """One active dpred-mode episode."""

    __slots__ = (
        "kind",
        "branch_pc",
        "resolve",
        "cfm_pcs",
        "return_cfm",
        "false_insts",
        "false_merged",
        "false_done_cycle",
        "true_merged",
        "select_registers",
        "num_selects",
        "mispredicted",
        "half_width",
        "start_cycle",
    )

    def __init__(self, kind, branch_pc, resolve, start_cycle):
        self.kind = kind
        self.branch_pc = branch_pc
        self.resolve = resolve
        self.start_cycle = start_cycle
        self.cfm_pcs = frozenset()
        self.return_cfm = False
        self.false_insts = 0
        self.false_merged = False
        self.false_done_cycle = resolve
        self.true_merged = False
        self.select_registers = frozenset()
        self.num_selects = 0
        self.mispredicted = False
        self.half_width = True


class TimingSimulator:
    """Replays a dynamic trace through the timing model.

    Parameters
    ----------
    program:
        The static program the trace came from.
    config:
        :class:`ProcessorConfig`; defaults to the Table 1 machine.
    annotation:
        Diverge-branch marks.  ``None`` simulates the baseline
        processor (DMP support idle).
    tracer:
        A :class:`repro.obs.tracer.Tracer` emitting typed events
        (episodes, flushes, cache misses).  Defaults to the active
        telemetry context — the no-op null tracer unless the CLI (or a
        test) installed one, in which case the hot loop pays a single
        ``tracer.enabled`` check per site.
    metrics:
        A :class:`repro.obs.metrics.MetricsRegistry`; always on.
        Per-run totals and per-episode histograms are recorded here
        (never per-instruction work).
    ledger:
        A :class:`repro.obs.ledger.RuntimeLedger`, or ``None`` (the
        default — zero overhead).  When present, per-pc episode
        outcome counters are collected and folded in once per run via
        :meth:`~repro.obs.ledger.RuntimeLedger.record_run`.
    profiler:
        A :class:`repro.uarch.profiler.SimProfiler`, or ``None`` (the
        default — zero overhead, same opt-in pattern as the ledger).
        When present, the run loop charges its own wall-clock to
        per-component buckets (stopwatch partition: the buckets sum to
        the instrumented run time exactly) plus deterministic event
        counts, folded in once per run via
        :meth:`~repro.uarch.profiler.SimProfiler.record_run`.
    memo:
        A result memo with ``get(key)``/``put(key, value)`` (the
        experiment runner's bounded ``KeyedCache``), or ``None`` (the
        default — every run replays; same opt-in pattern as the
        ledger).  :meth:`run` first looks its inputs up by content
        (:meth:`memo_key`); a hit returns a copy of the stored stats
        and folds the stored run's metric contribution into
        ``metrics``, so a repeated simulation costs one lookup.  A
        traced run, a ledger or a profiler bypasses the memo: their
        event streams and rows cannot be replayed.  A simulator with a
        memo runs once (a hit leaves its machine state cold).
    window_size:
        Replay window in trace rows (default :data:`DEFAULT_WINDOW`).
        It changes only how the pre-passes batch the trace, never the
        result; tests sweep tiny windows to pin window-edge behaviour.
    """

    def __init__(self, program, config=None, annotation=None,
                 collect_per_branch=False, tracer=None, metrics=None,
                 ledger=None, profiler=None, memo=None, window_size=None):
        self.program = program
        self.config = (config or ProcessorConfig()).validate()
        self.annotation = annotation
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = metrics if metrics is not None else get_metrics()
        self.ledger = ledger
        self.profiler = profiler
        self.memo = memo
        self._ran = False
        # Rebound per run by _replay; the frozen test oracle's replay
        # loop records into these (and _record_run_metrics' default)
        # directly.
        self._bind_histograms(self.metrics)
        #: When True, SimStats.per_branch records executions,
        #: mispredictions, episodes, avoided and taken flushes per pc
        #: (used by the coverage report; small runtime overhead).
        self.collect_per_branch = collect_per_branch
        cfg = self.config
        self.predictor = make_predictor(
            cfg.predictor_kind,
            **(
                {
                    "num_perceptrons": cfg.perceptron_entries,
                    "history_bits": cfg.perceptron_history,
                }
                if cfg.predictor_kind == "perceptron"
                else {}
            ),
        )
        self.confidence = JRSConfidenceEstimator(
            num_entries=cfg.confidence_entries,
            history_bits=cfg.confidence_history,
            threshold=cfg.confidence_threshold,
        )
        self.btb = BranchTargetBuffer(cfg.btb_entries)
        self.ras = ReturnAddressStack(cfg.ras_depth)
        self.memory = MemoryHierarchy(
            icache_kb=cfg.icache_kb,
            icache_assoc=cfg.icache_assoc,
            icache_latency=cfg.icache_latency,
            dcache_kb=cfg.dcache_kb,
            dcache_assoc=cfg.dcache_assoc,
            dcache_latency=cfg.dcache_latency,
            l2_kb=cfg.l2_kb,
            l2_assoc=cfg.l2_assoc,
            l2_latency=cfg.l2_latency,
            memory_latency=cfg.memory_latency,
        )
        self.bias = BiasTable()
        self.walker = WrongPathWalker(program, self.bias,
                                      metrics=self.metrics)
        self._loop_episode = None
        # Dynamic trip-count tracking for diverge loop branches: the
        # number of predicated iterations in an episode is bounded by
        # how much longer the loop will actually run, estimated from an
        # EWMA of recent continue-run lengths minus the current streak.
        self._loop_streak = {}
        self._loop_run_ewma = {}
        self.window_size = (
            DEFAULT_WINDOW if window_size is None else int(window_size)
        )
        if self.window_size < 1:
            raise SimulationError(
                f"window_size must be >= 1, got {self.window_size}"
            )
        self._icache_conflict = icache_conflicts(
            len(program.instructions), self.memory.icache
        )
        self._build_decode_tables()

    def _observe_loop_outcome(self, pc, continued):
        """Update per-branch trip statistics; returns expected remaining."""
        streak = self._loop_streak.get(pc, 0)
        ewma = self._loop_run_ewma.get(pc, 4.0)
        if continued:
            self._loop_streak[pc] = streak + 1
        else:
            self._loop_run_ewma[pc] = 0.75 * ewma + 0.25 * streak
            self._loop_streak[pc] = 0
        return max(1.0, ewma - streak)

    # ------------------------------------------------------------------
    # Static decode tables
    # ------------------------------------------------------------------

    def _build_decode_tables(self):
        program = self.program
        instructions = program.instructions
        n = len(instructions)
        try:
            cached = _DECODE_CACHE.get(program)
        except TypeError:         # unweakrefable program stand-in
            cached = None
        if cached is None:
            kind = np.zeros(n, dtype=np.int64)
            lat = np.empty(n, dtype=np.int64)
            src1 = np.full(n, _NULL_REG, dtype=np.int64)
            src2 = np.full(n, _NULL_REG, dtype=np.int64)
            src3 = np.full(n, _NULL_REG, dtype=np.int64)
            dest = np.full(n, _SCRATCH_REG, dtype=np.int64)
            targets = [-1] * n
            for pc, inst in enumerate(instructions):
                if inst.is_conditional_branch:
                    kind[pc] = _COND
                elif inst.is_call:
                    kind[pc] = _CALL
                elif inst.is_return:
                    kind[pc] = _RET
                elif inst.is_control:
                    kind[pc] = _JMP
                elif inst.is_load:
                    kind[pc] = _LOAD
                elif inst.is_store:
                    kind[pc] = _STORE
                lat[pc] = inst.latency
                reads = inst.read_registers()
                if reads:
                    src1[pc] = reads[0]
                    if len(reads) > 1:
                        src2[pc] = reads[1]
                        if len(reads) > 2:    # CMOV reads its old dest
                            src3[pc] = reads[2]
                written = inst.written_register()
                if written:   # None and r0 both mean "no dataflow dest"
                    dest[pc] = written
                if inst.target is not None:
                    targets[pc] = inst.target
            cached = (kind, np.where(kind >= _LOAD, _PLAIN, kind),
                      lat, src1, src2, src3, dest, targets)
            try:
                _DECODE_CACHE[program] = cached
            except TypeError:
                pass
        (self._kind_table, self._replay_kind_table, self._lat_table,
         self._src1_table, self._src2_table, self._src3_table,
         self._dest_table, self._target_by_pc) = cached
        # Diverge marks by pc (an empty annotation never yields a
        # diverge branch).
        if self.annotation:
            diverge_by_pc = [None] * n
            for mark in self.annotation:
                diverge_by_pc[mark.branch_pc] = mark
            self._diverge_by_pc = diverge_by_pc
        else:
            self._diverge_by_pc = None

    # ------------------------------------------------------------------
    # Per-window pre-passes
    # ------------------------------------------------------------------

    def _branch_prepass(self, cond_pcs, cond_taken):
        """Replay predictor + confidence over a window's cond branches.

        Returns ``(predicted, low_conf, mispredicted)`` python lists
        plus the window's (mispredictions, low-confidence, low-and-mis)
        counts.  Predictor and confidence state advance exactly as
        per-branch ``predict``/``update`` calls would.
        """
        m = cond_pcs.shape[0]
        pcs_list = cond_pcs.tolist()
        taken_list = cond_taken.tolist()
        pred_l = []
        low_l = []
        mis_l = []
        ap_pred = pred_l.append
        ap_low = low_l.append
        ap_mis = mis_l.append
        predictor = self.predictor
        conf = self.confidence
        counters = conf._counters
        centries = conf.num_entries
        cthreshold = conf.threshold
        chist = conf._history
        chist_mask = conf._history_mask
        cidx_mask = centries - 1
        n_mis = 0
        n_low = 0
        n_low_mis = 0
        if isinstance(predictor, PerceptronPredictor):
            h = predictor.history_bits
            # Chronological outcome stream: initial history (oldest
            # first) followed by this window's outcomes; branch j's
            # most-recent-first history is a reversed length-h slice
            # ending just before outcome j.
            outcomes = cond_taken.astype(np.int32) * 2 - 1
            chron = np.concatenate((predictor._history[::-1], outcomes))
            windows = np.lib.stride_tricks.sliding_window_view(
                chron[::-1], h
            )
            hist_rows = windows[np.arange(m, 0, -1)]
            weights = predictor._weights
            num_perceptrons = predictor.num_perceptrons
            pthreshold = predictor.threshold
            for j in range(m):
                pc = pcs_list[j]
                taken = taken_list[j]
                row = weights[pc % num_perceptrons]
                history = hist_rows[j]
                output = int(row[0]) + int(row[1:] @ history)
                pred = output >= 0
                mis = pred != taken
                if mis or (output if pred else -output) <= pthreshold:
                    # minimum+maximum ufuncs with out= do what np.clip
                    # does without its (much slower) dispatch wrapper.
                    weight_tail = row[1:]
                    if taken:
                        bias_weight = int(row[0]) + 1
                        row[0] = (bias_weight if bias_weight <= WEIGHT_MAX
                                  else WEIGHT_MAX)
                        np.add(weight_tail, history, out=weight_tail)
                        np.minimum(weight_tail, WEIGHT_MAX,
                                   out=weight_tail)
                        np.maximum(weight_tail, WEIGHT_MIN,
                                   out=weight_tail)
                    else:
                        bias_weight = int(row[0]) - 1
                        row[0] = (bias_weight if bias_weight >= WEIGHT_MIN
                                  else WEIGHT_MIN)
                        np.subtract(weight_tail, history, out=weight_tail)
                        np.maximum(weight_tail, WEIGHT_MIN,
                                   out=weight_tail)
                        np.minimum(weight_tail, WEIGHT_MAX,
                                   out=weight_tail)
                index = (pc ^ (chist & cidx_mask)) % centries
                low = counters[index] < cthreshold
                if low:
                    n_low += 1
                    if mis:
                        n_low_mis += 1
                if mis:
                    n_mis += 1
                    counters[index] = 0
                    chist = ((chist << 1) | 1) & chist_mask
                else:
                    bumped = counters[index] + 1
                    if bumped <= COUNTER_MAX:
                        counters[index] = bumped
                    chist = (chist << 1) & chist_mask
                ap_pred(pred)
                ap_low(low)
                ap_mis(mis)
            predictor._history = chron[len(chron) - h:][::-1].copy()
        else:
            predict = predictor.predict
            update = predictor.update
            for j in range(m):
                pc = pcs_list[j]
                taken = taken_list[j]
                pred = predict(pc)
                mis = pred != taken
                update(pc, taken)
                index = (pc ^ (chist & cidx_mask)) % centries
                low = counters[index] < cthreshold
                if low:
                    n_low += 1
                    if mis:
                        n_low_mis += 1
                if mis:
                    n_mis += 1
                    counters[index] = 0
                    chist = ((chist << 1) | 1) & chist_mask
                else:
                    bumped = counters[index] + 1
                    if bumped <= COUNTER_MAX:
                        counters[index] = bumped
                    chist = (chist << 1) & chist_mask
                ap_pred(pred)
                ap_low(low)
                ap_mis(mis)
        conf._history = chist
        conf.queries += m
        conf.low_confidence_count += n_low
        conf.low_confidence_mispredicted += n_low_mis
        return pred_l, low_l, mis_l, n_mis, n_low, n_low_mis

    def _control_prepass(self, kinds_w, pcs_w, next_w, cond_mis):
        """Replay BTB + RAS over a window's control rows.

        Returns ``(ctl_taken, ctl_extra)`` aligned with the window's
        control rows in trace order: for cond/jmp/call rows ``extra``
        is the BTB bubble to charge (0 when none), for ret rows it is
        the RAS-correct flag.  ``cond_mis`` is the branch pre-pass's
        misprediction list (cond rows are a subsequence of control
        rows, so a cond-ordinal cursor lines them up).
        """
        ctrl_rows = np.nonzero((kinds_w >= _COND) & (kinds_w <= _RET))[0]
        if not ctrl_rows.size:
            return [], []
        kinds = kinds_w[ctrl_rows].tolist()
        pcs = pcs_w[ctrl_rows].tolist()
        nexts = next_w[ctrl_rows].tolist()
        btb = self.btb
        tags = btb._tags
        btb_targets = btb._targets
        num_entries = btb.num_entries
        bubble = btb.miss_bubble_cycles
        push = self.ras.push
        pop_predict = self.ras.pop_predict
        taken_l = []
        extra_l = []
        ap_taken = taken_l.append
        ap_extra = extra_l.append
        hits = 0
        misses = 0
        cond_cursor = 0
        for k, pc, nxt in zip(kinds, pcs, nexts):
            taken = nxt != pc + 1
            ap_taken(taken)
            if k == _COND:
                mis = cond_mis[cond_cursor]
                cond_cursor += 1
                if not taken or mis:
                    ap_extra(0)
                    continue
            elif k == _RET:
                ap_extra(1 if pop_predict(nxt) else 0)
                continue
            elif k == _CALL:
                push(pc + 1)
            # Taken control: a BTB lookup; a miss or a wrong target
            # costs the miss bubble and fills the entry for next time
            # (direct targets are discovered at decode).
            index = pc % num_entries
            if tags[index] == pc:
                hits += 1
                if btb_targets[index] == nxt:
                    ap_extra(0)
                    continue
            else:
                misses += 1
            tags[index] = pc
            btb_targets[index] = nxt
            ap_extra(bubble)
        btb.hits += hits
        btb.misses += misses
        return taken_l, extra_l

    # ------------------------------------------------------------------
    # Batch replay
    # ------------------------------------------------------------------

    def memo_key(self, trace):
        """The content key of running ``trace`` on this simulator.

        Exact content, never object identity: the program's digest,
        the config's fields, the diverge marks (``None`` and an empty
        annotation simulate alike), ``collect_per_branch`` and the
        trace columns' digest.  The digests are computed once per
        program and per compact trace.
        """
        return (
            self.program.fingerprint,
            astuple(self.config),
            tuple(self.annotation or ()),
            self.collect_per_branch,
            trace_digest(trace),
        )

    def run(self, trace, label=""):
        """Simulate ``trace`` and return :class:`SimStats`.

        The run's metrics are recorded into a run-local registry that
        is then folded into ``metrics``; with a memo, that registry is
        stored with the stats and folded in again on every hit.
        """
        if not trace:
            raise SimulationError("empty trace")
        memo = self.memo
        if memo is not None:
            if self._ran:
                raise SimulationError(
                    "a simulator with a result memo runs once"
                )
            if (self.tracer.enabled or self.ledger is not None
                    or self.profiler is not None):
                memo = None
        self._ran = True
        if memo is not None:
            key = self.memo_key(trace)
            hit = memo.get(key)
            if hit is not None:
                stats, run_metrics = hit
                self.metrics.merge(run_metrics)
                return stats.copy(label)
        run_metrics = MetricsRegistry()
        stats = self._replay(trace, label, run_metrics)
        if memo is not None:
            memo.put(key, (stats.copy(), run_metrics))
        return stats

    def _replay(self, trace, label, run_metrics):
        """The batch replay: simulate ``trace``, recording the run's
        metrics into ``run_metrics``."""
        self._bind_histograms(run_metrics)
        cfg = self.config
        stats = SimStats(label=label)
        instructions = self.program.instructions
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            tracer.emit(obs_events.SimRunStart(
                label=label,
                trace_length=len(trace),
                dmp_enabled=self.annotation is not None,
            ))
        hist_episode_cycles = self._hist_episode_cycles

        # Opt-in cost attribution (see repro.uarch.profiler): a single
        # running timestamp; each charge(i) bills the time since the
        # previous charge point to bucket i, so the buckets partition
        # the instrumented interval exactly.  Kernels are charged per
        # window, not per row — the replay loop's residual bills to
        # dataflow at the window boundary — so profiler=None stays
        # check-free on the hot path.
        profiler = self.profiler
        profiling = profiler is not None
        if profiling:
            from time import perf_counter as _perf

            comp_sec = [0.0] * NUM_COMPONENTS
            comp_events = [0] * NUM_COMPONENTS
            mark = _perf()

            def charge(index):
                nonlocal mark
                now = _perf()
                comp_sec[index] += now - mark
                mark = now
        else:
            charge = None

        # Columnar view of the trace (zero-copy for compact traces).
        pcs_np, next_np, addr_np = trace_columns(trace)
        n = pcs_np.shape[0]
        if profiling:
            charge(OTHER)

        # Warm the instruction side: at the paper's scale (hundreds of
        # millions of instructions) compulsory I-cache misses are
        # negligible, but at our reduced scale a cold pass over the
        # static code would cost more cycles than the whole benchmark.
        # Afterwards only lines in over-full sets can miss, so the
        # replay loop probes only those (see icache_conflicts()).
        warm_step = max(1, self.memory.icache.words_per_line)
        for pc in range(0, len(instructions), warm_step):
            self.memory.instruction_latency(pc)
        if profiling:
            charge(ICACHE)
            comp_events[ICACHE] += -(-len(instructions) // warm_step)

        # Hoisted configuration and machinery.
        fetch_width = cfg.fetch_width
        half_width = max(1, fetch_width // 2)
        frontend_depth = cfg.frontend_depth
        redirect = cfg.redirect_penalty
        retire_width = cfg.retire_width
        rob_size = cfg.rob_size
        max_cond = cfg.max_cond_branches_per_cycle
        max_wrong_path = cfg.dpred_max_wrong_path_insts
        memory = self.memory
        icache_conflict = self._icache_conflict
        instruction_latency = memory.instruction_latency
        data_l1_hit = memory.data_l1_hit
        data_miss_latency = memory.data_miss_latency
        icache_latency = cfg.icache_latency
        dcache_latency = cfg.dcache_latency
        diverge_by_pc = self._diverge_by_pc
        dmp = diverge_by_pc is not None
        bias_counters = self.bias._counters
        kind_table = self._kind_table
        replay_kind_table = self._replay_kind_table
        lat_table = self._lat_table
        src1_table = self._src1_table
        src2_table = self._src2_table
        src3_table = self._src3_table
        dest_table = self._dest_table
        target_by_pc = self._target_by_pc

        # Front-end / dataflow / ROB state (carried across windows).
        cycle = 0
        slots_used = 0
        cond_used = 0
        # Two extra slots for the decode-table sentinels: _NULL_REG is
        # never written (always ready at 0), _SCRATCH_REG never read.
        reg_ready = [0] * (NUM_REGISTERS + 2)
        rob = []
        rob_append = rob.append
        rob_extend = rob.extend
        rob_head = 0
        rob_occ = 0                      # == len(rob) - rob_head
        last_complete = 0
        episode = None
        # In-order retire clock, closed form: with the per-entry
        # (last_retire_cycle, retired_in_cycle) state, p =
        # retire_width * last_retire_cycle + retired_in_cycle - 1, and
        # retiring an entry completed at cycle c advances it as
        # p' = max(p + 1, retire_width * c).  last_retire_cycle is
        # recovered as p // retire_width.
        p = -1

        ledger = self.ledger
        per_branch = (
            {} if (self.collect_per_branch or ledger is not None)
            else None
        )
        track = per_branch is not None

        def branch_counters(pc):
            counters = per_branch.get(pc)
            if counters is None:
                # Slot order matches repro.obs.ledger.RUNTIME_COUNTERS:
                # [0 executions, 1 mispredictions, 2 episodes,
                #  3 flushes_avoided, 4 flushes, 5 merged, 6 unmerged,
                #  7 squashed, 8 wrong_path_insts, 9 select_uops,
                #  10 episode_cycles]
                counters = [0] * 11
                per_branch[pc] = counters
            return counters

        def end_episode_unmerged(reason="resolved-unmerged"):
            nonlocal episode, cycle
            ep = episode
            episode = None
            if ep.resolve > cycle:
                cycle = ep.resolve
            duration = ep.resolve - ep.start_cycle
            if duration < 0:
                duration = 0
            hist_episode_cycles.observe(duration)
            if track:
                counters = branch_counters(ep.branch_pc)
                counters[6] += 1
                counters[10] += duration
            if traced:
                tracer.emit(obs_events.DpredEpisodeEnd(
                    branch_pc=ep.branch_pc,
                    cycle=cycle,
                    duration_cycles=duration,
                    reason=reason,
                ))
            if ep.kind == "loop":
                resolve = ep.resolve
                for reg in ep.select_registers:
                    if resolve > reg_ready[reg]:
                        reg_ready[reg] = resolve

        def charge_fetch_slots(count):
            nonlocal cycle, slots_used
            slots_used += count
            while slots_used >= fetch_width:
                cycle += 1
                slots_used -= fetch_width

        def end_episode_merged(merge_cycle):
            nonlocal episode, cycle, rob_occ
            ep = episode
            episode = None
            if merge_cycle > cycle:
                cycle = merge_cycle
            stats.dpred_episodes_merged += 1
            duration = merge_cycle - ep.start_cycle
            if duration < 0:
                duration = 0
            hist_episode_cycles.observe(duration)
            if track:
                counters = branch_counters(ep.branch_pc)
                counters[5] += 1
                counters[9] += ep.num_selects
                counters[10] += duration
            if traced:
                tracer.emit(obs_events.DpredEpisodeMerge(
                    branch_pc=ep.branch_pc,
                    cycle=cycle,
                    duration_cycles=duration,
                    select_uops=ep.num_selects,
                ))
            stats.dpred_select_uops += ep.num_selects
            if ep.num_selects:
                rob_extend([ep.resolve] * ep.num_selects)
                rob_occ += ep.num_selects
                charge_fetch_slots(ep.num_selects)
            resolve = ep.resolve
            for reg in ep.select_registers:
                if resolve > reg_ready[reg]:
                    reg_ready[reg] = resolve

        for window_start, window_stop in window_bounds(
            n, self.window_size
        ):
            pcs_w = pcs_np[window_start:window_stop]
            next_w = next_np[window_start:window_stop]
            kinds_w = kind_table[pcs_w]
            kinds_l = replay_kind_table[pcs_w].tolist()
            pcs_l = pcs_w.tolist()
            lat_w = lat_table[pcs_w]
            src1_l = src1_table[pcs_w].tolist()
            src2_l = src2_table[pcs_w].tolist()
            src3_l = src3_table[pcs_w].tolist()
            dest_l = dest_table[pcs_w].tolist()
            if profiling:
                charge(FETCH)

            # L1 D pre-pass: the private L1 D sees the window's loads
            # and stores in trace order.  A hit's latency is known now;
            # a miss row keeps its memory kind, and the replay loop
            # walks the shared L2 for it inline (see the module
            # docstring).
            mem_rows = np.nonzero(kinds_w >= _LOAD)[0]
            miss_addrs = ()
            miss_cursor = 0
            if mem_rows.size:
                addrs_w = addr_np[window_start:window_stop]
                hits = np.fromiter(
                    map(data_l1_hit, addrs_w[mem_rows].tolist()),
                    dtype=bool, count=mem_rows.size,
                )
                lat_w[mem_rows[kinds_w[mem_rows] == _LOAD]] = \
                    dcache_latency
                if not hits.all():
                    miss_rows = mem_rows[~hits]
                    for row, kind in zip(miss_rows.tolist(),
                                         kinds_w[miss_rows].tolist()):
                        kinds_l[row] = kind
                    miss_addrs = addrs_w[miss_rows].tolist()
            lat_l = lat_w.tolist()
            if profiling:
                charge(DCACHE)
                comp_events[DCACHE] += int(mem_rows.size)

            # Branch-predictor / confidence pre-pass.
            cond_rows = np.nonzero(kinds_w == _COND)[0]
            m = int(cond_rows.size)
            if m:
                (cond_pred, cond_low, cond_mis,
                 n_mis, n_low, n_low_mis) = self._branch_prepass(
                    pcs_w[cond_rows],
                    next_w[cond_rows] != pcs_w[cond_rows] + 1,
                )
            else:
                cond_pred = cond_low = cond_mis = ()
                n_mis = n_low = n_low_mis = 0
            stats.conditional_branches += m
            stats.mispredictions += n_mis
            stats.low_confidence_branches += n_low
            stats.low_confidence_mispredicted += n_low_mis

            # BTB / RAS pre-pass.
            ctl_taken, ctl_extra = self._control_prepass(
                kinds_w, pcs_w, next_w, cond_mis
            )
            if profiling:
                charge(BRANCH_PRED)
                comp_events[BRANCH_PRED] += len(ctl_taken)

            cond_cursor = 0
            ctl_cursor = 0

            # ---- lean replay over the window ------------------------
            for k, pc, lat, src1, src2, src3, dest in zip(
                kinds_l, pcs_l, lat_l, src1_l, src2_l, src3_l, dest_l
            ):
                # ---- episode bookkeeping at the fetch boundary ------
                if episode is not None:
                    if profiling:
                        charge(DATAFLOW)
                    if cycle >= episode.resolve:
                        end_episode_unmerged()
                    elif episode.kind == "hammock" \
                            and not episode.true_merged:
                        if pc in episode.cfm_pcs or (
                            episode.return_cfm and k == _RET
                        ):
                            episode.true_merged = True
                            if episode.false_merged and \
                                    episode.false_done_cycle \
                                    <= episode.resolve:
                                end_episode_merged(
                                    episode.false_done_cycle)
                            else:
                                end_episode_unmerged("true-path-waits")
                    if profiling:
                        charge(DPRED_EPISODE)

                # ---- ROB slot ---------------------------------------
                if rob_occ >= rob_size:
                    if profiling:
                        charge(DATAFLOW)
                    need = rob_occ - rob_size + 1
                    rob_occ = rob_size - 1
                    if need == 1:
                        ready = retire_width * rob[rob_head]
                        rob_head += 1
                        p += 1
                        if ready > p:
                            p = ready
                    else:
                        best = p + need
                        base = rob_head
                        for offset in range(need):
                            ready = (retire_width * rob[base + offset]
                                     + need - offset - 1)
                            if ready > best:
                                best = ready
                        p = best
                        rob_head = base + need
                    free_at = p // retire_width
                    if free_at > cycle:
                        cycle = free_at
                        slots_used = 0
                        cond_used = 0
                    if profiling:
                        charge(ROB_RETIRE)

                # ---- fetch slot -------------------------------------
                if episode is not None and episode.half_width \
                        and cycle < episode.false_done_cycle:
                    width = half_width
                else:
                    width = fetch_width
                if slots_used >= width or (
                    k == _COND and cond_used >= max_cond
                ):
                    cycle += 1
                    slots_used = 0
                    cond_used = 0
                    if icache_conflict[pc]:
                        stall = instruction_latency(pc) - icache_latency
                        if profiling:
                            comp_events[ICACHE] += 1
                        if stall > 0:
                            stats.icache_misses += 1
                            if traced:
                                tracer.emit(obs_events.CacheMiss(
                                    level="icache", pc=pc, cycle=cycle,
                                    stall_cycles=stall,
                                ))
                            cycle += stall
                fetch_cycle = cycle
                slots_used += 1

                # ---- dataflow timing --------------------------------
                start = fetch_cycle + frontend_depth
                ready = reg_ready[src1]
                if ready > start:
                    start = ready
                ready = reg_ready[src2]
                if ready > start:
                    start = ready
                ready = reg_ready[src3]
                if ready > start:
                    start = ready
                complete = start + lat
                reg_ready[dest] = complete
                rob_append(complete)
                rob_occ += 1
                last_complete = complete

                # ---- L1 D misses and control flow -------------------
                if k:
                    if k >= _LOAD:
                        # Walk the L2 in trace order, after this row's
                        # I-cache probe; a load completes after the
                        # miss latency, not the L1 D one.
                        latency = data_miss_latency(miss_addrs[miss_cursor])
                        miss_cursor += 1
                        if k == _LOAD:
                            complete += latency - lat
                            reg_ready[dest] = complete
                            rob[-1] = complete
                            last_complete = complete
                        continue
                    taken = ctl_taken[ctl_cursor]
                    extra = ctl_extra[ctl_cursor]
                    ctl_cursor += 1
                    if k == _COND:
                        cond_used += 1
                        predicted = cond_pred[cond_cursor]
                        low_conf = cond_low[cond_cursor]
                        mispredicted = cond_mis[cond_cursor]
                        cond_cursor += 1
                        if track:
                            counters = branch_counters(pc)
                            counters[0] += 1
                            if mispredicted:
                                counters[1] += 1
                        resolve = complete
                        if dmp:
                            bias_count = bias_counters.get(pc, 2)
                            if taken:
                                if bias_count < 3:
                                    bias_counters[pc] = bias_count + 1
                                else:
                                    bias_counters[pc] = bias_count
                            elif bias_count > 0:
                                bias_counters[pc] = bias_count - 1
                            else:
                                bias_counters[pc] = bias_count
                            diverge = diverge_by_pc[pc]
                        else:
                            diverge = None
                        entered = False
                        if diverge is not None:
                            expected_remaining = 1.0
                            if diverge.kind is DivergeKind.LOOP:
                                expected_remaining = \
                                    self._observe_loop_outcome(
                                        pc,
                                        taken == diverge.loop_direction,
                                    )
                            if episode is None and (
                                diverge.always_predicate or low_conf
                            ):
                                if profiling:
                                    charge(DATAFLOW)
                                if diverge.kind is DivergeKind.LOOP:
                                    entered = self._enter_loop_episode(
                                        stats, diverge, predicted, taken,
                                        fetch_cycle, resolve,
                                        expected_remaining,
                                        counters=(
                                            branch_counters(pc)
                                            if track else None
                                        ),
                                    )
                                    if entered:
                                        episode = self._loop_episode
                                else:
                                    episode = self._make_hammock_episode(
                                        stats, diverge, taken,
                                        target_by_pc[pc],
                                        fetch_cycle, resolve,
                                        mispredicted,
                                        charge=charge,
                                    )
                                    entered = True
                            if entered:
                                ep = episode
                                if track:
                                    counters = branch_counters(pc)
                                    counters[2] += 1
                                    counters[8] += ep.false_insts
                                    if ep.kind == "loop":
                                        counters[9] += ep.num_selects
                                if ep.mispredicted:
                                    stats.dpred_flushes_avoided += 1
                                    if track:
                                        counters[3] += 1
                                stats.dpred_wrong_path_insts += \
                                    ep.false_insts
                                if ep.false_insts:
                                    rob_extend(
                                        [ep.resolve] * ep.false_insts)
                                    rob_occ += ep.false_insts
                                if ep.kind == "loop" and ep.num_selects:
                                    charge_fetch_slots(ep.num_selects)
                                    stats.dpred_select_uops += \
                                        ep.num_selects
                                    rob_extend(
                                        [ep.resolve] * ep.num_selects)
                                    rob_occ += ep.num_selects
                                if profiling:
                                    charge(DPRED_EPISODE)
                                    comp_events[DPRED_EPISODE] += 1
                                    comp_events[WRONG_PATH] += \
                                        ep.false_insts
                        if not entered:
                            if mispredicted and episode is not None \
                                    and episode.kind == "loop" \
                                    and episode.branch_pc == pc \
                                    and diverge is not None \
                                    and predicted \
                                    == diverge.loop_direction:
                                if profiling:
                                    charge(DATAFLOW)
                                stats.dpred_flushes_avoided += 1
                                if resolve > episode.resolve:
                                    episode.resolve = resolve
                                episode.half_width = True
                                extra_insts = \
                                    max(1, diverge.loop_body_size) * 2
                                if extra_insts > max_wrong_path:
                                    extra_insts = max_wrong_path
                                if track:
                                    counters = branch_counters(pc)
                                    counters[3] += 1
                                    counters[8] += extra_insts
                                if traced:
                                    tracer.emit(
                                        obs_events.DpredEpisodeExtend(
                                            branch_pc=pc, cycle=cycle,
                                            extra_insts=extra_insts,
                                        ))
                                episode.false_insts += extra_insts
                                stats.dpred_wrong_path_insts += \
                                    extra_insts
                                rob_extend([resolve] * extra_insts)
                                rob_occ += extra_insts
                                done = fetch_cycle + max(
                                    1, -(-extra_insts // half_width)
                                )
                                if done > episode.false_done_cycle:
                                    episode.false_done_cycle = done
                                if profiling:
                                    charge(DPRED_EPISODE)
                                    comp_events[DPRED_EPISODE] += 1
                                    comp_events[WRONG_PATH] += \
                                        extra_insts
                            elif mispredicted:
                                if profiling:
                                    charge(DATAFLOW)
                                if episode is not None:
                                    duration = \
                                        cycle - episode.start_cycle
                                    if duration < 0:
                                        duration = 0
                                    hist_episode_cycles.observe(
                                        duration)
                                    if track:
                                        counters = branch_counters(
                                            episode.branch_pc)
                                        counters[7] += 1
                                        counters[10] += duration
                                    if traced:
                                        tracer.emit(
                                            obs_events.DpredEpisodeFlush(
                                                branch_pc=(
                                                    episode.branch_pc),
                                                cycle=cycle,
                                                duration_cycles=duration,
                                                flushed_by_pc=pc,
                                                source=(
                                                    "branch-mispredict"),
                                            ))
                                    episode = None
                                stats.pipeline_flushes += 1
                                if traced:
                                    tracer.emit(obs_events.PipelineFlush(
                                        pc=pc, cycle=cycle,
                                        source="branch-mispredict",
                                    ))
                                if track:
                                    branch_counters(pc)[4] += 1
                                redirected = resolve + redirect
                                if redirected > cycle:
                                    cycle = redirected
                                slots_used = 0
                                cond_used = 0
                                if profiling:
                                    charge(BRANCH_PRED)
                        # extra is nonzero only for taken,
                        # correctly-predicted cond rows (the pre-pass
                        # encodes the taken/!mispredicted gate).
                        if extra:
                            cycle += extra
                            slots_used = 0
                            cond_used = 0
                    elif k == _RET:
                        if not extra:        # RAS mispredicted
                            if profiling:
                                charge(DATAFLOW)
                            stats.pipeline_flushes += 1
                            if track:
                                branch_counters(pc)[4] += 1
                            if traced:
                                tracer.emit(obs_events.PipelineFlush(
                                    pc=pc, cycle=cycle,
                                    source="return-mispredict",
                                ))
                            if episode is not None:
                                duration = cycle - episode.start_cycle
                                if duration < 0:
                                    duration = 0
                                hist_episode_cycles.observe(duration)
                                if track:
                                    counters = branch_counters(
                                        episode.branch_pc)
                                    counters[7] += 1
                                    counters[10] += duration
                                if traced:
                                    tracer.emit(
                                        obs_events.DpredEpisodeFlush(
                                            branch_pc=episode.branch_pc,
                                            cycle=cycle,
                                            duration_cycles=duration,
                                            flushed_by_pc=pc,
                                            source="return-mispredict",
                                        ))
                                episode = None
                            redirected = complete + redirect
                            if redirected > cycle:
                                cycle = redirected
                            slots_used = 0
                            cond_used = 0
                            if profiling:
                                charge(BRANCH_PRED)
                    elif extra:              # JMP / CALL BTB bubble
                        cycle += extra
                        slots_used = 0
                        cond_used = 0
                    # Taken control flow ends the fetch group.
                    if taken:
                        slots_used = fetch_width + 1

            if profiling:
                charge(DATAFLOW)
                rows = window_stop - window_start
                comp_events[FETCH] += rows
                comp_events[DATAFLOW] += rows

        # ---- drain -----------------------------------------------------
        remaining = rob_occ
        if remaining:
            completes = np.array(rob[rob_head:], dtype=np.int64)
            offsets = np.arange(remaining - 1, -1, -1, dtype=np.int64)
            best = int((retire_width * completes + offsets).max())
            bumped = p + remaining
            p = best if best > bumped else bumped
            rob_head = len(rob)
        last_retire_cycle = p // retire_width if p >= 0 else 0
        if profiling:
            charge(ROB_RETIRE)
            comp_events[ROB_RETIRE] = len(rob)
        stats.retired_instructions = n
        if cycle < last_retire_cycle:
            cycle = last_retire_cycle
        if cycle < last_complete:
            cycle = last_complete
        stats.cycles = cycle
        stats.dcache_misses = self.memory.dcache.misses
        stats.l2_misses = self.memory.l2.misses
        if self.collect_per_branch:
            stats.per_branch = {
                pc: {
                    "executions": c[0],
                    "mispredictions": c[1],
                    "episodes": c[2],
                    "flushes_avoided": c[3],
                    "flushes": c[4],
                }
                for pc, c in per_branch.items()
                if c[0]
            }
        if ledger is not None:
            ledger.record_run(label, per_branch, stats)
        self._record_run_metrics(stats, run_metrics)
        self.metrics.merge(run_metrics)
        if traced:
            tracer.emit(obs_events.SimRunEnd(
                label=label,
                cycles=stats.cycles,
                retired_instructions=stats.retired_instructions,
                pipeline_flushes=stats.pipeline_flushes,
                dpred_episodes=stats.dpred_episodes,
                dpred_episodes_merged=stats.dpred_episodes_merged,
                mispredictions=stats.mispredictions,
                dpred_flushes_avoided=stats.dpred_flushes_avoided,
                dpred_wrong_path_insts=stats.dpred_wrong_path_insts,
                dpred_select_uops=stats.dpred_select_uops,
            ))
        if profiling:
            charge(OTHER)
            comp_events[OTHER] += 1
            profiler.record_run(label, comp_sec, comp_events, stats,
                                metrics=self.metrics)
        return stats

    def _bind_histograms(self, metrics):
        """Point the per-episode histograms at registry ``metrics``."""
        self._hist_episode_cycles = metrics.histogram(
            "dpred_episode_cycles", EPISODE_CYCLE_BUCKETS,
            help="dpred episode length in cycles",
        )
        self._hist_wrong_path = metrics.histogram(
            "dpred_wrong_path_insts_per_episode", WRONG_PATH_INST_BUCKETS,
            help="wrong-path instructions fetched per dpred episode",
        )

    def _record_run_metrics(self, stats, metrics=None):
        """Record one run's totals into ``metrics`` (default: the
        simulator's registry)."""
        if metrics is None:
            metrics = self.metrics
        for name, value in (
            ("sim_runs_total", 1),
            ("sim_instructions_total", stats.retired_instructions),
            ("sim_cycles_total", stats.cycles),
            ("sim_conditional_branches_total", stats.conditional_branches),
            ("sim_mispredictions_total", stats.mispredictions),
            ("sim_pipeline_flushes_total", stats.pipeline_flushes),
            ("sim_dpred_episodes_total", stats.dpred_episodes),
            ("sim_dpred_episodes_merged_total",
             stats.dpred_episodes_merged),
            ("sim_dpred_flushes_avoided_total",
             stats.dpred_flushes_avoided),
            ("sim_dpred_wrong_path_insts_total",
             stats.dpred_wrong_path_insts),
            ("sim_icache_misses_total", stats.icache_misses),
            ("sim_dcache_misses_total", stats.dcache_misses),
            ("sim_l2_misses_total", stats.l2_misses),
        ):
            if value:
                metrics.counter(name).inc(value)
        if stats.low_confidence_branches:
            metrics.histogram(
                "confidence_pvn_per_run", PVN_BUCKETS,
                help="measured Acc_Conf (PVN) per simulation run",
            ).observe(stats.measured_acc_conf)
        self.walker.record_metrics(metrics)
        self.confidence.record_metrics(metrics)

    # ------------------------------------------------------------------
    # DMP episode construction
    # ------------------------------------------------------------------

    def _make_hammock_episode(self, stats, diverge, taken, false_target,
                              fetch_cycle, resolve, mispredicted,
                              charge=None):
        cfg = self.config
        stats.dpred_episodes += 1
        episode = _Episode("hammock", diverge.branch_pc, resolve,
                           fetch_cycle)
        # Table 1: the hardware tracks at most num_cfm_registers CFM
        # points per dpred episode (the compiler caps MAX_CFM to match,
        # so this only bites on hand-written annotations).
        cfm_pcs = diverge.cfm_pcs
        if len(cfm_pcs) > cfg.num_cfm_registers:
            cfm_pcs = frozenset(sorted(cfm_pcs)[: cfg.num_cfm_registers])
        episode.cfm_pcs = cfm_pcs
        episode.return_cfm = diverge.has_return_cfm
        episode.select_registers = diverge.select_registers
        episode.num_selects = diverge.num_select_uops
        episode.mispredicted = mispredicted
        # Synthesize the path the trace did not take.  The walk is the
        # wrong-path bucket; episode setup around it stays in
        # dpred_episode (``charge`` is the run loop's stopwatch, None
        # when profiling is off).
        false_start = (diverge.branch_pc + 1) if taken else false_target
        if charge is not None:
            charge(DPRED_EPISODE)
        false_insts, false_merged = self.walker.walk(
            false_start,
            episode.cfm_pcs,
            episode.return_cfm,
            cfg.dpred_max_wrong_path_insts,
        )
        if charge is not None:
            charge(WRONG_PATH)
        episode.false_insts = false_insts
        episode.false_merged = false_merged
        per_cycle = max(1, cfg.fetch_width // 2)
        episode.false_done_cycle = fetch_cycle + max(
            1, -(-false_insts // per_cycle)
        )
        self._hist_wrong_path.observe(false_insts)
        if self.tracer.enabled:
            self.tracer.emit(obs_events.DpredEpisodeStart(
                branch_pc=episode.branch_pc,
                kind="hammock",
                cycle=fetch_cycle,
                mispredicted=mispredicted,
                wrong_path_insts=false_insts,
            ))
        return episode

    def _enter_loop_episode(self, stats, diverge, predicted, taken,
                            fetch_cycle, resolve, expected_remaining,
                            counters=None):
        """Handle a low-confidence diverge loop branch instance.

        Returns True when an episode object was installed (stored on
        ``self._loop_episode`` for the caller to pick up).  ``counters``
        is the pc's per-branch ledger slot list; the early-exit path
        (episode counted but dead on arrival) attributes here because
        the caller never sees an episode object for it.
        """
        cfg = self.config
        continue_dir = diverge.loop_direction
        actual_continue = taken == continue_dir
        predicted_continue = predicted == continue_dir

        window = max(1, resolve - fetch_cycle)
        body = max(1, diverge.loop_body_size)
        iter_cycles = max(1, -(-body // cfg.fetch_width))
        # Each predicated iteration consumes a predicate register
        # (Table 1: 32), bounding how deep the loop can be predicated.
        est_iters = max(1, min(window // iter_cycles,
                               int(expected_remaining) + 1,
                               cfg.dpred_max_loop_iterations,
                               cfg.num_predicate_registers))

        stats.dpred_episodes += 1
        stats.dpred_episodes_loop += 1
        episode = _Episode("loop", diverge.branch_pc, resolve, fetch_cycle)
        episode.select_registers = diverge.select_registers
        episode.num_selects = diverge.num_select_uops * est_iters
        episode.mispredicted = predicted != taken

        if predicted_continue and not actual_continue:
            # Late exit: the predictor over-iterates; the extra
            # (predicated) iterations become NOPs — no flush, but the
            # front end wastes half its bandwidth on them and the
            # post-exit code shares fetch until resolution.
            episode.half_width = True
            episode.false_insts = min(
                body * est_iters, cfg.dpred_max_wrong_path_insts
            )
            per_cycle = max(1, cfg.fetch_width // 2)
            episode.false_done_cycle = fetch_cycle + max(
                1, -(-episode.false_insts // per_cycle)
            )
            episode.false_merged = False
        elif not predicted_continue and actual_continue:
            # Early exit: the pipeline must be flushed to re-enter the
            # loop — dpred-mode only added select-µop overhead.  The
            # flush is modelled by *not* suppressing it: report no
            # episode so the caller's normal misprediction path runs,
            # but still charge the select overhead.
            stats.dpred_select_uops += episode.num_selects
            if counters is not None:
                counters[2] += 1
                counters[6] += 1
                counters[9] += episode.num_selects
            self._hist_wrong_path.observe(0)
            if self.tracer.enabled:
                # The episode is counted (stats.dpred_episodes above)
                # but dies immediately, so the trace reflects both.
                self.tracer.emit(obs_events.DpredEpisodeStart(
                    branch_pc=episode.branch_pc, kind="loop",
                    cycle=fetch_cycle, mispredicted=False,
                    wrong_path_insts=0,
                    select_uops=episode.num_selects,
                ))
                self.tracer.emit(obs_events.DpredEpisodeEnd(
                    branch_pc=episode.branch_pc, cycle=fetch_cycle,
                    duration_cycles=0, reason="early-exit-flush",
                ))
            self._loop_episode = None
            return False
        else:
            # Correctly predicted (or no-exit): overhead only.
            episode.half_width = False
            episode.mispredicted = False

        self._hist_wrong_path.observe(episode.false_insts)
        if self.tracer.enabled:
            self.tracer.emit(obs_events.DpredEpisodeStart(
                branch_pc=episode.branch_pc, kind="loop",
                cycle=fetch_cycle, mispredicted=episode.mispredicted,
                wrong_path_insts=episode.false_insts,
                select_uops=episode.num_selects,
            ))
        self._loop_episode = episode
        return True


def simulate(program, trace, config=None, annotation=None, label=""):
    """One-call convenience: build a simulator and run ``trace``."""
    simulator = TimingSimulator(program, config=config,
                                annotation=annotation)
    return simulator.run(trace, label=label)
