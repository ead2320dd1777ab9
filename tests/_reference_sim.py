"""Frozen copy of the scalar ``TimingSimulator.run`` replay loop.

This module is the oracle for the simulator-equivalence tests: it
preserves, verbatim, the one-row-at-a-time replay that shipped as the
production simulator before the batch replay became the only engine,
so the tests can assert that the batch replay produces identical
``SimStats``, per-branch/ledger counters and tracer event streams for
any (program, config, annotation, window size).  It probes the I-cache
at every fetch group and walks the D-cache inline, so it is the
reference for small, non-resident I-cache configurations as well.  Do
not "improve" this file — its value is that it does not change.

The episode machinery (``_make_hammock_episode``,
``_enter_loop_episode``, ``_observe_loop_outcome``,
``_record_run_metrics``) and all predictor/cache state stay shared with
the production class; only the replay loop is frozen here.
"""

from repro.core.marks import DivergeKind
from repro.emulator import trace_rows
from repro.errors import SimulationError
from repro.isa.instructions import Opcode
from repro.obs import events as obs_events
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
from repro.uarch.simulator import TimingSimulator
from repro.uarch.stats import SimStats


class ReferenceSimulator(TimingSimulator):
    """:class:`TimingSimulator` with the frozen scalar replay loop."""

    def run(self, trace, label=""):
        """Simulate ``trace`` and return :class:`SimStats`."""
        if not trace:
            raise SimulationError("empty trace")
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
        # the instrumented interval exactly.  ``profiling`` is a hoisted
        # local bool — profiler=None pays one check per charge site.
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

        # Warm the instruction side: at the paper's scale (hundreds of
        # millions of instructions) compulsory I-cache misses are
        # negligible, but at our reduced scale a cold pass over the
        # static code would cost more cycles than the whole benchmark.
        warm_step = max(1, self.memory.icache.words_per_line)
        for pc in range(0, len(instructions), warm_step):
            self.memory.instruction_latency(pc)
        if profiling:
            charge(ICACHE)
            comp_events[ICACHE] += -(-len(instructions) // warm_step)

        # Front-end state.
        cycle = 0
        slots_used = 0
        cond_used = 0
        group_pc = trace[0].pc

        # Dataflow state: architectural register -> ready cycle.
        reg_ready = {}

        # ROB: completion cycles in program order (lazy in-order retire).
        rob = []
        rob_head = 0
        last_retire_cycle = 0
        retired_in_cycle = 0
        last_complete = 0

        episode = None

        ledger = self.ledger
        per_branch = (
            {} if (self.collect_per_branch or ledger is not None)
            else None
        )

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

        fetch_width = cfg.fetch_width
        frontend_depth = cfg.frontend_depth
        redirect = cfg.redirect_penalty
        retire_width = cfg.retire_width
        rob_size = cfg.rob_size
        max_cond = cfg.max_cond_branches_per_cycle
        predictor = self.predictor
        confidence = self.confidence
        bias = self.bias
        memory = self.memory
        annotation = self.annotation

        def retire_one():
            nonlocal rob_head, last_retire_cycle, retired_in_cycle
            complete = rob[rob_head]
            rob_head += 1
            if complete > last_retire_cycle:
                last_retire_cycle = complete
                retired_in_cycle = 1
            else:
                if retired_in_cycle >= retire_width:
                    last_retire_cycle += 1
                    retired_in_cycle = 1
                else:
                    retired_in_cycle += 1
            return last_retire_cycle

        def new_fetch_group(pc):
            nonlocal cycle, slots_used, cond_used, group_pc
            cycle += 1
            slots_used = 0
            cond_used = 0
            group_pc = pc
            if profiling:
                charge(FETCH)
            extra = memory.instruction_latency(pc) - cfg.icache_latency
            if profiling:
                charge(ICACHE)
                comp_events[ICACHE] += 1
            if extra > 0:
                stats.icache_misses += 1
                if traced:
                    tracer.emit(obs_events.CacheMiss(
                        level="icache", pc=pc, cycle=cycle,
                        stall_cycles=extra,
                    ))
                cycle += extra

        def end_episode_unmerged(reason="resolved-unmerged"):
            nonlocal episode, cycle
            ep = episode
            episode = None
            cycle = max(cycle, ep.resolve)
            hist_episode_cycles.observe(max(0, ep.resolve - ep.start_cycle))
            if per_branch is not None:
                counters = branch_counters(ep.branch_pc)
                counters[6] += 1
                counters[10] += max(0, ep.resolve - ep.start_cycle)
            if traced:
                tracer.emit(obs_events.DpredEpisodeEnd(
                    branch_pc=ep.branch_pc,
                    cycle=cycle,
                    duration_cycles=max(0, ep.resolve - ep.start_cycle),
                    reason=reason,
                ))
            if ep.kind == "loop":
                # Post-loop consumers of loop-carried values go through
                # select-µops: ready no earlier than the resolution.
                for reg in ep.select_registers:
                    if ep.resolve > reg_ready.get(reg, 0):
                        reg_ready[reg] = ep.resolve

        def charge_fetch_slots(count):
            # Extra µops (selects) consume fetch slots, spilling into
            # additional cycles only when a group fills — charging whole
            # cycles would make tiny hammocks artificially expensive.
            nonlocal cycle, slots_used
            slots_used += count
            while slots_used >= fetch_width:
                cycle += 1
                slots_used -= fetch_width

        def end_episode_merged(merge_cycle):
            nonlocal episode, cycle, slots_used, cond_used
            ep = episode
            episode = None
            cycle = max(cycle, merge_cycle)
            stats.dpred_episodes_merged += 1
            hist_episode_cycles.observe(max(0, merge_cycle - ep.start_cycle))
            if per_branch is not None:
                counters = branch_counters(ep.branch_pc)
                counters[5] += 1
                counters[9] += ep.num_selects
                counters[10] += max(0, merge_cycle - ep.start_cycle)
            if traced:
                tracer.emit(obs_events.DpredEpisodeMerge(
                    branch_pc=ep.branch_pc,
                    cycle=cycle,
                    duration_cycles=max(0, merge_cycle - ep.start_cycle),
                    select_uops=ep.num_selects,
                ))
            stats.dpred_select_uops += ep.num_selects
            for _ in range(ep.num_selects):
                rob.append(ep.resolve)
            if ep.num_selects:
                charge_fetch_slots(ep.num_selects)
            for reg in ep.select_registers:
                ready = reg_ready.get(reg, 0)
                if ep.resolve > ready:
                    reg_ready[reg] = ep.resolve

        for pc, next_pc, address in trace_rows(trace):
            inst = instructions[pc]

            # ---- episode bookkeeping at the fetch boundary ----------
            if episode is not None:
                if cycle >= episode.resolve:
                    end_episode_unmerged()
                elif episode.kind == "hammock" and not episode.true_merged:
                    at_cfm = pc in episode.cfm_pcs or (
                        episode.return_cfm and inst.is_return
                    )
                    if at_cfm:
                        episode.true_merged = True
                        if episode.false_merged and \
                                episode.false_done_cycle <= episode.resolve:
                            end_episode_merged(episode.false_done_cycle)
                        else:
                            # True path waits for the false path, which
                            # never merges: dual-path until resolution.
                            end_episode_unmerged("true-path-waits")
                if profiling:
                    charge(DPRED_EPISODE)

            # ---- ROB slot ---------------------------------------------
            # Drain until there is space: episodes bulk-insert wrong-path
            # and select-µop entries, so a single pop per instruction
            # would quietly stop enforcing the ROB limit.
            if len(rob) - rob_head >= rob_size:
                while len(rob) - rob_head >= rob_size:
                    free_at = retire_one()
                    if free_at > cycle:
                        cycle = free_at
                        slots_used = 0
                        cond_used = 0
                if profiling:
                    charge(ROB_RETIRE)

            # ---- fetch slot -------------------------------------------
            if episode is not None and episode.half_width \
                    and cycle < episode.false_done_cycle:
                width = max(1, fetch_width // 2)
            else:
                width = fetch_width
            if slots_used >= width or (
                inst.is_conditional_branch and cond_used >= max_cond
            ):
                new_fetch_group(pc)
            fetch_cycle = cycle
            slots_used += 1
            if inst.is_conditional_branch:
                cond_used += 1
            if profiling:
                charge(FETCH)
                comp_events[FETCH] += 1

            # ---- dataflow timing --------------------------------------
            dispatch = fetch_cycle + frontend_depth
            start = dispatch
            for reg in inst.read_registers():
                ready = reg_ready.get(reg, 0)
                if ready > start:
                    start = ready
            if inst.is_load:
                if profiling:
                    charge(DATAFLOW)
                data_latency = memory.data_latency(address)
                if profiling:
                    charge(DCACHE)
                    comp_events[DCACHE] += 1
                complete = start + data_latency
            elif inst.is_store:
                if profiling:
                    charge(DATAFLOW)
                memory.data_latency(address)
                if profiling:
                    charge(DCACHE)
                    comp_events[DCACHE] += 1
                complete = start + inst.latency
            else:
                complete = start + inst.latency
            dest = inst.written_register()
            if dest is not None and dest != 0:
                reg_ready[dest] = complete
            rob.append(complete)
            last_complete = complete
            stats.retired_instructions += 1
            if profiling:
                charge(DATAFLOW)
                comp_events[DATAFLOW] += 1

            # ---- control flow -----------------------------------------
            taken = next_pc != pc + 1
            if inst.is_conditional_branch:
                stats.conditional_branches += 1
                predicted = predictor.predict(pc)
                low_conf = confidence.is_low_confidence(pc)
                mispredicted = predicted != taken
                predictor.update(pc, taken)
                confidence.update(pc, mispredicted,
                                  was_low_confidence=low_conf)
                bias.record(pc, taken)
                if mispredicted:
                    stats.mispredictions += 1
                if low_conf:
                    stats.low_confidence_branches += 1
                    if mispredicted:
                        stats.low_confidence_mispredicted += 1
                if per_branch is not None:
                    counters = branch_counters(pc)
                    counters[0] += 1
                    if mispredicted:
                        counters[1] += 1
                if profiling:
                    charge(BRANCH_PRED)
                    comp_events[BRANCH_PRED] += 1

                resolve = complete
                diverge = annotation.get(pc) if annotation else None
                entered = False
                expected_remaining = 1.0
                if diverge is not None \
                        and diverge.kind is DivergeKind.LOOP:
                    # Trip statistics update on *every* execution.
                    expected_remaining = self._observe_loop_outcome(
                        pc, taken == diverge.loop_direction
                    )
                if diverge is not None and episode is None:
                    trigger = diverge.always_predicate or low_conf
                    if trigger:
                        if diverge.kind is DivergeKind.LOOP:
                            entered = self._enter_loop_episode(
                                stats, diverge, predicted, taken,
                                fetch_cycle, resolve, expected_remaining,
                                counters=(
                                    branch_counters(pc)
                                    if per_branch is not None else None
                                ),
                            )
                            if entered:
                                episode = self._loop_episode
                        else:
                            episode = self._make_hammock_episode(
                                stats, diverge, taken, inst.target,
                                fetch_cycle, resolve, mispredicted,
                                charge=charge,
                            )
                            entered = True
                if entered:
                    ep = episode
                    if per_branch is not None:
                        counters = branch_counters(pc)
                        counters[2] += 1
                        counters[8] += ep.false_insts
                        if ep.kind == "loop":
                            counters[9] += ep.num_selects
                    if ep.mispredicted:
                        stats.dpred_flushes_avoided += 1
                        if per_branch is not None:
                            counters[3] += 1
                    # The wrong path occupies the instruction window for
                    # the whole episode (it retires as NOPs only after
                    # the diverge branch resolves) — this is what makes
                    # dynamically predicating very large hammocks
                    # unprofitable (the §7.1.1 MAX_INSTR effect).
                    stats.dpred_wrong_path_insts += ep.false_insts
                    for _ in range(ep.false_insts):
                        rob.append(ep.resolve)
                    if ep.kind == "loop" and ep.num_selects:
                        # Per-iteration select-µops consume fetch slots
                        # across the episode (Equation 18).
                        charge_fetch_slots(ep.num_selects)
                        stats.dpred_select_uops += ep.num_selects
                        for _ in range(ep.num_selects):
                            rob.append(ep.resolve)
                    if profiling:
                        charge(DPRED_EPISODE)
                        comp_events[DPRED_EPISODE] += 1
                        comp_events[WRONG_PATH] += ep.false_insts
                elif mispredicted and episode is not None \
                        and episode.kind == "loop" \
                        and episode.branch_pc == pc \
                        and diverge is not None \
                        and predicted == diverge.loop_direction:
                    # A later instance of the predicated loop branch
                    # inside the active episode: the over-iteration
                    # (late-exit) misprediction is covered — the extra
                    # iterations become NOPs instead of flushing, but
                    # they do consume fetch bandwidth and ROB space
                    # until the branch resolves.
                    stats.dpred_flushes_avoided += 1
                    episode.resolve = max(episode.resolve, resolve)
                    episode.half_width = True
                    extra = min(
                        max(1, diverge.loop_body_size) * 2,
                        self.config.dpred_max_wrong_path_insts,
                    )
                    if per_branch is not None:
                        counters = branch_counters(pc)
                        counters[3] += 1
                        counters[8] += extra
                    if traced:
                        tracer.emit(obs_events.DpredEpisodeExtend(
                            branch_pc=pc, cycle=cycle, extra_insts=extra,
                        ))
                    episode.false_insts += extra
                    stats.dpred_wrong_path_insts += extra
                    for _ in range(extra):
                        rob.append(resolve)
                    per_cycle = max(1, fetch_width // 2)
                    episode.false_done_cycle = max(
                        episode.false_done_cycle,
                        fetch_cycle + max(1, -(-extra // per_cycle)),
                    )
                    if profiling:
                        charge(DPRED_EPISODE)
                        comp_events[DPRED_EPISODE] += 1
                        comp_events[WRONG_PATH] += extra
                elif mispredicted:
                    if episode is not None:
                        # A mispredicted branch on a predicated path
                        # flushes and squashes the episode.
                        hist_episode_cycles.observe(
                            max(0, cycle - episode.start_cycle))
                        if per_branch is not None:
                            counters = branch_counters(episode.branch_pc)
                            counters[7] += 1
                            counters[10] += max(
                                0, cycle - episode.start_cycle)
                        if traced:
                            tracer.emit(obs_events.DpredEpisodeFlush(
                                branch_pc=episode.branch_pc,
                                cycle=cycle,
                                duration_cycles=max(
                                    0, cycle - episode.start_cycle),
                                flushed_by_pc=pc,
                                source="branch-mispredict",
                            ))
                        episode = None
                    stats.pipeline_flushes += 1
                    if traced:
                        tracer.emit(obs_events.PipelineFlush(
                            pc=pc, cycle=cycle,
                            source="branch-mispredict",
                        ))
                    if per_branch is not None:
                        branch_counters(pc)[4] += 1
                    cycle = max(cycle, resolve + redirect)
                    slots_used = 0
                    cond_used = 0
                if taken and not mispredicted:
                    bubble = self._btb_miss_bubble(pc, next_pc)
                    if bubble:
                        cycle += bubble
                        slots_used = 0
                        cond_used = 0
                if profiling:
                    charge(BRANCH_PRED)
            elif inst.op is Opcode.JMP:
                bubble = self._btb_miss_bubble(pc, next_pc)
                if bubble:
                    cycle += bubble
                    slots_used = 0
                    cond_used = 0
                if profiling:
                    charge(BRANCH_PRED)
                    comp_events[BRANCH_PRED] += 1
            elif inst.is_call:
                self.ras.push(pc + 1)
                bubble = self._btb_miss_bubble(pc, next_pc)
                if bubble:
                    cycle += bubble
                    slots_used = 0
                    cond_used = 0
                if profiling:
                    charge(BRANCH_PRED)
                    comp_events[BRANCH_PRED] += 1
            elif inst.is_return:
                correct = self.ras.pop_predict(next_pc)
                if not correct:
                    stats.pipeline_flushes += 1
                    if per_branch is not None:
                        # Attributed to the return pc; the per-branch
                        # snapshot in SimStats only emits conditional
                        # branches (executions > 0), so this feeds the
                        # ledger without changing the coverage report.
                        branch_counters(pc)[4] += 1
                    if traced:
                        tracer.emit(obs_events.PipelineFlush(
                            pc=pc, cycle=cycle,
                            source="return-mispredict",
                        ))
                    if episode is not None:
                        hist_episode_cycles.observe(
                            max(0, cycle - episode.start_cycle))
                        if per_branch is not None:
                            counters = branch_counters(episode.branch_pc)
                            counters[7] += 1
                            counters[10] += max(
                                0, cycle - episode.start_cycle)
                        if traced:
                            tracer.emit(obs_events.DpredEpisodeFlush(
                                branch_pc=episode.branch_pc,
                                cycle=cycle,
                                duration_cycles=max(
                                    0, cycle - episode.start_cycle),
                                flushed_by_pc=pc,
                                source="return-mispredict",
                            ))
                        episode = None
                    cycle = max(cycle, complete + redirect)
                    slots_used = 0
                    cond_used = 0
                if profiling:
                    charge(BRANCH_PRED)
                    comp_events[BRANCH_PRED] += 1

            # Taken control flow ends the fetch group.
            if taken and inst.is_control:
                slots_used = fetch_width + 1

        # ---- drain -----------------------------------------------------
        while rob_head < len(rob):
            retire_one()
        if profiling:
            charge(ROB_RETIRE)
            # Every ROB entry (true-path, wrong-path, select-µop)
            # retires exactly once, drains included — deterministic.
            comp_events[ROB_RETIRE] = len(rob)
        stats.cycles = max(last_retire_cycle, last_complete, cycle)
        stats.dcache_misses = self.memory.dcache.misses
        stats.l2_misses = self.memory.l2.misses
        if self.collect_per_branch:
            # The coverage-report snapshot keeps its original shape:
            # conditional branches only (executions > 0 — return pcs
            # accrue flushes for the ledger but never execute as
            # branches) with the legacy five keys.
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
        self._record_run_metrics(stats)
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

    def _btb_miss_bubble(self, pc, target):
        """Bubble cycles when a taken control's target misses the BTB.

        Direct targets are discovered at decode on a miss, so the front
        end loses the BTB's ``miss_bubble_cycles``; the entry is filled
        for next time.
        """
        predicted = self.btb.lookup(pc)
        if predicted == target:
            return 0
        self.btb.insert(pc, target)
        return self.btb.miss_bubble_cycles
