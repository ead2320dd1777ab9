"""Functional (ISA-level) execution.

The emulator executes a :class:`repro.isa.Program` to completion and can
record the dynamic instruction trace.  The trace is the ground truth the
profiler (:mod:`repro.profiling`) and the trace-driven timing simulator
(:mod:`repro.uarch`) consume — it plays the role of the "execution-driven"
part of the paper's simulator at a fidelity Python can afford.
"""

from repro.emulator.state import ArchState, MemoryImage
from repro.emulator.trace import NO_ADDRESS, Trace, TraceView, trace_rows
from repro.emulator.emulator import (
    DynamicInstruction,
    Emulator,
    RunResult,
    execute,
)

__all__ = [
    "ArchState",
    "DynamicInstruction",
    "Emulator",
    "MemoryImage",
    "NO_ADDRESS",
    "RunResult",
    "Trace",
    "TraceView",
    "execute",
    "trace_rows",
]
