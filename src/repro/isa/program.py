"""Programs and functions.

A :class:`Program` is the unit the whole toolchain operates on: the
functional emulator executes it, the CFG package analyzes it, and the
diverge-branch selector annotates it.  Instructions are addressed by
their index in :attr:`Program.instructions` — the "pc".  A
:class:`Function` is a contiguous half-open index range ``[start, end)``
with a unique entry at ``start``; ``CALL`` targets must be function
entries.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CFGError
from repro.isa.instructions import Instruction, Opcode


@dataclass(frozen=True)
class Function:
    """A contiguous function: ``[start, end)`` instruction indices."""

    name: str
    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"function {self.name!r}: bad range [{self.start}, {self.end})"
            )

    def contains(self, pc):
        """True if instruction index ``pc`` lies inside this function."""
        return self.start <= pc < self.end

    @property
    def size(self):
        return self.end - self.start


class Program:
    """An immutable sequence of instructions plus function metadata.

    Parameters
    ----------
    instructions:
        The flat instruction list.  Index == pc.
    functions:
        Non-overlapping, sorted :class:`Function` ranges covering every
        instruction.  The first function is the entry function; execution
        starts at its ``start``.
    name:
        Optional program name, used in reports.
    """

    def __init__(self, instructions, functions, name="program"):
        self._instructions: Tuple[Instruction, ...] = tuple(instructions)
        self._functions: Tuple[Function, ...] = tuple(functions)
        self.name = name
        self._function_by_name: Dict[str, Function] = {}
        self._function_of_pc: List[Optional[Function]] = [None] * len(
            self._instructions
        )
        self._fingerprint: Optional[str] = None
        self._validate()

    # -- construction helpers -------------------------------------------

    def _validate(self):
        if not self._instructions:
            raise CFGError("program has no instructions")
        if not self._functions:
            raise CFGError("program has no functions")
        prev_end = 0
        for func in self._functions:
            if func.start != prev_end:
                raise CFGError(
                    f"function {func.name!r} starts at {func.start}, "
                    f"expected {prev_end} (functions must tile the program)"
                )
            if func.name in self._function_by_name:
                raise CFGError(f"duplicate function name {func.name!r}")
            self._function_by_name[func.name] = func
            for pc in range(func.start, func.end):
                self._function_of_pc[pc] = func
            prev_end = func.end
        if prev_end != len(self._instructions):
            raise CFGError(
                f"functions cover [0, {prev_end}) but program has "
                f"{len(self._instructions)} instructions"
            )
        entries = {f.start for f in self._functions}
        for pc, inst in enumerate(self._instructions):
            if inst.target is not None:
                if not 0 <= inst.target < len(self._instructions):
                    raise CFGError(
                        f"@{pc} {inst}: target {inst.target} out of range"
                    )
                if inst.op is Opcode.CALL and inst.target not in entries:
                    raise CFGError(
                        f"@{pc} {inst}: call target is not a function entry"
                    )
                if inst.op in (Opcode.BEQZ, Opcode.BNEZ, Opcode.JMP):
                    func = self._function_of_pc[pc]
                    if not func.contains(inst.target):
                        raise CFGError(
                            f"@{pc} {inst}: branch leaves function "
                            f"{func.name!r}"
                        )

    # -- access ----------------------------------------------------------

    @property
    def instructions(self):
        return self._instructions

    @property
    def functions(self):
        return self._functions

    def __len__(self):
        return len(self._instructions)

    def __getitem__(self, pc):
        return self._instructions[pc]

    @property
    def entry(self):
        """The pc where execution starts."""
        return self._functions[0].start

    def function_of(self, pc):
        """The :class:`Function` containing instruction index ``pc``."""
        if not 0 <= pc < len(self._instructions):
            raise CFGError(f"pc out of range: {pc}")
        return self._function_of_pc[pc]

    def function_named(self, name):
        try:
            return self._function_by_name[name]
        except KeyError:
            raise CFGError(f"no function named {name!r}") from None

    def conditional_branch_pcs(self):
        """All pcs holding conditional branches, in program order."""
        return [
            pc
            for pc, inst in enumerate(self._instructions)
            if inst.is_conditional_branch
        ]

    @property
    def fingerprint(self):
        """Stable content key for this program (name + disassembly).

        A 128-bit BLAKE2b digest, computed once per object.  It keys
        in-memory caches only — ``repro.compiler.AnalysisManager``'s
        shared :class:`~repro.core.analysis.ProgramAnalysis` products,
        meldcompare's melded traces and the timing simulator's result
        memo — where a collision would silently serve another
        program's entry, so it is wide enough never to collide.
        """
        if self._fingerprint is None:
            import hashlib

            text = f"{self.name}\n{self.disassemble()}"
            self._fingerprint = hashlib.blake2b(
                text.encode("utf-8"), digest_size=16
            ).hexdigest()
        return self._fingerprint

    # -- printing ----------------------------------------------------------

    def disassemble(self):
        """Multi-line textual disassembly of the whole program."""
        lines = []
        starts = {f.start: f.name for f in self._functions}
        for pc, inst in enumerate(self._instructions):
            if pc in starts:
                lines.append(f"{starts[pc]}:")
            label = f"  <{inst.label}>" if inst.label else ""
            lines.append(f"  {pc:5d}: {inst.format()}{label}")
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"Program({self.name!r}, {len(self._instructions)} insts, "
            f"{len(self._functions)} functions)"
        )
