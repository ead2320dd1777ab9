"""Architectural state for functional execution, and the immutable
input memory image it starts from."""

from array import array
from bisect import bisect_left
from collections.abc import ItemsView, Mapping, ValuesView

import numpy as np

from repro.errors import EmulationError
from repro.isa.registers import NUM_REGISTERS, ZERO_REGISTER


#: Stands in for a missing word when comparing against a mapping.
_ABSENT = object()


class MemoryImage(Mapping):
    """An immutable sparse word-memory image: word address -> value.

    Two parallel ``array('q')`` columns, addresses strictly increasing —
    16 bytes a word instead of a ``dict`` entry plus two int objects
    (~100 bytes), which matters because every cached workload holds
    its input image.  It is a read-only :class:`~collections.abc.Mapping`
    (``image[addr]``, ``len``, ``items()``, ``==`` against images or
    dicts); iteration is in address order, which is what
    :func:`repro.exec.artifact_cache.memory_fingerprint` hashes, so the
    fingerprint of an image equals that of the equivalent ``dict``.
    :class:`ArchState` expands it into a mutable ``dict`` once per
    emulation.
    """

    __slots__ = ("_addresses", "_values")

    def __init__(self, addresses=(), values=()):
        addresses = array("q", addresses)
        values = array("q", values)
        if len(addresses) != len(values):
            raise ValueError(
                f"{len(addresses)} addresses but {len(values)} values"
            )
        if len(addresses) > 1 and not np.all(
                np.diff(np.frombuffer(addresses, dtype=np.int64)) > 0):
            raise ValueError("addresses must be strictly increasing")
        object.__setattr__(self, "_addresses", addresses)
        object.__setattr__(self, "_values", values)

    @classmethod
    def from_dict(cls, memory):
        """The image of a ``{address: value}`` mapping."""
        addresses = array("q", sorted(memory))
        return cls(addresses, map(memory.__getitem__, addresses))

    def __setattr__(self, name, value):
        raise AttributeError("MemoryImage is immutable")

    def __delattr__(self, name):
        raise AttributeError("MemoryImage is immutable")

    def __reduce__(self):
        return MemoryImage, (self._addresses, self._values)

    def __getitem__(self, address):
        index = bisect_left(self._addresses, address)
        if index < len(self._addresses) \
                and self._addresses[index] == address:
            return self._values[index]
        raise KeyError(address)

    def __iter__(self):
        return iter(self._addresses)

    def __len__(self):
        return len(self._addresses)

    def items(self):
        return _ImageItems(self)

    def values(self):
        return _ImageValues(self)

    def __eq__(self, other):
        if isinstance(other, MemoryImage):
            return self._addresses == other._addresses \
                and self._values == other._values
        if not isinstance(other, Mapping):
            return NotImplemented
        # Word by word: no dict of the whole image is built.
        return len(self) == len(other) and all(
            other.get(address, _ABSENT) == value
            for address, value in self.items()
        )

    def __repr__(self):
        return f"MemoryImage({len(self)} words)"


class _ImageItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping._addresses, self._mapping._values)


class _ImageValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping._values)


class ArchState:
    """Registers, word-addressed memory, and the call stack.

    Memory is a sparse ``dict`` mapping word address -> integer value;
    uninitialized words read as zero.  The initial ``memory`` may be a
    ``dict`` or a :class:`MemoryImage`; either way the state gets its
    own copy.  The call stack holds return pcs for ``CALL``/``RET`` (an
    architectural link stack — this keeps the ISA minimal; the timing
    model separately models a return address stack *predictor*).
    """

    __slots__ = ("regs", "memory", "call_stack")

    def __init__(self, memory=None):
        self.regs = [0] * NUM_REGISTERS
        self.memory = dict(memory.items()) if memory else {}
        self.call_stack = []

    def read_reg(self, index):
        return self.regs[index]

    def write_reg(self, index, value):
        """Write a register; writes to the zero register are discarded."""
        if index != ZERO_REGISTER:
            self.regs[index] = value

    def load(self, address):
        return self.memory.get(address, 0)

    def store(self, address, value):
        self.memory[address] = value

    def push_return(self, pc):
        if len(self.call_stack) > 10_000:
            raise EmulationError("call stack overflow (runaway recursion?)")
        self.call_stack.append(pc)

    def pop_return(self):
        if not self.call_stack:
            raise EmulationError("RET with empty call stack")
        return self.call_stack.pop()

    def copy(self):
        """Deep-enough copy for checkpoint/restore in tests."""
        clone = ArchState()
        clone.regs = list(self.regs)
        clone.memory = dict(self.memory)
        clone.call_stack = list(self.call_stack)
        return clone
