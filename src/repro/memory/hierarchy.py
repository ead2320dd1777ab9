"""The I-cache / D-cache / L2 / memory hierarchy of Table 1.

Latencies (cycles): L1 I 2, L1 D 2, unified L2 10, memory 300 minimum.
The hierarchy exposes two queries the timing model uses:

- :meth:`instruction_latency` — latency to fetch the line holding a pc;
- :meth:`data_latency` — latency for a load/store to a word address.

Both walk the levels, allocating on miss, and return the total access
latency.  Bank/bus contention is not modelled (documented limitation);
the 300-cycle memory latency dominates where it matters.

:meth:`data_latency` is also available in its two halves,
:meth:`data_l1_hit` (L1 D only) and :meth:`data_miss_latency` (the
L2 walk of an L1 D miss).  The L1 D is private to the data side, so a
caller may run the first half over many accesses ahead of the second,
as long as each half keeps trace order.
"""

from repro.memory.cache import Cache

#: Instructions per I-cache line (64B line / 4B instruction encoding).
INSTRUCTIONS_PER_LINE = 16


class MemoryHierarchy:
    """Two L1s over a unified L2 over fixed-latency memory."""

    def __init__(
        self,
        icache_kb=64,
        icache_assoc=2,
        icache_latency=2,
        dcache_kb=64,
        dcache_assoc=4,
        dcache_latency=2,
        l2_kb=1024,
        l2_assoc=8,
        l2_latency=10,
        memory_latency=300,
        prefetch_next_line=True,
    ):
        self.prefetch_next_line = prefetch_next_line
        self.icache = Cache.from_kilobytes(
            "il1", icache_kb, icache_assoc,
            line_bytes=64, word_bytes=64 // INSTRUCTIONS_PER_LINE,
        )
        self.dcache = Cache.from_kilobytes("dl1", dcache_kb, dcache_assoc)
        self.l2 = Cache.from_kilobytes("l2", l2_kb, l2_assoc)
        self.icache_latency = icache_latency
        self.dcache_latency = dcache_latency
        self.l2_latency = l2_latency
        self.memory_latency = memory_latency

    def instruction_latency(self, pc):
        """Fetch latency for the I-cache line containing ``pc``."""
        if self.icache.access(pc):
            return self.icache_latency
        if self.l2.access(self._iline_to_l2_address(pc)):
            return self.icache_latency + self.l2_latency
        return self.icache_latency + self.l2_latency + self.memory_latency

    def data_latency(self, address):
        """Access latency for a load/store to word ``address``."""
        # Not written as the two halves below: the scalar test oracle
        # calls this per access, and the batch replay's >= 5x speedup
        # benchmark is timed against that oracle.
        if self.dcache.access(address):
            return self.dcache_latency
        # Miss: a simple next-line prefetcher hides sequential streams
        # (per-iteration input arrays) without helping pointer chases.
        if self.prefetch_next_line:
            next_line = address + self.dcache.words_per_line
            self.dcache.access(next_line)
            self.l2.access(next_line)
        if self.l2.access(address):
            return self.dcache_latency + self.l2_latency
        return self.dcache_latency + self.l2_latency + self.memory_latency

    def data_l1_hit(self, address):
        """The L1 D half of :meth:`data_latency`; True on a hit.

        A miss also fills the prefetched next line into the L1 D.
        """
        if self.dcache.access(address):
            return True
        if self.prefetch_next_line:
            self.dcache.access(address + self.dcache.words_per_line)
        return False

    def data_miss_latency(self, address):
        """The L2 half of :meth:`data_latency`, for an L1 D miss."""
        if self.prefetch_next_line:
            self.l2.access(address + self.dcache.words_per_line)
        if self.l2.access(address):
            return self.dcache_latency + self.l2_latency
        return self.dcache_latency + self.l2_latency + self.memory_latency

    def _iline_to_l2_address(self, pc):
        # Map instruction lines into a distinct L2 address space half so
        # code and data do not alias in the unified L2.
        return (1 << 40) + pc // INSTRUCTIONS_PER_LINE * self.l2.words_per_line

    def reset(self):
        self.icache.reset()
        self.dcache.reset()
        self.l2.reset()
