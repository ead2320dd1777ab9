"""Cache and memory-hierarchy tests."""

import random

import pytest

from repro.errors import SimulationError
from repro.memory import Cache, MemoryHierarchy


class TestCache:
    def test_first_access_misses_then_hits(self):
        cache = Cache("t", num_sets=4, associativity=2, words_per_line=8)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(7)  # same line
        assert not cache.access(8)  # next line

    def test_lru_eviction(self):
        cache = Cache("t", num_sets=1, associativity=2, words_per_line=1)
        cache.access(0)
        cache.access(1)
        cache.access(0)      # 0 is now MRU
        cache.access(2)      # evicts 1
        assert cache.access(0)
        assert not cache.access(1)

    def test_associativity_respected(self):
        cache = Cache("t", num_sets=1, associativity=4, words_per_line=1)
        for address in range(4):
            cache.access(address)
        assert all(cache.access(a) for a in range(4))

    def test_set_mapping(self):
        cache = Cache("t", num_sets=2, associativity=1, words_per_line=1)
        cache.access(0)  # set 0
        cache.access(1)  # set 1
        assert cache.access(0) and cache.access(1)

    def test_from_kilobytes_geometry(self):
        cache = Cache.from_kilobytes("l1", 64, 4)
        # 64KB / 64B lines = 1024 lines; 4-way => 256 sets
        assert cache.num_sets == 256
        assert cache.associativity == 4
        assert cache.words_per_line == 8

    def test_contains_does_not_mutate(self):
        cache = Cache("t", num_sets=2, associativity=1, words_per_line=1)
        assert not cache.contains(3)
        assert cache.misses == 0

    def test_sets_are_made_on_first_miss(self):
        cache = Cache.from_kilobytes("l2", 1024, 8)
        assert cache._sets == {}
        assert not cache.contains(0)
        assert cache._sets == {}
        cache.access(0)
        cache.access(cache.num_sets * cache.words_per_line)
        assert list(cache._sets) == [0]
        assert cache.contains(0)

    def test_stats(self):
        cache = Cache("t", num_sets=4, associativity=2)
        cache.access(0)
        cache.access(0)
        assert cache.accesses == 2
        assert cache.miss_rate == pytest.approx(0.5)
        cache.reset()
        assert cache.accesses == 0

    def test_bad_geometry(self):
        with pytest.raises(SimulationError):
            Cache("t", num_sets=0, associativity=1)


class TestHierarchy:
    def test_data_latency_levels(self):
        mem = MemoryHierarchy(prefetch_next_line=False)
        cold = mem.data_latency(0)
        warm = mem.data_latency(0)
        assert cold == (mem.dcache_latency + mem.l2_latency
                        + mem.memory_latency)
        assert warm == mem.dcache_latency

    def test_l2_hit_after_l1_eviction(self):
        mem = MemoryHierarchy(prefetch_next_line=False)
        mem.data_latency(0)
        # Evict line 0 from the (64KB, 4-way) L1 by touching 5 aliases.
        l1_span = mem.dcache.num_sets * mem.dcache.words_per_line
        for i in range(1, 6):
            mem.data_latency(i * l1_span)
        latency = mem.data_latency(0)
        assert latency == mem.dcache_latency + mem.l2_latency

    def test_instruction_latency_levels(self):
        mem = MemoryHierarchy()
        cold = mem.instruction_latency(0)
        warm = mem.instruction_latency(0)
        assert cold > warm == mem.icache_latency

    def test_next_line_prefetch_hides_sequential_stream(self):
        mem = MemoryHierarchy(prefetch_next_line=True)
        mem.data_latency(0)  # miss, prefetches line 1
        latency = mem.data_latency(8)  # line 1: prefetched
        assert latency == mem.dcache_latency

    def test_prefetch_does_not_help_random_chase(self):
        mem = MemoryHierarchy(prefetch_next_line=True)
        mem.data_latency(0)
        # A far-away line was not prefetched.
        assert mem.data_latency(10_000) > mem.dcache_latency

    def test_code_and_data_do_not_collide_in_l2(self):
        mem = MemoryHierarchy()
        mem.instruction_latency(0)
        # data address 0 still misses L2 (code went to a distinct range)
        latency = mem.data_latency(0)
        assert latency >= mem.dcache_latency + mem.l2_latency

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_l1_pass_ahead_of_l2_walk_matches_data_latency(self, prefetch):
        """Running the L1 D half over a batch before the L2 halves of
        its misses gives the latencies and cache contents of
        data_latency, with instruction fetches sharing the L2."""
        rng = random.Random(7)
        small = dict(dcache_kb=1, l2_kb=4, prefetch_next_line=prefetch)
        whole, split = MemoryHierarchy(**small), MemoryHierarchy(**small)
        for _ in range(40):
            batch = [rng.randrange(4096) for _ in range(25)]
            pcs = [rng.randrange(2048) for _ in batch]
            expected = []
            for pc, address in zip(pcs, batch):
                whole.instruction_latency(pc)
                expected.append(whole.data_latency(address))
            hits = [split.data_l1_hit(address) for address in batch]
            got = []
            for pc, address, hit in zip(pcs, batch, hits):
                split.instruction_latency(pc)
                got.append(split.dcache_latency if hit
                           else split.data_miss_latency(address))
            assert got == expected
        for level in ("icache", "dcache", "l2"):
            a, b = getattr(whole, level), getattr(split, level)
            assert (a.hits, a.misses, a._sets) == (b.hits, b.misses, b._sets)

    def test_reset(self):
        mem = MemoryHierarchy()
        mem.data_latency(0)
        mem.reset()
        assert mem.dcache.accesses == 0
        assert mem.data_latency(0) > mem.dcache_latency
