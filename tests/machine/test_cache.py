"""Cache hierarchy tests: geometry, LRU, inclusion, streams, stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import Cache, CacheConfig, CacheHierarchy


def small_hierarchy(**kw):
    return CacheHierarchy(
        CacheConfig(size=1024, assoc=2, line=64, penalty=10),
        CacheConfig(size=4096, assoc=4, line=64, penalty=0),
        mem_penalty=100, **kw)


class TestCacheConfig:
    def test_num_sets(self):
        assert CacheConfig(64 * 1024, 4, 64).num_sets == 256

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 3, 64)


class TestCacheLRU:
    def test_hit_after_fill(self):
        c = Cache(CacheConfig(256, 2, 64))
        c.fill(0)
        assert c.lookup(0)

    def test_miss_when_empty(self):
        c = Cache(CacheConfig(256, 2, 64))
        assert not c.lookup(0)

    def test_lru_eviction_order(self):
        # one set (256B, 2-way, 64B lines -> 2 sets); use set 0 lines 0,2,4
        c = Cache(CacheConfig(256, 2, 64))
        c.fill(0)
        c.fill(2)
        c.lookup(0)          # 0 is now MRU
        victim = c.fill(4)   # evicts LRU = 2
        assert victim == 2
        assert c.contains(0) and c.contains(4) and not c.contains(2)

    def test_capacity_bound(self):
        c = Cache(CacheConfig(256, 2, 64))
        for line in range(100):
            c.fill(line)
        assert c.resident_lines <= 4   # 2 sets x 2 ways

    def test_invalidate_and_flush(self):
        c = Cache(CacheConfig(256, 2, 64))
        c.fill(1)
        c.invalidate(1)
        assert not c.contains(1)
        c.fill(1)
        c.flush()
        assert c.resident_lines == 0

    def test_stats(self):
        c = Cache(CacheConfig(256, 2, 64))
        c.lookup(0)
        c.fill(0)
        c.lookup(0)
        assert c.stats.accesses == 2
        assert c.stats.hits == 1
        assert c.stats.misses == 1
        assert c.stats.hit_rate == 0.5


class TestHierarchy:
    def test_cold_miss_costs_memory(self):
        h = small_hierarchy()
        assert h.access(0, 8) == 100

    def test_l1_hit_is_free(self):
        h = small_hierarchy()
        h.access(0, 8)
        assert h.access(0, 8) == 0
        assert h.access(32, 8) == 0      # same line

    def test_l2_hit_costs_l1_penalty(self):
        h = small_hierarchy()
        h.access(0, 8)
        # evict from tiny L1 by touching conflicting lines (same set)
        for i in range(1, 4):
            h.access(i * 1024, 8)
        extra = h.access(0, 8)
        assert extra == 10   # still in the larger L2

    def test_inclusive_victims_stay_in_l2(self):
        h = small_hierarchy()
        h.access(0, 8)
        for i in range(1, 4):
            h.access(i * 1024, 8)
        assert h.l2.contains(0)

    def test_spanning_access_touches_both_lines(self):
        h = small_hierarchy()
        h.access(60, 16)    # crosses a 64B boundary
        assert h.l1.contains(0) and h.l1.contains(1)

    def test_prefetch_warms_without_cost(self):
        h = small_hierarchy()
        h.prefetch(128)
        assert h.access(128, 8) == 0

    def test_warm_range_levels(self):
        h = small_hierarchy()
        h.warm_range(0, 128, "l1")
        assert h.access(0, 8) == 0
        h2 = small_hierarchy()
        h2.warm_range(0, 128, "l2")
        assert h2.access(0, 8) == 10

    def test_line_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy(CacheConfig(1024, 2, 64),
                           CacheConfig(4096, 4, 128))


class TestStreamPrefetcher:
    def test_sequential_misses_become_cheap(self):
        h = small_hierarchy()
        first = h.access(0, 8)
        second = h.access(64, 8)     # adjacent line: stream detected
        third = h.access(128, 8)     # prefetched ahead
        assert first == 100
        assert second == h.stream_penalty_mem
        assert third == 0

    def test_random_misses_stay_expensive(self):
        h = small_hierarchy()
        assert h.access(0, 8) == 100
        assert h.access(7 * 4096, 8) == 100
        assert h.access(3 * 4096 + 640, 8) == 100

    def test_stream_through_l2(self):
        h = small_hierarchy()
        h.warm_range(0, 4096, "l2")
        # evict some L1 lines then stream through them
        assert h.access(0, 8) in (0, 10)
        h.l1.flush()
        h.access(0, 8)
        got = h.access(64, 8)
        assert got in (0, h.stream_penalty_l2)

    def test_flush_resets(self):
        h = small_hierarchy()
        h.access(0, 8)
        h.flush()
        assert h.access(0, 8) == 100
        # the stream window is forgotten too: the line next to a
        # pre-flush miss is a cold miss, as on a fresh hierarchy
        h = small_hierarchy()
        h.access(0, 8)
        h.flush()
        assert h.access(64, 8) == 100


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
def test_property_residency_never_exceeds_capacity(lines):
    c = Cache(CacheConfig(512, 2, 64))   # 8 lines capacity
    for line in lines:
        if not c.lookup(line):
            c.fill(line)
    assert c.resident_lines <= 8


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=300))
def test_property_immediate_reaccess_hits(seq):
    """Any line accessed twice in a row must hit the second time."""
    h = small_hierarchy()
    for addr in seq:
        h.access(addr * 8, 8)
        assert h.access(addr * 8, 8) == 0
