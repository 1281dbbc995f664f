"""Set-associative cache hierarchy simulator.

Timing in this reproduction is driven by an instruction-level pipeline
model; loads and stores ask this module how far down the hierarchy their
data lives.  The model is a classic two-level, write-allocate, LRU,
inclusive hierarchy with 64-byte lines, parameterized per machine to
match the paper's Table 2 (Kunpeng 920: 64 KB L1D + 512 KB L2; Xeon Gold
6240: 32 KB L1D + 1 MB L2).

Only *extra* latency is modeled here: an L1 hit costs 0 extra cycles (the
pipeline's load-use latency already covers it), an L1 miss that hits L2
costs the L2 penalty, and an L2 miss costs the memory penalty.  Writeback
traffic of dirty lines is not timed (the compact working sets are sized
by the batch counter to stay cache-resident, so writebacks overlap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CacheConfig", "Cache", "CacheHierarchy", "CacheStats"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and penalty of one cache level."""

    size: int               # total bytes
    assoc: int              # ways per set
    line: int = 64          # line size in bytes
    penalty: int = 0        # extra cycles when the *next lower* level must
                            # service the access (charged by the hierarchy)

    def __post_init__(self) -> None:
        if self.size % (self.assoc * self.line):
            raise ValueError(
                f"cache size {self.size} not divisible by assoc*line "
                f"({self.assoc}*{self.line})")

    @property
    def num_sets(self) -> int:
        return self.size // (self.assoc * self.line)


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """One level: set-associative, LRU, allocating on both read and write.

    Per-set recency is kept in a dict (insertion-ordered), giving O(1)
    touch/evict — the simulator's innermost data structure, kept lean per
    the profiling guide.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: list[dict[int, None]] = [dict() for _ in range(config.num_sets)]
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self.stats = CacheStats()

    # Set index is ``line_addr % num_sets``, written out at each use
    # (a helper call per access is measurable here).  For power-of-two
    # set counts it equals ``line_addr & (num_sets - 1)``.

    def lookup(self, line_addr: int) -> bool:
        """Touch a line; True if present (and refresh LRU), False if miss."""
        s = self._sets[line_addr % self._num_sets]
        self.stats.accesses += 1
        if line_addr in s:
            self.stats.hits += 1
            del s[line_addr]
            s[line_addr] = None
            return True
        return False

    def fill(self, line_addr: int) -> int | None:
        """Insert a line, evicting LRU if needed; returns the victim line."""
        s = self._sets[line_addr % self._num_sets]
        victim = None
        if line_addr in s:
            del s[line_addr]
        elif len(s) >= self._assoc:
            victim = next(iter(s))
            del s[victim]
        s[line_addr] = None
        return victim

    def contains(self, line_addr: int) -> bool:
        """Presence check without touching LRU or stats."""
        return line_addr in self._sets[line_addr % self._num_sets]

    def invalidate(self, line_addr: int) -> None:
        self._sets[line_addr % self._num_sets].pop(line_addr, None)

    def flush(self) -> None:
        for s in self._sets:
            s.clear()

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)


class CacheHierarchy:
    """Two-level inclusive hierarchy plus flat memory behind it.

    A next-line *stream prefetcher* sits beside L1: when a miss lands
    adjacent to a recently missed line, the hierarchy treats it as part
    of a detected stream — charging the (much smaller) in-flight stream
    penalty instead of the full round trip, and pulling the following
    lines in.  Without this, every sequential operand walk in the
    simulator would be latency-bound per line, which real cores' L1/L2
    prefetchers long ago made untrue; with it, streaming is
    bandwidth-shaped for compact kernels and baselines alike.
    """

    STREAM_WINDOW = 64        # recent-miss lines remembered
    STREAM_AHEAD = 2          # lines pulled in ahead of a stream

    def __init__(self, l1: CacheConfig, l2: CacheConfig,
                 mem_penalty: int = 120, stream_penalty_mem: int = 10,
                 stream_penalty_l2: int = 4) -> None:
        self.l1 = Cache(l1)
        self.l2 = Cache(l2)
        self.mem_penalty = int(mem_penalty)
        self.stream_penalty_mem = int(stream_penalty_mem)
        self.stream_penalty_l2 = int(stream_penalty_l2)
        if l1.line != l2.line:
            raise ValueError("L1 and L2 must share a line size")
        self.line = l1.line
        self._recent_misses: dict[int, None] = {}

    def _lines(self, addr: int, size: int) -> range:
        first = addr // self.line
        last = (addr + max(size, 1) - 1) // self.line
        return range(first, last + 1)

    def _note_miss(self, line: int) -> None:
        rm = self._recent_misses
        if line in rm:
            del rm[line]
        rm[line] = None
        if len(rm) > self.STREAM_WINDOW:
            del rm[next(iter(rm))]

    def _is_stream(self, line: int) -> bool:
        return (line - 1 in self._recent_misses
                or line - 2 in self._recent_misses)

    def access(self, addr: int, size: int, write: bool = False) -> int:
        """Charge one load/store touching ``size`` bytes at ``addr``.

        Returns the extra cycles beyond an L1 hit (max over the lines the
        access spans; adjacent-line penalties overlap in hardware).
        """
        extra = 0
        line_size = self.line
        l1_lookup = self.l1.lookup
        last = (addr + (size if size > 1 else 1) - 1) // line_size
        for line in range(addr // line_size, last + 1):
            if l1_lookup(line):
                continue
            streaming = self._is_stream(line)
            if self.l2.lookup(line):
                pen = self.stream_penalty_l2 if streaming \
                    else self.l1.config.penalty
            else:
                pen = self.stream_penalty_mem if streaming \
                    else self.mem_penalty
                self.l2.fill(line)
            if pen > extra:
                extra = pen
            self._note_miss(line)
            victim = self.l1.fill(line)
            # inclusive hierarchy: L1 victims stay resident in L2
            if victim is not None and not self.l2.contains(victim):
                self.l2.fill(victim)
            if streaming:
                for ahead in range(1, self.STREAM_AHEAD + 1):
                    nxt = line + ahead
                    if not self.l1.contains(nxt):
                        if not self.l2.contains(nxt):
                            self.l2.fill(nxt)
                        self.l1.fill(nxt)
                        self._note_miss(nxt)
        return extra

    def prefetch(self, addr: int, size: int = 1) -> None:
        """Warm lines without charging latency (models PRFM far ahead of use)."""
        for line in self._lines(addr, size):
            if not self.l1.contains(line):
                if not self.l2.contains(line):
                    self.l2.fill(line)
                self.l1.fill(line)

    def warm_range(self, addr: int, size: int, level: str = "l1") -> None:
        """Mark a byte range resident (e.g. 'the packed buffers are in L1')."""
        for line in self._lines(addr, size):
            if level in ("l1", "l2"):
                self.l2.fill(line)
            if level == "l1":
                self.l1.fill(line)

    def flush(self) -> None:
        """Empty both levels and forget the stream-prefetcher window."""
        self.l1.flush()
        self.l2.flush()
        self._recent_misses.clear()
