"""Problem grids: the full grid the benchmark measures and a reduced smoke
grid its own tests run, side by side so the two cannot drift apart."""

from __future__ import annotations

from dataclasses import dataclass

from repro.types import GemmProblem, TrsmProblem


@dataclass(frozen=True)
class Grid:
    bulk: tuple            # lib_bulk: warm calls, one round = the whole list
    cold: tuple            # lib_cold_shapes: first-seen problems per rep
    tune: tuple            # tune_sweep: shapes tuned per rep
    tune_digest: str       # sha256 of the sweep's canonical TuningDB JSON
    setups: int            # lib_bulk / serve_closed set-ups per run
    serve_outstanding: int
    serve_pool: int        # pre-generated requests, one repetition
    serve_warmup: int      # warm-up requests per set-up
    serve_tenants: tuple = ("t0", "t1", "t2", "t3")


def _bulk(scale: int) -> tuple:
    return (
        GemmProblem(8, 8, 8, "s", batch=16384 // scale),
        GemmProblem(3, 3, 3, "s", batch=16384 // scale),   # no-pack path
        GemmProblem(33, 33, 33, "d", batch=512 // scale),  # edge tiles
        GemmProblem(6, 6, 6, "z", "N", "T", batch=4096 // scale),
        TrsmProblem(16, 16, "s", batch=4096 // scale),     # LNLN
        TrsmProblem(8, 8, "d", "L", "U", "T", "N", batch=8192 // scale),
    )


_GEMM_SIZES = ((1, 1, 1), (3, 5, 2), (4, 4, 4), (7, 9, 5), (8, 8, 8),
               (12, 6, 10), (16, 16, 16), (20, 13, 7), (5, 24, 11),
               (33, 8, 3), (9, 33, 17), (24, 24, 24))
_TRSM_SIZES = ((1, 3), (2, 2), (4, 7), (5, 5), (8, 8), (11, 4), (13, 16),
               (16, 16), (6, 21), (24, 9), (33, 5), (17, 33))
_COLD_BATCHES = (1, 5, 16, 31, 64, 48, 7, 40)
_TRSM_MODES = {"LNLN": ("L", "L", "N", "N"), "LTUN": ("L", "U", "T", "N")}


def _cold(per_combo: int, count: int) -> tuple:
    """routine x mode x dtype combos, each with sizes from the small,
    middle and large thirds of the size table (so no dtype gets only
    small shapes), and batches that are partly not lane multiples."""
    out = []
    combo = 0
    for routine, modes in (("gemm", ("NN", "TT")), ("trsm", ("LNLN", "LTUN"))):
        for mode in modes:
            for dt in "sdcz":
                for j in range(per_combo):
                    idx = (combo + 4 * j) % 12
                    batch = _COLD_BATCHES[(3 * combo + j) % 8]
                    if routine == "gemm":
                        m, n, k = _GEMM_SIZES[idx]
                        out.append(GemmProblem(m, n, k, dt, mode[0], mode[1],
                                               batch=batch))
                    else:
                        m, n = _TRSM_SIZES[idx]
                        side, uplo, trans, diag = _TRSM_MODES[mode]
                        out.append(TrsmProblem(m, n, dt, side, uplo, trans,
                                               diag, batch=batch))
                combo += 1
    # an odd count puts the median over shapes on one shape rather than
    # between two
    return tuple(out[:count])


def _tune(sizes_gemm, sizes_trsm, dtypes) -> tuple:
    out = []
    for dt in dtypes:
        out += [GemmProblem(n, n, n, dt, batch=4096) for n in sizes_gemm]
        out += [TrsmProblem(n, n, dt, batch=4096) for n in sizes_trsm]
    return tuple(out)


FULL = Grid(
    bulk=_bulk(1),
    cold=_cold(3, 47),
    tune=_tune((3, 5, 8, 11), (4, 7, 12), "sdcz")
    + (GemmProblem(4, 8, 6, "d", "T", "N", batch=1000),),
    tune_digest="5505066ac6bde35fda1de23a3c918963"
                "818072ddf30a3360f25920cdd1e36311",
    setups=5,
    serve_outstanding=128,
    serve_pool=2048,
    serve_warmup=2048,
)

SMOKE = Grid(
    bulk=_bulk(64),
    cold=_cold(1, 5),
    tune=_tune((3,), (4,), "dz") + (GemmProblem(2, 3, 4, "s", batch=64),),
    tune_digest="bb2c118a07603b7939a9b3e91d43b7df"
                "154a43602734c86b0f6eef474a389e01",
    setups=2,
    serve_outstanding=16,
    serve_pool=128,
    serve_warmup=64,
)

#: set-up warm-ups, chosen outside both grids so they never make a
#: measured problem warm
COLD_WARMUP = GemmProblem(2, 2, 2, "s", batch=4)
TUNE_WARMUP = GemmProblem(2, 2, 2, "d", batch=64)
