"""Kernel registry: the install-time stage's output store.

Holds every generated and validated kernel, in the generators' template
order and keyed by its full parameter tuple, and exposes the paper's
Table 1 inventory for verification.  The install-time stage
(:meth:`KernelRegistry.install`) pre-generates the whole Table 1
family; the run-time stage asks for kernels by exact shape and gets
cache hits for everything the inventory covers (and transparent
generation for anything else, e.g. stride-specialized TRSM variants).
Only the cycle model schedules them (:meth:`Engine.scheduled
<repro.runtime.engine.Engine.scheduled>`); everything else runs them as
generated.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .. import obs
from ..machine.machines import MachineConfig
from ..machine.program import Program
from ..types import BlasDType
from .cmar import max_triangular_order, optimal_gemm_kernel
from .generator_gemm import generate_gemm_kernel
from .generator_trsm import generate_trsm_rect, generate_trsm_triangular
from .validate import assert_valid

__all__ = ["KernelRegistry", "table1_inventory"]


def table1_inventory() -> dict[str, dict[str, list[tuple[int, int]]]]:
    """The paper's Table 1, as data.

    Keys are routine families; ``main`` is the CMAR-optimal kernel and
    ``edge`` the generated edge sizes.  TRSM rows are the rectangular
    kernels; the triangular kernels (``tri``) are "all triangular cases
    ... when matrix A can all be placed in registers".
    """
    real_gemm_edges = ([(4, n) for n in (1, 2, 3)]
                       + [(3, n) for n in (1, 2, 3, 4)]
                       + [(2, n) for n in (1, 2, 3, 4)]
                       + [(1, n) for n in (1, 2, 3, 4)])
    cplx_gemm_edges = [(3, 1), (2, 1), (2, 2), (1, 1), (1, 2)]
    return {
        "sgemm/dgemm": {"main": [(4, 4)], "edge": real_gemm_edges},
        "cgemm/zgemm": {"main": [(3, 2)], "edge": cplx_gemm_edges},
        "strsm/dtrsm": {"main": [(4, 4)],
                        "edge": [(3, 4), (2, 4), (1, 4)],
                        "tri": [(m, m) for m in range(1, 6)]},
        "ctrsm/ztrsm": {"main": [(2, 2)],
                        "edge": [(1, 2)],
                        "tri": [(m, m) for m in range(1, 4)]},
    }


@dataclass
class KernelRegistry:
    """Generated-kernel cache for one machine."""

    machine: MachineConfig

    _cache: dict[tuple, Program] = field(default_factory=dict, repr=False)
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False, compare=False)
    """Serializes generation so concurrent callers (the serve scheduler
    shares one registry across threads) never race ``_cache`` writes or
    generate the same kernel twice.  RLock: ``install`` and the TRSM
    generators call back into ``_get`` for sub-kernels."""

    # -- derived configuration ----------------------------------------

    def main_gemm_kernel(self, dtype: "BlasDType | str") -> tuple[int, int]:
        """CMAR-optimal (mc, nc) for this machine's register file."""
        return optimal_gemm_kernel(dtype, self.machine.num_vregs)

    def max_tri(self, dtype: "BlasDType | str") -> int:
        """Largest in-register TRSM triangular order (paper: 5 / 3)."""
        return max_triangular_order(dtype, self.machine.num_vregs)

    def trsm_panel_width(self, dtype: "BlasDType | str") -> int:
        """Rectangular-kernel column count: Table 1's fixed nc."""
        return 2 if BlasDType.from_any(dtype).is_complex else 4

    def trsm_block_main(self, dtype: "BlasDType | str") -> int:
        """Main diagonal-block size of the blocked decomposition."""
        return 2 if BlasDType.from_any(dtype).is_complex else 4

    # -- kernel accessors ----------------------------------------------

    def _get(self, key: tuple, make) -> Program:
        prog = self._cache.get(key)
        if prog is None:
            with self._lock:
                prog = self._cache.get(key)  # lost the race: reuse theirs
                if prog is None:
                    t0 = obs.tick()
                    with obs.span("codegen.generate", kernel=str(key)):
                        prog = make()
                        assert_valid(prog, self.machine)
                    obs.count("codegen.generated")
                    obs.tock("codegen.generate_ms", t0)
                    self._cache[key] = prog
                    return prog
        obs.count("codegen.cache_hits")
        return prog

    def gemm_kernel(self, mc: int, nc: int, k: int, dtype: "BlasDType | str",
                    alpha: complex = 1.0, beta: complex = 1.0) -> Program:
        """The (mc x nc x K) compact GEMM kernel, generated on first use."""
        dt = BlasDType.from_any(dtype)
        key = ("gemm", dt.value, mc, nc, k, complex(alpha), complex(beta))
        return self._get(key, lambda: generate_gemm_kernel(
            mc, nc, k, dt, self.machine, alpha, beta))

    def trsm_triangular(self, m: int, n: int, dtype: "BlasDType | str",
                        unit_diag: bool = False,
                        col_stride_bytes: int | None = None) -> Program:
        """The order-m triangular solve kernel over an n-column panel."""
        dt = BlasDType.from_any(dtype)
        key = ("trsm_tri", dt.value, m, n, unit_diag, col_stride_bytes)
        return self._get(key, lambda: generate_trsm_triangular(
            m, n, dt, self.machine, unit_diag, col_stride_bytes))

    def trsm_rect(self, mc: int, nc: int, k: int, dtype: "BlasDType | str",
                  x_col_stride_bytes: int) -> Program:
        """The FMLS rectangular update kernel (Eq. 4)."""
        dt = BlasDType.from_any(dtype)
        key = ("trsm_rect", dt.value, mc, nc, k, x_col_stride_bytes)
        return self._get(key, lambda: generate_trsm_rect(
            mc, nc, k, dt, self.machine, x_col_stride_bytes))

    # -- install-time sweep ---------------------------------------------

    def install(self, dtypes=("s", "d", "c", "z"), k_values=(1, 2, 4, 8),
                alpha: complex = 1.0, beta: complex = 1.0) -> int:
        """Pre-generate the Table 1 kernel family.

        K is a free parameter of the GEMM family (the paper unrolls per
        input K at install time); callers pass the K values they expect.
        Returns the number of kernels now cached.
        """
        inv = table1_inventory()
        for dt in dtypes:
            bdt = BlasDType.from_any(dt)
            fam = "cgemm/zgemm" if bdt.is_complex else "sgemm/dgemm"
            for mc, nc in inv[fam]["main"] + inv[fam]["edge"]:
                for k in k_values:
                    self.gemm_kernel(mc, nc, k, bdt, alpha, beta)
            tfam = "ctrsm/ztrsm" if bdt.is_complex else "strsm/dtrsm"
            nc_panel = self.trsm_panel_width(bdt)
            for m in range(1, self.max_tri(bdt) + 1):
                self.trsm_triangular(m, nc_panel, bdt)
            for mc, nc in inv[tfam]["main"] + inv[tfam]["edge"]:
                for k in range(1, self.trsm_block_main(bdt) + 1):
                    # stride specialized per problem; install a canonical one
                    self.trsm_rect(mc, nc, k, bdt,
                                   x_col_stride_bytes=8 * self.machine.lanes(bdt)
                                   * bdt.real_itemsize)
        return len(self._cache)

    def __len__(self) -> int:
        return len(self._cache)

    # -- reporting -------------------------------------------------------

    def report(self) -> str:
        """Human-readable inventory of every cached kernel.

        Columns: name, instruction count, FP ops, memory ops, the
        achieved FP:mem ratio next to the CMAR bound — the quickest way
        to sanity-check a freshly generated family.
        """
        lines = [f"KernelRegistry[{self.machine.name}]: "
                 f"{len(self._cache)} kernels",
                 f"{'kernel':<44}{'instrs':>7}{'fp':>6}{'mem':>6}"
                 f"{'fp/mem':>8}"]
        for key in sorted(self._cache, key=str):
            prog = self._cache[key]
            fp, mem = prog.num_fp, prog.num_mem
            ratio = fp / mem if mem else float("inf")
            lines.append(f"{prog.name:<44}{len(prog):>7}{fp:>6}{mem:>6}"
                         f"{ratio:>8.2f}")
        return "\n".join(lines)
