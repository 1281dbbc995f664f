"""Execution-plan generation (paper Section 5.3).

A plan is the input-independent command queue for one problem shape:
which kernels run, in what order, reading and writing which byte
offsets of which buffers.  Offsets depend only on shapes, so a plan is
generated once per problem configuration and reused for every batch —
the paper's "it only generates this execution plan at the beginning ...
these overheads are negligible when apportioned to each matrix".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codegen.registry import KernelRegistry
from ..codegen.tiling import decompose_dim, tile_starts
from ..errors import PlanError
from ..layout.padding import padded_count
from ..machine.machines import MachineConfig
from ..machine.program import Program
from ..packing.cost import PackCost
from ..packing.trsm_pack import NormalizedTrsm
from ..types import BlasDType, GemmProblem, Trans, TrsmProblem
from .batch_counter import (gemm_group_working_bytes, groups_per_round,
                            trsm_group_working_bytes)
from .pack_selector import select_gemm_packing, select_trsm_packing

__all__ = ["BufferSpec", "KernelCall", "ExecutionPlan",
           "build_gemm_plan", "build_trsm_plan"]


@dataclass(frozen=True)
class BufferSpec:
    """One logical buffer the plan addresses.

    ``warm`` is the batch counter's residency verdict, consumed by the
    timing engine: packed buffers a round fits in L1 are simulated warm;
    origin C (and origin A/B on the no-pack path) start cold.
    """

    name: str
    group_stride_bytes: int
    warm: str = "cold"            # "l1" | "l2" | "cold"


@dataclass(frozen=True)
class KernelCall:
    """One kernel invocation: program + per-group byte offsets.

    ``c_offsets`` feeds the per-column output pointers PC(j); ``x_off``
    feeds the TRSM triangular kernel's in-place store alias PX.
    """

    program: Program
    a_buf: str
    a_off: int
    b_buf: str
    b_off: int
    c_buf: str = ""
    c_offsets: tuple[int, ...] = ()
    x_buf: str | None = None
    x_off: int = 0


@dataclass
class ExecutionPlan:
    """The full command queue plus the decisions that produced it."""

    kind: str                     # "gemm" | "trsm"
    problem: "GemmProblem | TrsmProblem"
    machine: MachineConfig
    calls: list[KernelCall]
    buffers: dict[str, BufferSpec]
    pack_cost: PackCost           # analytic, whole batch
    unpack_cost: PackCost
    groups: int
    groups_per_round: int
    meta: dict = field(default_factory=dict)
    schedule: bool = True
    """Does the cycle model time the kernel optimizer's order (paper
    Fig. 5) or the generators' template order?  Execution is the same
    either way: it replays the calls' programs as generated."""

    @property
    def kernels_used(self) -> list[str]:
        return sorted({c.program.name for c in self.calls})

    def describe(self) -> str:
        """Human-readable plan summary (examples print this)."""
        lines = [f"ExecutionPlan[{self.kind}] for {self.problem}",
                 f"  machine: {self.machine.name}",
                 f"  groups: {self.groups} "
                 f"(batch rounds of {self.groups_per_round} groups)",
                 f"  packing: {self.meta.get('packing')}",
                 f"  kernel calls per group: {len(self.calls)}"]
        for name in self.kernels_used:
            lines.append(f"    - {name}")
        return "\n".join(lines)


def _elem_bytes(dtype: BlasDType, machine: MachineConfig) -> int:
    ncomp = 2 if dtype.is_complex else 1
    return machine.lanes(dtype) * ncomp * dtype.real_itemsize


def build_gemm_plan(problem: GemmProblem, machine: MachineConfig,
                    registry: KernelRegistry,
                    force_pack: bool = False,
                    main_override: tuple[int, int] | None = None,
                    tuned_pack: "bool | None" = None,
                    schedule: bool = True) -> ExecutionPlan:
    """Plan a compact GEMM.

    ``force_pack`` disables the no-pack fast path (ablation benchmark);
    ``main_override`` forces a different main kernel preference for the
    tile decomposition (the tuner sweeps these); ``tuned_pack`` applies
    a TuningDB pack override; ``schedule`` is the plan's field of that
    name.
    """
    p = problem
    dt = p.dtype
    eb = _elem_bytes(dt, machine)
    if main_override is not None:
        mc_main, nc_main = main_override
    else:
        mc_main, nc_main = registry.main_gemm_kernel(dt)
    m_tiles = decompose_dim(p.m, mc_main)
    n_tiles = decompose_dim(p.n, nc_main)
    m_starts = tile_starts(m_tiles)
    n_starts = tile_starts(n_tiles)

    decision = select_gemm_packing(p, m_tiles, n_tiles, force_pack,
                                   tuned_pack)
    a_nopack = not decision.pack_a
    b_nopack = not decision.pack_b

    # panel offsets within a packed group (prefix sums of tile panels)
    a_tile_offs, pos = [], 0
    for mt in m_tiles:
        a_tile_offs.append(pos)
        pos += mt * p.k * eb
    a_stride = pos
    b_tile_offs, pos = [], 0
    for nt in n_tiles:
        b_tile_offs.append(pos)
        pos += nt * p.k * eb
    b_stride = pos

    lanes = machine.lanes(dt)
    groups = padded_count(p.batch, lanes) // lanes
    work = gemm_group_working_bytes(p, machine)
    gpr = groups_per_round(work, machine, total_groups=groups)
    packed_warm = "l1" if work * min(gpr, groups) <= machine.l1.size else "l2"

    a_buf = "A" if a_nopack else "packA"
    b_buf = "B" if b_nopack else "packB"

    calls: list[KernelCall] = []
    for jb, (nt, ns) in enumerate(zip(n_tiles, n_starts)):
        for ib, (mt, ms) in enumerate(zip(m_tiles, m_starts)):
            prog = registry.gemm_kernel(mt, nt, p.k, dt, p.alpha, p.beta)
            c_offs = tuple(((ns + j) * p.m + ms) * eb for j in range(nt))
            calls.append(KernelCall(
                program=prog,
                a_buf=a_buf, a_off=a_tile_offs[ib],
                b_buf=b_buf, b_off=b_tile_offs[jb],
                c_buf="C", c_offsets=c_offs,
            ))

    # one BufferSpec per operand, built once with its final residency:
    # kernels stream straight from A/B only on the no-pack path, where
    # those buffers inherit the packed-buffer warmth verdict
    a_shape = p.a_shape
    b_shape = p.b_shape
    buffers = {
        "A": BufferSpec("A", a_shape[0] * a_shape[1] * eb,
                        warm=packed_warm if a_nopack else "cold"),
        "B": BufferSpec("B", b_shape[0] * b_shape[1] * eb,
                        warm=packed_warm if b_nopack else "cold"),
        "C": BufferSpec("C", p.m * p.n * eb, warm="cold"),
    }
    if not a_nopack:
        buffers["packA"] = BufferSpec("packA", a_stride, warm=packed_warm)
    if not b_nopack:
        buffers["packB"] = BufferSpec("packB", b_stride, warm=packed_warm)

    pack = PackCost(ew=dt.real_itemsize)
    if not a_nopack:
        nb = a_stride * groups
        pack = pack + PackCost(bytes_read=nb, bytes_written=nb,
                               panels=len(m_tiles) * groups,
                               ew=dt.real_itemsize)
    if not b_nopack:
        nb = b_stride * groups
        pack = pack + PackCost(bytes_read=nb, bytes_written=nb,
                               panels=len(n_tiles) * groups,
                               ew=dt.real_itemsize)

    return ExecutionPlan(
        kind="gemm", problem=p, machine=machine, calls=calls,
        buffers=buffers, pack_cost=pack,
        unpack_cost=PackCost(ew=dt.real_itemsize),
        groups=groups, groups_per_round=gpr, schedule=schedule,
        meta={
            "m_tiles": m_tiles, "n_tiles": n_tiles,
            "main_kernel": (mc_main, nc_main),
            "packing": decision.description,
            "pack_reasons": {"A": decision.reason_a,
                             "B": decision.reason_b},
        },
    )


def build_trsm_plan(problem: TrsmProblem, machine: MachineConfig,
                    registry: KernelRegistry,
                    force_pack: bool = False,
                    tuned_pack: "bool | None" = None,
                    schedule: bool = True) -> ExecutionPlan:
    """Plan a compact TRSM through the canonical lower-left orientation."""
    p = problem
    dt = p.dtype
    eb = _elem_bytes(dt, machine)
    decision = select_trsm_packing(p, registry, force_pack, tuned_pack)
    norm = decision.norm
    d, n_rhs = norm.d, norm.n_rhs
    lanes = machine.lanes(dt)
    groups = padded_count(p.batch, lanes) // lanes
    work = trsm_group_working_bytes(p, machine)
    gpr = groups_per_round(work, machine, total_groups=groups)
    packed_warm = "l1" if work * min(gpr, groups) <= machine.l1.size else "l2"

    whole_in_regs = decision.whole_in_regs
    b_nopack = not decision.pack_b
    b_buf = "B" if b_nopack else "workB"
    col_stride = d * eb

    calls: list[KernelCall] = []
    tri_bytes = d * (d + 1) // 2 * eb

    if whole_in_regs:
        blocks = [d]
        n_pad = n_rhs
        prog = registry.trsm_triangular(d, n_rhs, dt, norm.unit, col_stride)
        calls.append(KernelCall(
            program=prog, a_buf="packT", a_off=0,
            b_buf=b_buf, b_off=0, x_buf=b_buf, x_off=0,
        ))
        pack_a_bytes = tri_bytes * groups
    else:
        blocks = decompose_dim(d, registry.trsm_block_main(dt))
        starts = tile_starts(blocks)
        nc = registry.trsm_panel_width(dt)
        n_pad = padded_count(n_rhs, nc)
        # packT offsets mirror packing.trsm_pack.pack_trsm_a exactly
        tri_offs: list[int] = []
        rect_offs: dict[tuple[int, int], int] = {}
        pos = 0
        for di, dsz in enumerate(blocks):
            for ei in range(di):
                rect_offs[(di, ei)] = pos
                pos += blocks[ei] * dsz * eb
            tri_offs.append(pos)
            pos += dsz * (dsz + 1) // 2 * eb
        pack_a_bytes = pos * groups
        for q in range(n_pad // nc):
            col0 = q * nc
            for di, (dsz, dst) in enumerate(zip(blocks, starts)):
                for ei in range(di):
                    esz_blk, est = blocks[ei], starts[ei]
                    prog = registry.trsm_rect(dsz, nc, esz_blk, dt, col_stride)
                    calls.append(KernelCall(
                        program=prog,
                        a_buf="packT", a_off=rect_offs[(di, ei)],
                        b_buf=b_buf, b_off=(col0 * d + est) * eb,
                        c_buf=b_buf,
                        c_offsets=tuple(((col0 + j) * d + dst) * eb
                                        for j in range(nc)),
                    ))
                prog = registry.trsm_triangular(dsz, nc, dt, norm.unit,
                                                col_stride)
                calls.append(KernelCall(
                    program=prog, a_buf="packT", a_off=tri_offs[di],
                    b_buf=b_buf, b_off=(col0 * d + dst) * eb,
                    x_buf=b_buf, x_off=(col0 * d + dst) * eb,
                ))

    a_dim = p.a_dim
    buffers = {
        "A": BufferSpec("A", a_dim * a_dim * eb, warm="cold"),
        "B": BufferSpec("B", p.m * p.n * eb,
                        warm=packed_warm if b_nopack else "cold"),
        "packT": BufferSpec("packT", pack_a_bytes // groups,
                            warm=packed_warm),
    }
    if not b_nopack:
        buffers["workB"] = BufferSpec("workB", d * n_pad * eb,
                                      warm=packed_warm)

    divs = 0 if norm.unit else d * (2 if dt.is_complex else 1)
    pack = PackCost(bytes_read=pack_a_bytes, bytes_written=pack_a_bytes,
                    panels=(len(blocks) + sum(range(len(blocks)))) * groups,
                    div_vectors=divs * groups, ew=dt.real_itemsize)
    unpack = PackCost(ew=dt.real_itemsize)
    if not b_nopack:
        wb = d * n_pad * eb * groups
        ob = p.m * p.n * eb * groups
        pack = pack + PackCost(bytes_read=ob, bytes_written=wb,
                               panels=groups, ew=dt.real_itemsize)
        unpack = PackCost(bytes_read=wb, bytes_written=ob, panels=groups,
                          ew=dt.real_itemsize)

    return ExecutionPlan(
        kind="trsm", problem=p, machine=machine, calls=calls,
        buffers=buffers, pack_cost=pack, unpack_cost=unpack,
        groups=groups, groups_per_round=gpr, schedule=schedule,
        meta={
            "norm": norm, "blocks": blocks, "n_pad": n_pad,
            "whole_in_regs": whole_in_regs, "b_nopack": b_nopack,
            "packing": decision.description,
            "pack_reason_b": decision.reason_b,
        },
    )
