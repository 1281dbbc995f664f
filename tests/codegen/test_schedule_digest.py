"""Golden digest of the instruction scheduler's output.

The scheduler is an optimization of *placement only*, and a faster
scheduler must place every instruction where the old one did.  These
tests hash every scheduled instruction of the paper's Table 1 kernel
family over three machines and both scheduler modes, so any change to
any scheduled program changes the digest.

The corpus, per machine and mode: each Table 1 GEMM main and edge
kernel and each TRSM rectangular main and edge kernel at every K of the
K set, plus each TRSM triangular kernel with and without a unit
diagonal.  Real families run in single precision and complex families
in double precision, so both of the Kunpeng 920's FP issue caps are
exercised.  The tier-1 case uses K in {1, 2, 3, 4, 5, 33} (1104
programs); the ``slow`` case sweeps K = 1..33 (5640 programs).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.codegen.generator_gemm import generate_gemm_kernel
from repro.codegen.generator_trsm import (generate_trsm_rect,
                                          generate_trsm_triangular)
from repro.codegen.optimizer import schedule_program
from repro.codegen.registry import table1_inventory
from repro.machine.machines import A64FX, KUNPENG_920, XEON_GOLD_6240
from repro.types import BlasDType

SMALL_K_DIGEST = ("4ed1ef28822bfdfcfa6f27090a229bb6"
                  "d39cf3fd046aad249cb05e10cda3ec3a")
FULL_K_DIGEST = ("87c19cf27194be898e909983f0732551"
                 "80c2345fce2fa5a7165ec03535e9d375")
"""Both pinned from the scheduler that re-sorted its whole ready list
every cycle."""


def _corpus(machine, ks):
    """Raw (unscheduled) Table 1 kernels for one machine."""
    inv = table1_inventory()
    for gemm, trsm, dt in (("sgemm/dgemm", "strsm/dtrsm", "s"),
                           ("cgemm/zgemm", "ctrsm/ztrsm", "z")):
        bdt = BlasDType.from_any(dt)
        for mc, nc in inv[gemm]["main"] + inv[gemm]["edge"]:
            for k in ks:
                yield generate_gemm_kernel(mc, nc, k, bdt, machine)
        for m, n in inv[trsm]["tri"]:
            for unit_diag in (False, True):
                yield generate_trsm_triangular(m, n, bdt, machine, unit_diag)
        stride = 8 * machine.lanes(bdt) * bdt.real_itemsize
        for mc, nc in inv[trsm]["main"] + inv[trsm]["edge"]:
            for k in ks:
                yield generate_trsm_rect(mc, nc, k, bdt, machine, stride)


def schedule_digest(ks) -> tuple[int, str]:
    """(programs, sha256) over every scheduled program's name and the
    ``repr`` of each of its instructions, in corpus order."""
    digest = hashlib.sha256()
    programs = 0
    for machine in (KUNPENG_920, XEON_GOLD_6240, A64FX):
        raw = list(_corpus(machine, ks))
        for resource_aware in (True, False):
            for prog in raw:
                sched = schedule_program(prog, machine, resource_aware)
                digest.update(sched.name.encode() + b"\n")
                for ins in sched.instrs:
                    digest.update(repr(ins).encode() + b"\n")
                programs += 1
    return programs, digest.hexdigest()


def test_schedule_golden_digest():
    assert schedule_digest((1, 2, 3, 4, 5, 33)) == (1104, SMALL_K_DIGEST)


@pytest.mark.slow
def test_schedule_golden_digest_full_corpus():
    assert schedule_digest(range(1, 34)) == (5640, FULL_K_DIGEST)
