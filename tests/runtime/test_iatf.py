"""Public-API tests for the IATF facade."""

import hashlib
import json
from dataclasses import astuple

import numpy as np
import pytest

from repro import IATF, KUNPENG_920, XEON_GOLD_6240
from repro.errors import InvalidProblemError
from repro.machine.machines import A64FX
from repro.reference import gemm_reference, trsm_reference
from repro.types import GemmProblem, TrsmProblem
from tests.conftest import (ALL_DTYPES, random_batch, random_triangular,
                            tolerance)


@pytest.fixture(scope="module")
def iatf():
    return IATF(KUNPENG_920)


class TestGemmApi:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_standard_arrays(self, iatf, rng, dtype):
        a = random_batch(rng, 10, 6, 4, dtype)
        b = random_batch(rng, 10, 4, 7, dtype)
        c = random_batch(rng, 10, 6, 7, dtype)
        got = iatf.gemm(a, b, c.copy(), alpha=2.0, beta=1.0)
        p = GemmProblem(6, 7, 4, dtype, batch=10, alpha=2.0, beta=1.0)
        want = gemm_reference(p, a, b, c)
        assert np.abs(got - want).max() < tolerance(dtype)

    def test_transpose_flags(self, iatf, rng):
        a = random_batch(rng, 6, 4, 6, "d")    # stored (k=4? no: (4,6))
        b = random_batch(rng, 6, 7, 4, "d")
        c = np.zeros((6, 6, 7))
        got = iatf.gemm(a, b, c, transa="T", transb="T", beta=0.0)
        want = a.transpose(0, 2, 1) @ b.transpose(0, 2, 1)
        assert np.abs(got - want).max() < 1e-9

    def test_rejects_2d(self, iatf):
        with pytest.raises(InvalidProblemError):
            iatf.gemm(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))

    def test_rejects_mismatched_batches(self, iatf):
        with pytest.raises(InvalidProblemError):
            iatf.gemm(np.zeros((2, 4, 4)), np.zeros((3, 4, 4)),
                      np.zeros((2, 4, 4)))

    def test_plan_cache_hit(self, iatf):
        p = GemmProblem(3, 3, 3, "d", batch=7)
        assert iatf.plan_gemm(p) is iatf.plan_gemm(p)
        assert iatf.plan_gemm(p) is not iatf.plan_gemm(p.with_batch(8))


class TestTrsmApi:
    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    def test_standard_arrays(self, iatf, rng, dtype):
        a = random_triangular(rng, 6, 5, dtype)
        b = random_batch(rng, 6, 5, 4, dtype)
        got = iatf.trsm(a, b.copy(), alpha=1.5)
        p = TrsmProblem(5, 4, dtype, batch=6, alpha=1.5)
        want = trsm_reference(p, a, b)
        assert np.abs(got - want).max() < 10 * tolerance(dtype)

    def test_solution_solves_system(self, iatf, rng):
        """Residual check: A @ X == alpha * B."""
        a = random_triangular(rng, 4, 9, "d")
        b = random_batch(rng, 4, 9, 6, "d")
        x = iatf.trsm(a, b.copy())
        resid = np.tril(a) @ x - b
        assert np.abs(resid).max() < 1e-8

    def test_rejects_mismatched_batches(self, iatf):
        with pytest.raises(InvalidProblemError):
            iatf.trsm(np.zeros((2, 4, 4)), np.zeros((3, 4, 4)))


class TestInstall:
    def test_install_populates_registry(self):
        fresh = IATF(KUNPENG_920)
        n = fresh.install(dtypes=("d",))
        assert n > 20
        assert len(fresh.registry) == n


class TestCrossMachine:
    def test_runs_on_xeon_model(self, rng):
        xeon = IATF(XEON_GOLD_6240)
        a = random_batch(rng, 20, 5, 5, "d")
        b = random_batch(rng, 20, 5, 5, "d")
        c = np.zeros((20, 5, 5))
        got = xeon.gemm(a, b, c, beta=0.0)
        assert np.abs(got - a @ b).max() < 1e-9

    def test_xeon_higher_peak_gemm(self):
        k = IATF(KUNPENG_920).time_gemm(GemmProblem(8, 8, 8, "d",
                                                    batch=2048))
        x = IATF(XEON_GOLD_6240).time_gemm(GemmProblem(8, 8, 8, "d",
                                                       batch=2048))
        assert x.gflops > k.gflops      # absolute perf; % peak may differ


class TestAutotune:
    """Run-time tuning: ``retune`` into an in-memory TuningDB, then plan
    from the swapped-in record."""

    @staticmethod
    def tuned(problem):
        from repro.tuning import TuningDB
        fw = IATF(KUNPENG_920, tuning_db=TuningDB())
        fw.retune(problem, save=False)
        return fw

    def test_never_slower_than_analytic(self, iatf):
        for n in (5, 9, 13):
            p = GemmProblem(n, n, n, "d", batch=2048)
            t0 = iatf.time_gemm(p).total_cycles
            t1 = self.tuned(p).time_gemm(p).total_cycles
            assert t1 <= t0 + 1e-9, n

    def test_autotuned_plan_cached_and_marked(self):
        p = GemmProblem(9, 9, 9, "d", batch=512)
        fw = self.tuned(p)
        plan = fw.plan_gemm(p)
        decision = plan.meta["decision"]
        assert decision["source"] == "tuned"
        assert decision["sweep"] == "retune"
        assert fw.plan_gemm(p) is plan
        # force_pack bypasses the record: a separate, analytic entry
        assert fw.plan_gemm(p, force_pack=True) is not plan

    def test_autotuned_plan_executes_correctly(self, rng):
        from repro.layout import CompactBatch
        p = GemmProblem(9, 9, 9, "d", batch=6)
        fw = self.tuned(p)
        a = random_batch(rng, 6, 9, 9, "d")
        b = random_batch(rng, 6, 9, 9, "d")
        cc = CompactBatch.from_matrices(np.zeros((6, 9, 9)), 2)
        plan = fw.plan_gemm(p)
        assert plan.meta["decision"]["source"] == "tuned"
        fw.engine.execute_gemm(plan,
                               CompactBatch.from_matrices(a, 2),
                               CompactBatch.from_matrices(b, 2), cc)
        assert np.abs(cc.to_matrices() - a @ b).max() < 1e-9


class TestOperandShapeValidation:
    """Every operand is checked against the shape the problem derives
    before any planning or packing happens."""

    def test_wrong_b_under_transb(self, rng):
        iatf = IATF(KUNPENG_920)
        a = random_batch(rng, 4, 5, 6, "d")       # m=5, k=6
        b = random_batch(rng, 4, 6, 7, "d")       # stored (k, n): wrong for T
        c = random_batch(rng, 4, 5, 7, "d")
        with pytest.raises(InvalidProblemError,
                           match=r"B is 6x7 .*transb=T.* 7x6"):
            iatf.gemm(a, b, c, transb="T")

    def test_wrong_a_rows(self, rng):
        iatf = IATF(KUNPENG_920)
        a = random_batch(rng, 4, 3, 6, "d")       # 3 rows, C wants m=5
        b = random_batch(rng, 4, 6, 7, "d")
        c = random_batch(rng, 4, 5, 7, "d")
        with pytest.raises(InvalidProblemError, match=r"A is 3x6"):
            iatf.gemm(a, b, c)

    def test_valid_transposed_b_accepted(self, rng):
        iatf = IATF(KUNPENG_920)
        a = random_batch(rng, 4, 5, 6, "d")
        b = random_batch(rng, 4, 7, 6, "d")       # stored (n, k) for T
        c = np.zeros((4, 5, 7))
        got = iatf.gemm(a, b, c, beta=0.0, transb="T")
        want = a @ b.transpose(0, 2, 1)
        assert np.abs(got - want).max() < 1e-9

    def test_trsm_nonsquare_a(self, rng):
        iatf = IATF(KUNPENG_920)
        a = random_batch(rng, 4, 4, 5, "d")
        b = random_batch(rng, 4, 4, 3, "d")
        with pytest.raises(InvalidProblemError, match=r"A is 4x5"):
            iatf.trsm(a, b)

    def test_trsm_wrong_side_dimension(self, rng):
        iatf = IATF(KUNPENG_920)
        a = random_triangular(rng, 4, 4, "d")     # 4x4, but side=R wants n=3
        b = random_batch(rng, 4, 4, 3, "d")
        with pytest.raises(InvalidProblemError, match=r"side=R.* 3x3"):
            iatf.trsm(a, b, side="R")


# -- pinned analytic plan choice ---------------------------------------------

BULK_PLAN_DIGEST = ("b70f7cd8598980cf698db69a3d896930"
                    "69dcaea5b997fd48c2c2afa779dc4b1a")
"""sha256 over the modeled timing of the plan IATF picks analytically for
each perfbench FULL bulk problem on three machines.  A change to plan
choice (tiling, packing, batch counter) or to the cycle model changes
it."""


def test_analytic_plan_choice_golden_digest():
    """Every ``PlanTiming`` cycle field, the ``TimingResult`` detail and
    the GFLOPS figure of ``IATF(machine).time_gemm``/``time_trsm`` (no
    TuningDB) for ``perfbench.grids.FULL.bulk`` x three machines."""
    from perfbench.grids import FULL

    digest = hashlib.sha256()
    plans = 0
    headline = None
    for machine in (KUNPENG_920, XEON_GOLD_6240, A64FX):
        iatf = IATF(machine)
        for p in FULL.bulk:
            t = (iatf.time_gemm(p) if isinstance(p, GemmProblem)
                 else iatf.time_trsm(p))
            assert t.plan.meta["decision"]["source"] == "analytic"
            row = [machine.machine_id, repr(p), t.kernel_cycles_per_group,
                   t.pack_cycles, t.unpack_cycles, t.overhead_cycles,
                   t.total_cycles, t.gflops, list(astuple(t.detail))]
            digest.update(json.dumps(row).encode() + b"\n")
            plans += 1
            if (machine is KUNPENG_920
                    and p == GemmProblem(8, 8, 8, "s", batch=16384)):
                headline = t.gflops
    assert plans == 18
    # the paper's headline shape, by name: sgemm 8^3, batch 16384
    assert headline is not None and round(headline, 3) == 12.731
    assert digest.hexdigest() == BULK_PLAN_DIGEST
