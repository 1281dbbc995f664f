"""Template waves: replaying each lowering template once across its
independent calls must leave exactly the bytes plan-order replay and
``interpret`` leave.

(a) wave replay == plan-order replay == interpret, on the benchmark
    grids and on drawn problems whose inputs hold NaN/Inf/-0.0;
(b) a brute-force check, from the relocated raw stream and independent
    of the level builder, that no two calls of one level conflict and
    that every conflicting pair keeps its plan order;
(c) calls whose footprints overlap never share a wave;
(d) bound buffers that alias (``gemm_compact(p, C, B, C)``) replay in
    plan order;
(e) waves are chunked to the register-bank budget, and plans with more
    than ``WAVE_GROUPS`` groups replay call by call.
"""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perfbench.grids import FULL, SMOKE
from repro import IATF, KUNPENG_920
from repro.layout.compact import CompactBatch
from repro.runtime import backends
from repro.runtime.backends import FusedBackend
from repro.runtime.engine import Engine
from repro.runtime.lowering import (K_STORE, K_STORE2, K_STOREPAIR,
                                    CompiledCommand, lower_plan)
from repro.types import BlasDType, GemmProblem, TrsmProblem

# NaN/Inf operands are the point of the special-value draws
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

FW = IATF(KUNPENG_920)
FW_INTERPRET = IATF(KUNPENG_920, backend="interpret")
SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0])


def _plan(problem):
    if isinstance(problem, GemmProblem):
        return FW.plan_gemm(problem)
    return FW.plan_trsm(problem)


def _rand(rng, shape, dt, special):
    x = rng.standard_normal(shape)
    if dt.is_complex:
        x = x + 1j * rng.standard_normal(shape)
    if special:
        hit = rng.random(shape) < 0.05
        x[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return x.astype(dt.np_dtype)


def _operands(problem, seed, special=False):
    rng = np.random.default_rng(seed)
    dt, b = problem.dtype, problem.batch
    if isinstance(problem, GemmProblem):
        return (_rand(rng, (b, *problem.a_shape), dt, special),
                _rand(rng, (b, *problem.b_shape), dt, special),
                _rand(rng, (b, *problem.c_shape), dt, special))
    d = problem.a_dim
    a = _rand(rng, (b, d, d), dt, special) + d * np.eye(d, dtype=dt.np_dtype)
    return a, _rand(rng, (b, *problem.b_shape), dt, special)


def _call(fw, problem, ops):
    p = problem
    if isinstance(p, GemmProblem):
        return fw.gemm(*ops, alpha=p.alpha, beta=p.beta, transa=p.transa,
                       transb=p.transb)
    return fw.trsm(*ops, alpha=p.alpha, side=p.side, uplo=p.uplo,
                   transa=p.transa, diag=p.diag)


def _bytes(x):
    return np.ascontiguousarray(x).view(np.uint8)


def _same(x, y, special):
    """Equal bytes; with special inputs, equal bytes except NaN sign and
    payload.  When two NaNs meet in one ufunc, which one propagates
    depends on the inner loop NumPy picks for the operands' strides, so
    plan-order replay and interpret already differ there."""
    if not special:
        return np.array_equal(_bytes(x), _bytes(y))
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    if x.dtype.kind == "c":
        x, y = x.view(x.real.dtype), y.view(y.real.dtype)
    nan = np.isnan(x)
    return (np.array_equal(nan, np.isnan(y))
            and np.array_equal(_bytes(np.where(nan, 0, x)),
                               _bytes(np.where(nan, 0, y))))


@pytest.fixture
def wave_runs(monkeypatch):
    """Counts fused runs that took the wave schedule."""
    runs = []
    real = FusedBackend._run_waves

    def spy(*args):
        runs.append(args[0])
        return real(*args)
    monkeypatch.setattr(FusedBackend, "_run_waves", staticmethod(spy))
    return runs


def _check_parity(problem, monkeypatch, seed=0, special=False,
                  interpret=True):
    """Waves, plan order and (optionally) interpret give equal bytes."""
    ops = _operands(problem, seed, special)
    waves = _call(FW, problem, ops)
    with monkeypatch.context() as mp:
        mp.setattr(FusedBackend, "WAVE_GROUPS", 0)
        order = _call(FW, problem, ops)
    assert _same(waves, order, special), problem
    if interpret:
        ref = _call(FW_INTERPRET, problem, ops)
        assert _same(waves, ref, special), problem


def _waves_expected(problem):
    compiled = lower_plan(_plan(problem))
    return (compiled.groups <= FusedBackend.WAVE_GROUPS
            and len(compiled.waves) < compiled.stats["calls"])


SMOKE_PROBLEMS = SMOKE.bulk + SMOKE.cold + SMOKE.tune


# -- (a) parity ---------------------------------------------------------------

@pytest.mark.parametrize("problem", SMOKE_PROBLEMS + FULL.cold, ids=repr)
def test_grid_parity(problem, monkeypatch, wave_runs):
    _check_parity(problem, monkeypatch)
    if _waves_expected(problem):
        assert wave_runs, "wave schedule did not run"


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(m=st.integers(1, 33), n=st.integers(1, 33), k=st.integers(1, 33),
       dtype=st.sampled_from("sdcz"),
       mode=st.sampled_from(["NN", "NT", "TN", "TT"]),
       batch=st.integers(1, 64), special=st.booleans(),
       scal=st.sampled_from([(1.0, 1.0), (0.5, -2.0), (-1.5, 0.0)]))
def test_drawn_gemm(m, n, k, dtype, mode, batch, special, scal, monkeypatch):
    problem = GemmProblem(m, n, k, dtype, mode[0], mode[1], batch=batch,
                          alpha=scal[0], beta=scal[1])
    _check_parity(problem, monkeypatch, seed=m * n + k, special=special)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(m=st.integers(1, 33), n=st.integers(1, 33),
       dtype=st.sampled_from("sdcz"),
       mode=st.sampled_from(["LLNN", "LUTN", "LLTU", "LUNN", "RLNN",
                             "RUTU", "RLTN", "RUNN"]),
       batch=st.integers(1, 64), special=st.booleans(),
       alpha=st.sampled_from([1.0, -0.75]))
def test_drawn_trsm(m, n, dtype, mode, batch, special, alpha, monkeypatch):
    problem = TrsmProblem(m, n, dtype, *mode, batch=batch, alpha=alpha)
    _check_parity(problem, monkeypatch, seed=m + 7 * n, special=special)


# -- (b) brute-force level check ----------------------------------------------

def _conflicts(compiled):
    """``(calls, calls)`` matrix: True where two calls touch one element
    of one buffer and at least one of them writes it — element masks
    per call built from the relocated raw stream."""
    calls = len(compiled.call_ranges)
    masks = {name: np.zeros((2, calls, lay.stride_elems), dtype=np.float32)
             for name, lay in compiled.buffers.items()}
    for ci, (_, start, stop) in enumerate(compiled.call_ranges):
        for cmd in compiled.commands[start:stop]:
            c = CompiledCommand(cmd[0], cmd)
            if c.is_mem:
                buf, first, n, _ = c.access()
                store = c.kind in (K_STORE, K_STOREPAIR, K_STORE2)
                masks[buf][int(store), ci, first:first + n] = 1
    out = np.zeros((calls, calls), dtype=bool)
    for reads, writes in masks.values():   # 0/1 floats: exact counts
        out |= (writes @ (reads + writes).T + reads @ writes.T) > 0
    return out


def _check_levels(compiled):
    conflicts = _conflicts(compiled)
    level = {}
    last = 0
    for w in compiled.waves:
        assert w.level >= last          # levels replay in order
        last = w.level
        tpl = compiled.templates[w.template]
        assert list(w.calls) == sorted(w.calls)
        for ci in w.calls:
            assert ci not in level
            level[ci] = w.level
            assert compiled.call_ranges[ci][0] == tpl.name
    assert sorted(level) == list(range(len(conflicts)))
    for i, j in zip(*np.nonzero(np.triu(conflicts, 1))):
        assert level[i] < level[j], (i, j)


@pytest.mark.parametrize("problem", SMOKE_PROBLEMS + FULL.cold, ids=repr)
def test_levels_are_conflict_free(problem):
    _check_levels(lower_plan(_plan(problem)))


# -- (c) overlapping calls ----------------------------------------------------

def _doubled(plan):
    """Every call twice in a row: each pair writes one C tile twice."""
    plan = copy.copy(plan)
    plan.calls = [c for call in plan.calls for c in (call, call)]
    return plan


def _compact(fw, x):
    return CompactBatch.from_matrices(
        x, fw.machine.lanes(BlasDType.from_any(x.dtype)))


def test_overlapping_calls_never_share_a_wave():
    problem = GemmProblem(12, 12, 5, "d", batch=6, alpha=0.5, beta=1.5)
    plan = _doubled(_plan(problem))
    compiled = lower_plan(plan)
    assert compiled.stats["templates"] < len(plan.calls)
    _check_levels(compiled)
    for w in compiled.waves:
        assert not any(ci + 1 in w.calls for ci in w.calls if ci % 2 == 0)
    assert any(len(w.calls) > 1 for w in compiled.waves)
    # and the doubled plan computes what interpret computes
    a, b, c = _operands(problem, 3)
    outs = []
    for backend in ("fused", "interpret"):
        cc = _compact(FW, c.copy())
        Engine(KUNPENG_920, backend=backend).execute_gemm(
            plan, _compact(FW, a), _compact(FW, b), cc, compiled=compiled)
        outs.append(cc.buffer)
    assert np.array_equal(_bytes(outs[0]), _bytes(outs[1]))


# -- (d) aliased buffers ------------------------------------------------------

ALIASED = [GemmProblem(m, s, s, dt, batch=batch)
           for dt in "sdcz" for m, s in ((1, 9), (2, 12), (3, 16), (4, 17))
           for batch in (5, 64)]


def _aliased_run(problem, fw):
    a, b, c = _operands(problem, 11)
    cc = _compact(fw, c)
    fw.gemm_compact(problem, cc, _compact(fw, b), cc)
    return cc.buffer


@pytest.mark.parametrize("problem", ALIASED, ids=repr)
def test_aliased_a_and_c_match_interpret(problem):
    """A is C and A is not packed, so the plan reads what it writes
    through another buffer: only plan order is exact."""
    assert np.array_equal(_bytes(_aliased_run(problem, FW)),
                          _bytes(_aliased_run(problem, FW_INTERPRET)))


def test_aliased_cases_need_the_guard(monkeypatch):
    """Without the guard, waves break the aliased cases above (so they
    test the guard, not plans that never wave)."""
    monkeypatch.setattr(backends, "_aliased", lambda mats: False)
    problem = GemmProblem(2, 12, 12, "s", batch=5)
    assert problem in ALIASED
    assert not np.array_equal(_bytes(_aliased_run(problem, FW)),
                              _bytes(_aliased_run(problem, FW_INTERPRET)))


# -- (e) chunking and the group gate ------------------------------------------

@pytest.fixture
def leads(monkeypatch):
    """The leading register-bank shape of every replay pass."""
    seen = []
    real = backends._Bank.replay

    def spy(self, commands, mats, lead, matsC):
        seen.append(lead)
        return real(self, commands, mats, lead, matsC)
    monkeypatch.setattr(backends._Bank, "replay", spy)
    return seen


def _cap(compiled):
    block = FusedBackend._block_groups(KUNPENG_920.l2.size, compiled.lanes,
                                       compiled.ew)
    return block // compiled.groups


def test_waves_chunked_to_bank_budget(leads, monkeypatch):
    problem = GemmProblem(33, 33, 4, "s", batch=256)      # 64 groups
    compiled = lower_plan(_plan(problem))
    assert compiled.groups == FusedBackend.WAVE_GROUPS
    cap = _cap(compiled)
    assert max(len(w.calls) for w in compiled.waves) > cap
    _check_parity(problem, monkeypatch, interpret=False)
    wave_leads = [lead for lead in leads if len(lead) == 2]
    expect = [min(cap, len(w.calls) - c0) for w in compiled.waves
              for c0 in range(0, len(w.calls), cap)]
    assert [w for w, _ in wave_leads] == expect
    assert all(g == compiled.groups for _, g in wave_leads)


def test_more_than_wave_groups_replays_call_by_call(leads):
    problem = GemmProblem(12, 12, 12, "s", batch=4 * 65)   # 65 groups
    compiled = lower_plan(_plan(problem))
    assert compiled.groups > FusedBackend.WAVE_GROUPS
    assert len(compiled.waves) < compiled.stats["calls"]
    _call(IATF(KUNPENG_920), problem, _operands(problem, 1))
    assert leads and all(len(lead) == 1 for lead in leads)


def test_one_call_plan_is_one_wave():
    compiled = lower_plan(_plan(GemmProblem(2, 2, 2, "s", batch=4)))
    assert compiled.stats["calls"] == 1
    assert compiled.stats["waves"] == 1
    assert "1 calls from 1 template in 1 wave" in compiled.describe()
