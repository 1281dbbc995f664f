"""Template waves: replaying each lowering template once across its
independent calls must leave exactly the bytes plan-order replay and
``interpret`` leave.

(a) wave replay == plan-order replay == interpret, on the benchmark
    grids and on drawn problems whose inputs hold NaN/Inf/-0.0;
(b) a brute-force check, from the relocated raw stream and independent
    of the level builder, that no two calls of one level conflict and
    that every conflicting pair keeps its plan order;
(c) calls whose footprints overlap never share a wave, and an irregular
    wave is gathered and scattered back;
(d) bound buffers that alias (``gemm_compact(p, C, B, C)``) replay in
    plan order;
(e) every grid wave is a lattice, replayed in passes of whole lattice
    rows under the host-L2 register-bank budget, over group blocks, with
    the same bytes at every L2 size.
"""

import copy
import sys

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
    """The group count of each block the wave schedule replays."""
    runs = []
    real = FusedBackend._run_waves

    def spy(*args):
        runs.append(args[2])
        return real(*args)
    monkeypatch.setattr(FusedBackend, "_run_waves", staticmethod(spy))
    return runs


@pytest.fixture
def gathers(monkeypatch):
    """``np.take`` calls the wave schedule makes (the gather path); the
    replay loop's own register-bank takes are not counted."""
    seen = []
    real = np.take

    def spy(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_run_waves":
            seen.append(args[0].shape)
        return real(*args, **kwargs)
    monkeypatch.setattr(np, "take", spy)
    return seen


def _check_parity(problem, monkeypatch, seed=0, special=False,
                  interpret=True):
    """Waves, plan order and (optionally) interpret give equal bytes."""
    ops = _operands(problem, seed, special)
    waves = _call(FW, problem, ops)
    with monkeypatch.context() as mp:
        # the aliasing guard is the plan-order switch
        mp.setattr(backends, "_aliased", lambda mats: True)
        order = _call(FW, problem, ops)
    assert _same(waves, order, special), problem
    if interpret:
        ref = _call(FW_INTERPRET, problem, ops)
        assert _same(waves, ref, special), problem


def _waves_expected(problem):
    compiled = lower_plan(_plan(problem))
    return len(compiled.waves) < compiled.stats["calls"]


SMOKE_PROBLEMS = SMOKE.bulk + SMOKE.cold + SMOKE.tune


# -- (a) parity ---------------------------------------------------------------

@pytest.mark.parametrize("problem", SMOKE_PROBLEMS + FULL.cold, ids=repr)
def test_grid_parity(problem, monkeypatch, wave_runs, gathers):
    _check_parity(problem, monkeypatch)
    if _waves_expected(problem):
        assert wave_runs, "wave schedule did not run"
    assert not gathers, "a lattice wave was gathered"


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


def test_overlapping_calls_never_share_a_wave(gathers):
    problem = GemmProblem(12, 12, 5, "d", batch=6, alpha=0.5, beta=1.5)
    plan = _doubled(_plan(problem))
    compiled = lower_plan(plan)
    assert compiled.stats["templates"] < len(plan.calls)
    _check_levels(compiled)
    for w in compiled.waves:
        assert not any(ci + 1 in w.calls for ci in w.calls if ci % 2 == 0)
    assert any(len(w.calls) > 1 for w in compiled.waves)
    # and the doubled plan computes what interpret computes
    _check_against_interpret(problem, plan, compiled)
    assert not gathers          # each level's tiles form a 3 x 3 lattice


def _check_against_interpret(problem, plan, compiled):
    a, b, c = _operands(problem, 3)
    outs = []
    for backend in ("fused", "interpret"):
        cc = _compact(FW, c.copy())
        Engine(KUNPENG_920, backend=backend).execute_gemm(
            plan, _compact(FW, a), _compact(FW, b), cc, compiled=compiled)
        outs.append(cc.buffer)
    assert np.array_equal(_bytes(outs[0]), _bytes(outs[1]))


def test_irregular_wave_gathers_and_scatters(gathers):
    """The doubled plan with its first two tiles swapped: each level's
    deltas lie on no lattice, so its waves are gathered and their
    written elements scattered back."""
    problem = GemmProblem(12, 12, 5, "d", batch=6, alpha=0.5, beta=1.5)
    plan = copy.copy(_plan(problem))
    calls = list(plan.calls)
    calls[0], calls[1] = calls[1], calls[0]
    plan.calls = calls
    plan = _doubled(plan)
    compiled = lower_plan(plan)
    _check_levels(compiled)
    irregular = [w for w in compiled.waves if w.lattice is None]
    assert irregular and all(len(w.calls) > 1 for w in irregular)
    _check_against_interpret(problem, plan, compiled)
    assert gathers


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
    through another buffer: only plan order is exact (waves, replayed or
    generated, would read stale A).  From the second run on the plan has
    generated programs, which an aliased bind must still not use."""
    ref = _bytes(_aliased_run(problem, FW_INTERPRET))
    for _ in range(3):
        assert np.array_equal(_bytes(_aliased_run(problem, FW)), ref)


def test_aliased_cases_need_the_guard(monkeypatch):
    """Without the guard, waves break the aliased cases above (so they
    test the guard, not plans that never wave)."""
    monkeypatch.setattr(backends, "_aliased", lambda mats: False)
    problem = GemmProblem(2, 12, 12, "s", batch=5)
    assert problem in ALIASED
    assert not np.array_equal(_bytes(_aliased_run(problem, FW)),
                              _bytes(_aliased_run(problem, FW_INTERPRET)))


# -- (e) lattices, passes and group blocks ------------------------------------

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


@pytest.mark.parametrize("problem", FULL.bulk + FULL.cold, ids=repr)
def test_grid_waves_are_lattices(problem):
    for w in lower_plan(_plan(problem)).waves:
        rows, cols = w.lattice
        assert rows * cols == len(w.calls)
        d = np.array(w.deltas)
        r, c = np.divmod(np.arange(len(w.calls)), cols)
        row = d[cols] - d[0] if rows > 1 else 0
        col = d[1] - d[0] if cols > 1 else 0
        assert np.array_equal(
            d, d[0] + r[:, None] * row + c[:, None] * col)


def _block(compiled):
    return FusedBackend._block_groups(KUNPENG_920.l2.size, compiled.lanes,
                                      compiled.ew)


def _expected_leads(compiled, groups, cap):
    """Whole lattice rows per pass, a row split into column runs only
    when it alone exceeds ``cap``."""
    out = []
    for w in compiled.waves:
        rows, cols = w.lattice
        if cols <= cap:
            per = cap // cols
            for r0 in range(0, rows, per):
                k = min(per, rows - r0)
                out.append(((k, cols) if k > 1 else (cols,)) + (groups,))
        else:
            out += [(min(cap, cols - c0), groups)
                    for _ in range(rows) for c0 in range(0, cols, cap)]
    return out


@pytest.mark.parametrize("l2", [512 << 10, 2 << 20, 8 << 20])
def test_passes_are_lattice_rows_under_host_l2_budget(l2, leads,
                                                      monkeypatch):
    monkeypatch.setattr(backends, "_host_l2_bytes", lambda: l2)
    problem = GemmProblem(33, 33, 33, "d", batch=512)     # 256 groups
    compiled = lower_plan(_plan(problem))
    assert max(w.lattice[0] for w in compiled.waves) > 1
    block = _block(compiled)
    assert block == (l2 // 2) // (32 * compiled.lanes * compiled.ew)
    assert block >= compiled.groups
    _check_parity(problem, monkeypatch, interpret=False)
    wave_leads = [lead for lead in leads if len(lead) > 1]
    assert wave_leads == _expected_leads(
        compiled, compiled.groups, block // compiled.groups)


def test_waves_chunked_to_bank_budget(leads, monkeypatch):
    monkeypatch.setattr(backends, "_host_l2_bytes", lambda: 256 << 10)
    problem = GemmProblem(33, 33, 4, "s", batch=256)      # 64 groups
    compiled = lower_plan(_plan(problem))
    block = _block(compiled)
    assert block >= compiled.groups
    cap = block // compiled.groups
    assert max(len(w.calls) for w in compiled.waves) > cap
    _check_parity(problem, monkeypatch, interpret=False)
    wave_leads = [lead for lead in leads if len(lead) > 1]
    # every pass holds at most ``cap`` calls across all groups, and the
    # passes of each wave cover its calls exactly once, in wave order
    assert all(g == compiled.groups for *_, g in wave_leads)
    per_pass = [int(np.prod(lead[:-1])) for lead in wave_leads]
    assert max(per_pass) <= cap
    it = iter(per_pass)
    for w in compiled.waves:
        covered = 0
        while covered < len(w.calls):
            covered += next(it)
        assert covered == len(w.calls)
    assert next(it, None) is None


def test_groups_beyond_one_block_replay_waves_per_block(leads, wave_runs,
                                                        monkeypatch):
    monkeypatch.setattr(backends, "_host_l2_bytes", lambda: 64 << 10)
    problem = GemmProblem(12, 12, 12, "s", batch=4 * 130)   # 130 groups
    compiled = lower_plan(_plan(problem))
    assert _block(compiled) == 64
    assert len(compiled.waves) < compiled.stats["calls"]
    _check_parity(problem, monkeypatch)
    assert wave_runs == [64, 64, 2]
    wave_leads = [lead for lead in leads if len(lead) > 1]
    per_block = _expected_leads(compiled, 64, 1)
    assert wave_leads == per_block * 2 + [
        lead[:-1] + (2,) for lead in per_block]


@pytest.mark.parametrize("l2", [64 << 10, 512 << 10, 2 << 20, 32 << 20])
@pytest.mark.parametrize("problem", SMOKE.bulk + SMOKE.cold[:3] + (
    GemmProblem(12, 12, 12, "s", batch=4 * 130),
    TrsmProblem(16, 16, "d", batch=300)), ids=repr)
def test_parity_at_every_l2_size(problem, l2, monkeypatch):
    monkeypatch.setattr(backends, "_host_l2_bytes", lambda: l2)
    _check_parity(problem, monkeypatch)


def _sysfs(root, caches):
    for i, (level, kind, size) in enumerate(caches):
        index = root / f"index{i}"
        index.mkdir(parents=True)
        for name, value in (("level", level), ("type", kind),
                            ("size", size)):
            (index / name).write_text(f"{value}\n")
    return root


def test_host_l2_read_from_sysfs(tmp_path):
    read = backends._host_l2_bytes.__wrapped__
    l1 = [(1, "Data", "48K"), (1, "Instruction", "32K")]
    assert read(_sysfs(tmp_path / "a", l1 + [(2, "Unified", "2048K"),
                                             (3, "Unified", "300M")])) == (
        2 << 20)
    assert read(_sysfs(tmp_path / "b", l1 + [(2, "Data", "1M")])) == 1 << 20
    assert read(_sysfs(tmp_path / "c", l1)) is None
    assert read(_sysfs(tmp_path / "d", [(2, "Unified", "big")])) is None
    assert read(tmp_path / "missing") is None


def test_host_l2_falls_back_to_the_machine_model(monkeypatch):
    monkeypatch.setattr(backends, "_host_l2_bytes", lambda: None)
    assert FusedBackend._block_groups(KUNPENG_920.l2.size, 4, 4) == (
        KUNPENG_920.l2.size // 2) // (32 * 16)


def test_one_call_plan_is_one_wave():
    compiled = lower_plan(_plan(GemmProblem(2, 2, 2, "s", batch=4)))
    assert compiled.stats["calls"] == 1
    assert compiled.stats["waves"] == 1
    assert "1 calls from 1 template in 1 wave" in compiled.describe()
