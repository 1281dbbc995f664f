"""Hoisted panel loads in the ``fused`` wave schedule.

A buffer the template never writes and whose lattice step is zero along
a pass axis gets a pass view of length 1 there; the generated program
loads it at that shorter lead and its multiplies broadcast it.  Loads
are copies, so every result must keep the ``interpret`` bytes:

(a) bit-identity on lattices 1xN, Nx1 and RxC, with the invariant
    buffer on rows, cols, both and neither, at 1, lanes - 1, 64 and
    more-than-one-block group counts, real and complex (wide copies);
(b) the program reports the loads it hoists, and a hoisted pass copies
    each panel once per axis it does not move on;
(c) the gate: short axes and small group counts are not hoisted.
"""

import dataclasses

import numpy as np
import pytest

from repro import KUNPENG_920
from repro.layout.compact import CompactBatch
from repro.runtime import backends, lowering
from repro.runtime.backends import _Bank
from repro.runtime.engine import Engine
from repro.runtime.iatf import IATF
from repro.runtime.lowering import lower_plan
from repro.runtime.megakernel import compile_program, generate_source
from repro.types import GemmProblem, TrsmProblem
from tests.conftest import random_batch, random_triangular

FW = IATF(KUNPENG_920)

# (problem at one group of lanes, its lattices as lowered)
PROBLEMS = [
    GemmProblem(16, 4, 5, "s"),                  # 1x4, packB on cols
    GemmProblem(3, 16, 3, "s"),                  # 1x4, unpacked A on cols
    GemmProblem(12, 12, 3, "c"),                 # 6x4, packA rows/packB cols
    GemmProblem(8, 8, 8, "z"),                   # 4x2 and 1x4
    TrsmProblem(16, 16, "s"),                    # 1x4, packT on cols
    TrsmProblem(12, 9, "c", "R", "U", "N", "N"),  # 1x6, packT on cols
]


def _transposed(real):
    """A 1-D progression of n calls described as n rows of one column."""
    def lattice(deltas):
        got = real(deltas)
        return (got[1], 1) if got and got[0] == 1 and got[1] > 1 else got
    return lattice


def _folded(real):
    """A 1-D progression of an even number of calls folded into two
    rows: a buffer constant along it is constant on both axes."""
    def lattice(deltas):
        got = real(deltas)
        if got and got[0] == 1 and got[1] % 2 == 0 and got[1] > 2:
            return 2, got[1] // 2
        return got
    return lattice


SHAPES = {"lowered": None, "transposed": _transposed, "folded": _folded}


def _lower(plan, shape, monkeypatch):
    """The plan's lowering, its waves' lattices described as ``shape``
    says (the calls and their deltas are the same)."""
    with monkeypatch.context() as mp:
        if SHAPES[shape] is not None:
            mp.setattr(lowering, "_lattice", SHAPES[shape](lowering._lattice))
        return lower_plan(plan)


def _invariance(compiled):
    """Per lattice wave and read-only buffer: the 2-D axes it does not
    move on ('rows', 'cols', 'both' or 'neither')."""
    out = set()
    for w in compiled.waves:
        if w.lattice is None or len(w.calls) == 1:
            continue
        rows, cols = w.lattice
        stream, window, writes = compiled.templates[w.template].wave_form
        for j, buf in enumerate(w.buffers):
            if buf in writes or buf not in window:
                continue
            on_cols = cols > 1 and w.deltas[1][j] == w.deltas[0][j]
            on_rows = rows > 1 and w.deltas[cols][j] == w.deltas[0][j]
            out.add({(True, True): "both", (True, False): "cols",
                     (False, True): "rows"}.get((on_cols, on_rows),
                                                "neither"))
    return out


def _batch(problem, groups):
    """``problem`` over ``groups`` groups, the last one padded when there
    are several."""
    lanes = KUNPENG_920.lanes(problem.dtype)
    return dataclasses.replace(problem, batch=groups * lanes - (groups > 1))


def _operands(problem, seed):
    rng = np.random.default_rng(seed)
    dt, b = problem.dtype.value, problem.batch
    if isinstance(problem, GemmProblem):
        return [random_batch(rng, b, *problem.a_shape, dt),
                random_batch(rng, b, *problem.b_shape, dt),
                random_batch(rng, b, *problem.c_shape, dt)]
    return [random_triangular(rng, b, problem.a_dim, dt, problem.uplo.value),
            random_batch(rng, b, *problem.b_shape, dt)]


def _execute(engine, plan, ops, compiled):
    lanes = KUNPENG_920.lanes(plan.problem.dtype)
    cbs = [CompactBatch.from_matrices(x, lanes) for x in ops]
    if plan.kind == "gemm":
        engine.execute_gemm(plan, *cbs, compiled=compiled)
    else:
        engine.execute_trsm(plan, *cbs, compiled=compiled)
    return cbs[-1].buffer.tobytes()


def _plan(problem):
    return (FW.plan_gemm(problem) if isinstance(problem, GemmProblem)
            else FW.plan_trsm(problem))


@pytest.fixture
def hoist_all(monkeypatch):
    """Admit every axis and group count, so the small cases hoist."""
    monkeypatch.setattr(backends, "HOIST_CALLS", 2)
    monkeypatch.setattr(backends, "HOIST_GROUPS", 1)


@pytest.fixture
def hoisted(monkeypatch):
    """Per pass: the buffers whose view the schedule cut to length 1."""
    seen = []
    real = _Bank.replay

    def spy(self, commands, mats, lead, matsC):
        seen.append({buf: v.shape[:-1] for buf, v in mats.items()
                     if v.shape[:-1] != lead})
        return real(self, commands, mats, lead, matsC)
    monkeypatch.setattr(_Bank, "replay", spy)
    return seen


# -- (a) bit-identity ---------------------------------------------------------

def test_shapes_cover_every_invariance(monkeypatch):
    cover = set()
    for problem in PROBLEMS:
        for shape in SHAPES:
            cover |= _invariance(_lower(_plan(problem), shape, monkeypatch))
    assert cover == {"rows", "cols", "both", "neither"}
    lattices = {w.lattice for p in PROBLEMS for s in SHAPES
                for w in _lower(_plan(p), s, monkeypatch).waves}
    assert any(r == 1 and c > 1 for r, c in lattices)          # 1xN
    assert any(r > 1 and c == 1 for r, c in lattices)          # Nx1
    assert any(r > 1 and c > 1 for r, c in lattices)           # RxC


@pytest.mark.parametrize("groups", ["1", "lanes-1", "64", "150"])
@pytest.mark.parametrize("problem", PROBLEMS, ids=repr)
def test_hoisted_waves_match_interpret(problem, groups, monkeypatch,
                                       hoist_all, hoisted):
    """Every lattice shape, in both tiers, leaves the interpret bytes.  A
    64-row bank in passes of at most 16 groups runs 64 and 150 groups
    in several blocks, with up to 4 calls per pass."""
    monkeypatch.setattr(backends, "_host_l2_bytes", lambda: 64 << 10)
    monkeypatch.setattr(backends, "PASS_GROUPS", 16)
    lanes = KUNPENG_920.lanes(problem.dtype)
    problem = _batch(problem, lanes - 1 if groups == "lanes-1"
                     else int(groups))
    plan = _plan(problem)
    ops = _operands(problem, problem.batch)
    ref = _execute(Engine(KUNPENG_920, backend="interpret"), plan, ops, None)
    for shape in SHAPES:
        engine = Engine(KUNPENG_920)
        compiled = _lower(plan, shape, monkeypatch)
        for _ in range(3):      # replay, then generate, then generated
            assert _execute(engine, plan, ops, compiled) == ref, shape
        assert compiled.programs.complete
    if plan.groups > 1 or any(len(w.calls) > 1 for w in compiled.waves):
        assert any(hoisted), "no pass hoisted a buffer"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("problem", [GemmProblem(12, 12, 3, "z"),
                                     TrsmProblem(16, 8, "d")], ids=repr)
def test_hoisted_special_values(problem, monkeypatch, hoist_all):
    """NaN, +-Inf and -0.0 in the hoisted panels: equal bytes, except NaN
    sign and payload where two NaNs meet."""
    problem = _batch(problem, 9)
    plan = _plan(problem)
    rng = np.random.default_rng(5)
    ops = _operands(problem, 5)
    for x in ops[:-1]:
        hit = rng.random(x.shape) < 0.1
        x[hit] = rng.choice([np.nan, np.inf, -np.inf, -0.0], int(hit.sum()))
    ref = np.frombuffer(_execute(Engine(KUNPENG_920, backend="interpret"),
                                 plan, ops, None), problem.dtype.real_dtype)
    engine, compiled = Engine(KUNPENG_920), lower_plan(plan)
    for _ in range(3):
        got = np.frombuffer(_execute(engine, plan, ops, compiled),
                            problem.dtype.real_dtype)
        nan = np.isnan(ref)
        assert np.array_equal(nan, np.isnan(got))
        assert np.array_equal(np.where(nan, 0, ref).tobytes(),
                              np.where(nan, 0, got).tobytes())


L = lowering
# hand-written streams over buffers X (read-only, cut on the first lead
# axis), Y (read-only, full) and Z (written), 4 lanes of float64 (two
# 16-byte units a register): a value at X's short lead may only be an
# outer-product operand; every other read demotes its load to the full
# lead.  (stream, loads that hoist)
DEMOTIONS = {
    # r8 and r9, loaded from X, accumulate: they load at full lead; the
    # outer-product operand blocks r0-r1 (X) and r2-r3 (Y) hoist
    "accumulator": ([
        (L.K_LOADW, slice(0, 2), "X", 0, 4, 2, 0),
        (L.K_LOADW, slice(2, 4), "Y", 0, 4, 2, 0),
        (L.K_LOADW, slice(8, 9), "X", 8, 4, 1, 4),
        (L.K_LOADW, slice(9, 10), "X", 12, 4, 1, 6),
        (L.K_VZERO, 10), (L.K_VZERO, 11),
        (L.K_MACC, slice(8, 12), (0, 1, 0, 1), (2, 2, 3, 3), False, 4),
        (L.K_STOREW, slice(8, 12), "Z", 0, 4, 4, 0)], 2),
    # a block loaded from X is stored as a block, and a register from X
    # is an elementwise operand: both load at full lead
    "stored block": ([
        (L.K_LOADW, slice(0, 3), "X", 0, 4, 3, 0),
        (L.K_LOADW, slice(3, 4), "X", 12, 4, 1, 6),
        (L.K_FMUL, 4, 3, 3),
        (L.K_STOREW, slice(0, 3), "Z", 0, 4, 3, 0),
        (L.K_STOREW, slice(4, 5), "Z", 12, 4, 1, 6)], 0),
    # an outer-product block mixing X and Y loads, and an FMLA operand
    # from X, load at full lead; the X block r2-r3 hoists
    "mixed block": ([
        (L.K_LOADW, slice(0, 1), "X", 0, 4, 1, 0),
        (L.K_LOADW, slice(1, 2), "Y", 0, 4, 1, 0),
        (L.K_LOADW, slice(2, 4), "X", 4, 4, 2, 2),
        (L.K_LOADW, slice(4, 5), "X", 12, 4, 1, 6),
        (L.K_VZERO, 8), (L.K_VZERO, 9), (L.K_VZERO, 10), (L.K_VZERO, 11),
        (L.K_MACC, slice(8, 12), (0, 1, 0, 1), (2, 2, 3, 3), False, 4),
        (L.K_FMLA, 8, 4, 4),
        (L.K_STOREW, slice(8, 12), "Z", 0, 4, 4, 0)], 1),
}


@pytest.mark.parametrize("name", DEMOTIONS)
def test_demoted_loads_keep_the_replay_bytes(name):
    """A register loaded from a read-only buffer but read where only a
    full-lead value will do is loaded at the full lead; the program
    then leaves the replay's bytes with X's view cut on one axis."""
    stream, hoistable = DEMOTIONS[name]
    _, _, meta = generate_source(stream, 4, 8)
    assert meta["stats"]["hoisted_loads"] == hoistable
    rng = np.random.default_rng(11)
    lead = (3, 5)
    mats = {"X": rng.standard_normal((1, 5, 16)),
            "Y": rng.standard_normal(lead + (16,))}
    out = []
    for program in (stream, compile_program(stream, 4, 8)):
        views = {**mats, "Z": np.zeros(lead + (16,))}
        bank = _Bank(15, 4, np.dtype(np.float64), 4)
        bank.replay(program, views, lead,
                    {k: v.view(np.complex128) for k, v in views.items()})
        out.append(views["Z"].tobytes())
    assert out[0] == out[1]


# -- (b) what a hoisted pass copies -------------------------------------------

def test_program_reports_hoisted_loads():
    compiled = lower_plan(_plan(GemmProblem(8, 8, 8, "s", batch=128)))
    tpl = compiled.templates[0]
    stream = tpl.wave_form[0]
    _, _, meta = generate_source(stream, compiled.lanes, tpl.ew)
    panel_loads = [c for c in stream if c[0] == lowering.K_LOADW
                   and c[2] in ("packA", "packB")]
    # every packA/packB load hoists; the C loads share registers with
    # packA's but write at the full lead (C is stored to)
    assert meta["stats"]["hoisted_loads"] == len(panel_loads) > 0
    assert any(c[0] == lowering.K_LOADW and c[2] == "C" for c in stream)


def _panel_copies(problem, hoist_calls):
    """Elements the generated programs copy out of packA and packB in one
    execute (each copy counted by its destination's size), with axes of
    ``hoist_calls`` or more calls hoisted."""
    counts = {"packA": 0, "packB": 0}
    live = {}
    real_copyto, real_replay = np.copyto, _Bank.replay

    def copyto(dst, src, *args, **kwargs):
        for buf, view in live.items():
            if np.may_share_memory(src, view):
                counts[buf] += dst.size
        return real_copyto(dst, src, *args, **kwargs)

    def replay(self, commands, mats, lead, matsC):
        live.clear()
        live.update({b: mats[b] for b in counts if b in mats})
        return real_replay(self, commands, mats, lead, matsC)

    fw = IATF(KUNPENG_920)
    ops = _operands(problem, 1)
    plan, compiled, _ = fw.prepare_gemm(problem)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backends, "_host_l2_bytes", lambda: 2 << 20)
        mp.setattr(backends, "HOIST_CALLS", hoist_calls)
        mp.setattr(np, "copyto", copyto)    # programs bind it at codegen
        mp.setattr(_Bank, "replay", replay)
        for _ in range(2):
            _execute(fw.engine, plan, ops, compiled)
        assert compiled.programs.complete
        counts.update(packA=0, packB=0)
        _execute(fw.engine, plan, ops, compiled)
    return counts


def test_two_call_axes_copy_half_the_panels():
    """sgemm 8^3 at batch 16384: 2x2 passes of 512 groups.  Admitted by
    the gate, each pass copies each panel once per row (packA) or
    column (packB): half of what an unhoisted pass copies."""
    problem = GemmProblem(8, 8, 8, "s", batch=16384)
    full = _panel_copies(problem, 1 << 30)
    half = _panel_copies(problem, 2)
    assert full["packA"] > 0 and full["packB"] > 0
    assert half == {b: n // 2 for b, n in full.items()}


def test_seven_call_runs_copy_each_panel_once():
    """dgemm 33^3 at batch 512 under the default gate: its 256-group
    passes are 7-call runs of one lattice row.  The 7x7 main wave's runs
    share one packB panel and copy it once, not 7 times (and the 1x7
    edge waves hoist the panel their run shares): a third of the packB
    copies remain, and fewer packA copies."""
    problem = GemmProblem(33, 33, 33, "d", batch=512)
    full = _panel_copies(problem, 1 << 30)
    part = _panel_copies(problem, backends.HOIST_CALLS)
    assert 3 * part["packB"] == full["packB"] > 0
    assert 0 < part["packA"] < full["packA"]


# -- (c) the gate ------------------------------------------------------------

def test_default_gate(hoisted, monkeypatch):
    """Under the default gate, 2-call axes and passes of fewer than
    HOIST_GROUPS groups keep full views; 4-call axes at bulk group
    counts hoist."""
    monkeypatch.setattr(backends, "_host_l2_bytes", lambda: 2 << 20)
    lanes = KUNPENG_920.lanes(GemmProblem(8, 8, 8, "s").dtype)
    cases = [(GemmProblem(8, 8, 8, "s", batch=512 * lanes), False),
             (TrsmProblem(16, 16, "s", batch=512 * lanes), True),
             (TrsmProblem(16, 16, "s", batch=(backends.HOIST_GROUPS - 1)
                          * lanes), False)]
    for problem, expect in cases:
        hoisted.clear()
        plan = _plan(problem)
        engine, compiled = Engine(KUNPENG_920), lower_plan(plan)
        ops = _operands(problem, 2)
        for _ in range(2):
            _execute(engine, plan, ops, compiled)
        assert any(hoisted) == expect, problem
        if expect:
            assert all(set(cut) <= {"packT"} for cut in hoisted)
