"""The four workloads, each against the default configuration of a public
entry point (``IATF()``, ``BlasService()``, ``tune_problem``).

Every workload makes its inputs from the seed before anything is timed
(tune_sweep's only inputs are its shapes, so the seed does not vary it),
sets up (entry-point construction through an untimed warm-up) and then
measures repetitions until the run's seconds are spent.  A repetition is
a round over the problem list (lib_bulk), a pass over the list with a
fresh entry point (lib_cold_shapes, tune_sweep) or one pass of the
closed loop over the request pool (serve_closed).  Outputs are checked
against :mod:`repro.reference`, or a pinned digest, outside the timed
regions.

A traced run spends the first half of its seconds on the untraced path,
which gives the untraced time per operation, and the second half with
the layer wrappers of :mod:`perfbench.tracing` installed.  Library calls
are then made as one public call per layer (interleave, ``plan_*``,
``prepare_*``, ``execute_*``, de-interleave) inside one root span per
call.
"""

from __future__ import annotations

import dataclasses
import queue
import statistics
import time
from contextlib import nullcontext

import numpy as np

from repro import IATF, CompactBatch
from repro.errors import RejectedError
from repro.serve import BlasService
from repro.serve.client import make_request
from repro.tuning.db import TuningDB
from repro.tuning.tuner import tune_problem
from repro.types import GemmProblem

from . import gate
from .grids import COLD_WARMUP, TUNE_WARMUP, Grid
from .report import PER_LAYER_UNITS
from .tracing import LAYERS, Tracer, installed

#: added to the seed for the serve warm-up stream, so warm-up requests
#: share the shapes of the measured ones but not their data
WARMUP_SEED_OFFSET = 1_000_003

SERVE_STAGES = ("admit", "coalesce_wait", "stack", "plan", "execute",
                "scatter")


@dataclasses.dataclass
class Outcome:
    """Raw measurements of one run."""

    #: untraced repetitions: (operations, seconds, per-op latencies,
    #: per-op host probe seconds, timed next to the op or its repetition)
    reps: list = dataclasses.field(default_factory=list)
    #: set-ups: (seconds, host probe seconds just before the set-up)
    setup_s: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    flops: float = 0.0             # useful flops over the untraced reps
    layers: "dict | None" = None   # per-layer metrics (traced runs)
    table: "list | None" = None    # (row, ms/op) summing to the e2e time
    e2e_ms: float = 0.0            # traced end-to-end ms per op
    tracer: "Tracer | None" = None

    @property
    def ops(self) -> int:
        return sum(r[0] for r in self.reps)

    @property
    def busy_s(self) -> float:
        return sum(r[1] for r in self.reps)

    def note(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


# -- inputs ------------------------------------------------------------------

@dataclasses.dataclass
class Call:
    """One library call with its pre-generated operands and reference."""

    problem: object
    operands: tuple
    expected: gate.Expected


def _rand(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    x = rng.standard_normal(shape)
    if dtype.is_complex:
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype.np_dtype)


def make_call(problem, rng: np.random.Generator) -> Call:
    dt = problem.dtype
    b = problem.batch
    if isinstance(problem, GemmProblem):
        ops = (_rand(rng, (b, *problem.a_shape), dt),
               _rand(rng, (b, *problem.b_shape), dt),
               _rand(rng, (b, *problem.c_shape), dt))
    else:
        d = problem.a_dim
        a = _rand(rng, (b, d, d), dt)
        tri = np.tril(a) if problem.uplo.value == "L" else np.triu(a)
        # diagonally dominant, so every solve is well conditioned
        ops = (tri + d * np.eye(d, dtype=dt.np_dtype),
               _rand(rng, (b, *problem.b_shape), dt))
    return Call(problem, ops, gate.expect(problem, *ops, rng=rng))


def invoke(iatf: IATF, call: Call) -> np.ndarray:
    """The user's path: NumPy in, NumPy out, one public call."""
    p = call.problem
    if isinstance(p, GemmProblem):
        return iatf.gemm(*call.operands, alpha=p.alpha, beta=p.beta,
                         transa=p.transa, transb=p.transb)
    return iatf.trsm(*call.operands, alpha=p.alpha, side=p.side,
                     uplo=p.uplo, transa=p.transa, diag=p.diag)


def invoke_layered(iatf: IATF, call: Call) -> np.ndarray:
    """The same call made as one public call per layer."""
    p = call.problem
    lanes = iatf.machine.lanes(p.dtype)
    packed = [CompactBatch.from_matrices(x, lanes, p.dtype)
              for x in call.operands]
    if isinstance(p, GemmProblem):
        iatf.plan_gemm(p)
        plan, compiled, _ = iatf.prepare_gemm(p)
        out = iatf.engine.execute_gemm(plan, *packed, compiled=compiled)
    else:
        iatf.plan_trsm(p)
        plan, compiled, _ = iatf.prepare_trsm(p)
        out = iatf.engine.execute_trsm(plan, *packed, compiled=compiled)
    return out.to_matrices()


def _step(tracer: "Tracer | None"):
    """How each library call is made: the user's one call, or, traced,
    one call per layer inside a root span."""
    if tracer is None:
        return invoke
    return lambda iatf, call: tracer.rooted("op", invoke_layered, iatf, call)


def _wrapped(tracer: "Tracer | None"):
    return nullcontext() if tracer is None else installed(tracer)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


_PROBE_TILES = [np.ones((8, 8), np.float32) for _ in range(32)]


def host_probe() -> float:
    """Seconds a fixed mix of pure-Python and small-NumPy work takes
    right now (best of two).

    Other tenants of a shared host slow everything by up to 60 % for
    seconds to minutes; the probe, timed next to the work, lets the
    report state timings at one reference host speed.  The library's
    time goes to both kinds of work, so the probe has both."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        x = 0
        for i in range(50_000):
            x += i
        for _ in range(60):
            a = np.stack(_PROBE_TILES)
            a = (a + a).transpose(0, 2, 1).copy()
        best = min(best, time.perf_counter() - t0)
    return best


def _repeat(phase_s: float, rep) -> list:
    """``rep()`` results until ``phase_s`` seconds have passed (at least
    one)."""
    results = []
    t_end = time.perf_counter() + phase_s
    while not results or time.perf_counter() < t_end:
        results.append(rep())
    return results


def _rep(lat: list, probes: list) -> tuple:
    """A repetition of operations made one after another."""
    return len(lat), sum(lat), lat, probes


def _cache_lookups(iatf: IATF) -> "tuple[int, int]":
    s = iatf.plan_cache_stats
    return s["hits"], s["misses"]


def _hit_ratio(before, after) -> float:
    hits = after[0] - before[0]
    total = hits + after[1] - before[1]
    return hits / total if total else 0.0


def _percent_peak(iatf: IATF, problems) -> float:
    """Mean cycle-model percent of peak over ``problems`` (modeled, the
    paper's Figs. 11-12 cross-check; never a measured figure)."""
    vals = []
    for p in problems:
        plan = (iatf.plan_gemm(p) if isinstance(p, GemmProblem)
                else iatf.plan_trsm(p))
        vals.append(iatf.engine.time_plan(plan).percent_of_peak)
    return statistics.fmean(vals)


def _op_count(reps) -> int:
    return sum(r[0] for r in reps)


# -- lib_bulk ------------------------------------------------------------------

def lib_bulk(grid: Grid, seed: int, seconds: float,
             trace: bool) -> Outcome:
    rng = np.random.default_rng(seed)
    calls = [make_call(p, rng) for p in grid.bulk]
    out = Outcome()
    for _ in range(1 if trace else grid.setups):
        probe = host_probe()
        t0 = time.perf_counter()
        iatf = IATF()
        for call in calls:
            invoke(iatf, call)
        out.setup_s.append((time.perf_counter() - t0, probe))

    def one_round(tracer: "Tracer | None") -> tuple:
        probe = host_probe()
        step = _step(tracer)
        timed = [_timed(step, iatf, call) for call in calls]
        for call, (res, _dt) in zip(calls, timed):
            out.note(gate.matches(res, call.expected))
        return _rep([dt for _res, dt in timed], [probe] * len(calls))

    phase = seconds / 2 if trace else seconds
    before = _cache_lookups(iatf)
    out.reps = _repeat(phase, lambda: one_round(None))
    out.flops = sum(c.problem.flops for c in calls) * len(out.reps)
    if not trace:
        return out
    hit_ratio = _hit_ratio(before, _cache_lookups(iatf))
    tracer = Tracer()
    with installed(tracer):
        traced = _repeat(phase, lambda: one_round(tracer))
    _layer_metrics(out, tracer, _op_count(traced))
    out.layers.update({"plan_cache.hit_ratio": hit_ratio,
                       "model.percent_peak": _percent_peak(iatf, grid.bulk)})
    return out


# -- lib_cold_shapes -----------------------------------------------------------

def lib_cold_shapes(grid: Grid, seed: int, seconds: float,
                    trace: bool) -> Outcome:
    rng = np.random.default_rng(seed)
    calls = [make_call(p, rng) for p in grid.cold]
    warm = make_call(COLD_WARMUP, rng)
    out = Outcome()
    lookups = [0, 0]

    def one_pass(tracer: "Tracer | None") -> tuple:
        probe = host_probe()
        t0 = time.perf_counter()
        iatf = IATF()
        invoke(iatf, warm)
        out.setup_s.append((time.perf_counter() - t0, probe))
        before = _cache_lookups(iatf)
        step = _step(tracer)
        with _wrapped(tracer):
            timed = [(host_probe(), *_timed(step, iatf, call))
                     for call in calls]
        for i, v in enumerate(_cache_lookups(iatf)):
            lookups[i] += v - before[i]
        for call, (_probe, res, _dt) in zip(calls, timed):
            out.note(gate.matches(res, call.expected))
        return _rep([dt for _p, _res, dt in timed],
                    [p for p, _res, _dt in timed])

    phase = seconds / 2 if trace else seconds
    out.reps = _repeat(phase, lambda: one_pass(None))
    out.flops = sum(c.problem.flops for c in calls) * len(out.reps)
    if not trace:
        return out
    hit_ratio = _hit_ratio((0, 0), lookups)
    tracer = Tracer()
    traced = _repeat(phase, lambda: one_pass(tracer))
    _layer_metrics(out, tracer, _op_count(traced))
    out.layers.update({"plan_cache.hit_ratio": hit_ratio,
                       "model.percent_peak": _percent_peak(IATF(),
                                                           grid.cold)})
    return out


# -- serve_closed --------------------------------------------------------------

def closed_loop(svc: BlasService, pool, outstanding: int
                ) -> "tuple[float, list, int]":
    """Send every request of ``pool`` once, keeping ``outstanding`` in
    flight from this one thread: each completion callback hands the
    finished future back, and the next request is submitted in its place.
    Returns the start time, ``(index, future, completed_at, latency)`` of
    every accepted request in completion order, and the number rejected.
    Results are left on the futures, to be checked after the timer."""
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    t_start = time.perf_counter()
    state = {"sent": 0, "in_flight": 0, "rejected": 0}
    samples = []

    def submit() -> None:
        i = state["sent"]
        state["sent"] += 1
        t = time.perf_counter()
        try:
            fut = svc.submit(pool[i])
        except RejectedError:
            state["rejected"] += 1
            return
        state["in_flight"] += 1
        fut.add_done_callback(
            lambda f, i=i, t=t: done.put((i, t, f, time.perf_counter())))

    for _ in range(min(outstanding, len(pool))):
        submit()
    while state["in_flight"]:
        i, t_sub, fut, t_done = done.get()
        state["in_flight"] -= 1
        samples.append((i, fut, t_done, t_done - t_sub))
        if state["sent"] < len(pool):
            submit()
    return t_start, samples, state["rejected"]


def _serve_round(svc: BlasService, pool, outstanding: int, expected,
                 out: Outcome) -> tuple:
    """One repetition: the pool sent once through the closed loop, timed
    from the first submission to the last completion; every future is
    checked afterwards.  Returns ``(requests, seconds, latencies)``, the
    latencies in pool order."""
    t_start, samples, rejected = closed_loop(svc, pool, outstanding)
    for _ in range(rejected):
        out.note(False)
    for i, fut, _t, _lat in samples:
        out.note(fut.exception() is None
                 and gate.matches(fut.result(), expected[i]))
    span = samples[-1][2] - t_start if samples else 0.0
    return len(samples), span, [lat for _i, _f, _t, lat in sorted(
        samples, key=lambda sample: sample[0])]


def _await_ledger(svc: BlasService, recorded: int,
                  timeout: float = 10.0) -> dict:
    """Service stats once the budget ledger holds ``recorded`` requests:
    the ledger is written just after each future resolves."""
    t_end = time.perf_counter() + timeout
    while True:
        stats = svc.stats()
        if (stats["budget"]["by_tenant"]["recorded"] >= recorded
                or time.perf_counter() > t_end):
            return stats
        time.sleep(0.001)


def _ledger_totals(stats: dict) -> "tuple[int, dict]":
    groups = stats["budget"]["by_tenant"]["groups"].values()
    count = sum(g["count"] for g in groups)
    return count, {s: sum(g["stages_ms"][s] for g in groups)
                   for s in SERVE_STAGES}


def serve_closed(grid: Grid, seed: int, seconds: float,
                 trace: bool) -> Outcome:
    rng = np.random.default_rng(seed)
    tenants = grid.serve_tenants
    pool = [make_request(rng, i, tenants=tenants)
            for i in range(grid.serve_pool)]
    expected = [gate.expect(r.problem, r.a, r.b, r.c) for r in pool]
    warm_rng = np.random.default_rng(seed + WARMUP_SEED_OFFSET)
    warm_pool = [make_request(warm_rng, i, tenants=tenants)
                 for i in range(grid.serve_warmup)]
    out = Outcome()
    svc = None
    try:
        for _ in range(1 if trace else grid.setups):
            if svc is not None:
                svc.stop()
            probe = host_probe()
            t0 = time.perf_counter()
            svc = BlasService()
            svc.start()
            closed_loop(svc, warm_pool, grid.serve_outstanding)
            out.setup_s.append((time.perf_counter() - t0, probe))

        def one_round(into: Outcome) -> tuple:
            probe = host_probe()
            n, span, lat = _serve_round(svc, pool, grid.serve_outstanding,
                                        expected, into)
            return n, span, lat, [probe] * n

        phase = seconds / 2 if trace else seconds
        before = _cache_lookups(svc.iatf)
        out.reps = _repeat(phase, lambda: one_round(out))
        out.flops = (sum(r.problem.flops for r in pool)
                     * out.ops / len(pool))
        if not trace:
            return out
        hit_ratio = _hit_ratio(before, _cache_lookups(svc.iatf))
        untraced_ms = statistics.fmean(
            t for _n, _s, lat, _p in out.reps for t in lat) * 1e3
        accepted = grid.serve_warmup + out.attempted
        s0 = _await_ledger(svc, accepted)
        traced = Outcome()
        tracer = Tracer()
        with installed(tracer):
            traced_reps = _repeat(phase, lambda: one_round(traced))
        s1 = _await_ledger(svc, accepted + traced.attempted)
        out.attempted += traced.attempted
        out.failed += traced.failed
        _serve_layer_metrics(out, tracer,
                             [t for _n, _s, lat, _p in traced_reps
                              for t in lat],
                             untraced_ms, s0, s1)
        out.layers.update({
            "plan_cache.hit_ratio": hit_ratio,
            "model.percent_peak": _percent_peak(
                svc.iatf, sorted({dataclasses.replace(r.problem, batch=64)
                                  for r in pool}, key=repr)),
        })
        return out
    finally:
        if svc is not None:
            svc.stop()


# -- tune_sweep ----------------------------------------------------------------

def tune_sweep(grid: Grid, seed: int, seconds: float,
               trace: bool) -> Outcome:
    shapes = grid.tune
    machine = IATF().machine            # the machine IATF() defaults to
    out = Outcome()
    winners = {}                        # problem -> record (deterministic)

    def tune_into(p, db: TuningDB) -> None:
        outcome = tune_problem(p, machine, timestamp=0.0)
        db.put(outcome.key, outcome.record)
        winners[p] = outcome.record

    def one_pass(tracer: "Tracer | None") -> tuple:
        probe = host_probe()
        t0 = time.perf_counter()
        db = TuningDB()
        tune_problem(TUNE_WARMUP, machine, timestamp=0.0)
        out.setup_s.append((time.perf_counter() - t0, probe))
        step = (tune_into if tracer is None else
                lambda p, db: tracer.rooted("op.tune", tune_into, p, db))
        with _wrapped(tracer):
            timed = [(host_probe(), _timed(step, p, db)[1]) for p in shapes]
        ok = gate.db_digest(db) == grid.tune_digest
        for _ in shapes:
            out.note(ok)
        return _rep([dt for _p, dt in timed], [p for p, _dt in timed])

    phase = seconds / 2 if trace else seconds
    out.reps = _repeat(phase, lambda: one_pass(None))
    if not trace:
        return out
    tracer = Tracer()
    n = _op_count(_repeat(phase, lambda: one_pass(tracer)))
    _layer_metrics(out, tracer, n)
    out.layers.update({
        "model.percent_peak": statistics.fmean(
            100.0 * r.gflops / machine.peak_gflops(p.dtype)
            for p, r in winners.items()),
        "tuning.candidates_measured": statistics.fmean(
            r.candidates for r in winners.values()),
    })
    return out


WORKLOADS = {
    "lib_bulk": lib_bulk,
    "lib_cold_shapes": lib_cold_shapes,
    "serve_closed": serve_closed,
    "tune_sweep": tune_sweep,
}


# -- per-layer metrics ---------------------------------------------------------

def _from_tracer(tracer: Tracer, ops: int) -> dict:
    """Every per-layer metric, with the wrapper-measured ones filled in:
    layer self times (ms) and counts, per end-to-end operation."""
    ms = {k: v * 1e3 / ops for k, v in tracer.self_s.items()}
    per = {k: v / ops for k, v in tracer.counts.items()}
    layers = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    layers.update({k: v for k, v in per.items() if k in layers})
    layers.update({
        "layout.interleave_ms": ms.get("layout.interleave", 0.0),
        "layout.deinterleave_ms": ms.get("layout.deinterleave", 0.0),
        "plan.ms": ms.get("plan", 0.0),
        "lower.ms": ms.get("lower", 0.0),
        "execute.ms": ms.get("execute", 0.0),
        "pack.ms": ms.get("pack", 0.0),
        "model.time_plan_ms": ms.get("model", 0.0),
        "tuning.rank_ms": ms.get("tuning.rank", 0.0),
    })
    return layers


def _layer_metrics(out: Outcome, tracer: Tracer, ops: int) -> None:
    """Per-layer metrics of a run whose every layer span sits under a
    root span (library and tuning workloads)."""
    out.tracer = tracer
    out.layers = _from_tracer(tracer, ops)
    out.e2e_ms = tracer.root_s * 1e3 / ops
    out.table = [(layer, tracer.self_s.get(layer, 0.0) * 1e3 / ops)
                 for layer in LAYERS]
    out.layers.update({
        "codegen.share": tracer.self_s.get("codegen", 0.0) / tracer.root_s,
        "trace.residual_share": (tracer.self_s.get("residual", 0.0)
                                 / tracer.root_s),
        "trace.overhead_ratio": out.e2e_ms / (out.busy_s * 1e3 / out.ops),
    })


def _serve_layer_metrics(out: Outcome, tracer: Tracer, latencies: list,
                         untraced_ms: float, s0: dict, s1: dict) -> None:
    """Serve requests span two threads, so the conservation table is the
    service's own budget ledger (its stages telescope to each request's
    wall) plus the residual between that and the client-side latency;
    the wrapper spans on the pump thread give the layer breakdown."""
    n = len(latencies)
    out.tracer = tracer
    out.layers = _from_tracer(tracer, n)
    c0, st0 = _ledger_totals(s0)
    c1, st1 = _ledger_totals(s1)
    stages = {s: (st1[s] - st0[s]) / max(1, c1 - c0) for s in SERVE_STAGES}
    out.e2e_ms = statistics.fmean(latencies) * 1e3
    residual = out.e2e_ms - sum(stages.values())
    out.table = [(f"serve.{s}", v) for s, v in stages.items()]
    out.table.append(("residual", residual))
    flushes = s1["coalesce"]["flushes"] - s0["coalesce"]["flushes"]
    flushed = (s1["coalesce"]["coalesced_requests"]
               - s0["coalesce"]["coalesced_requests"])
    out.layers.update({f"serve.{s}_ms": v for s, v in stages.items()})
    out.layers.update({
        "serve.coalesce_ratio": flushed / flushes if flushes else 0.0,
        "serve.flushes": float(flushes),
        "serve.rejected": float(s1["admission"]["rejected"]
                                - s0["admission"]["rejected"]),
        "codegen.share": (tracer.self_s.get("codegen", 0.0) * 1e3 / n
                          / out.e2e_ms),
        "trace.residual_share": residual / out.e2e_ms,
        "trace.overhead_ratio": out.e2e_ms / untraced_ms,
    })
