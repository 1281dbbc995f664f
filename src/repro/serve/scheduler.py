"""The batching pump: drain coalesced buckets through one shared IATF.

A single daemon thread owns execution.  Callers (any number of threads)
``offer`` validated, admitted requests; the pump wakes when a bucket
fills (``max_batch``) or the earliest bucket timer expires
(``max_wait_ms``), stacks the bucket's operands into one
``(batch, rows, cols)`` array, interleaves it to the compact layout
(whose zero padding lanes fill the batch out to the lane multiple it
plans on), executes it through the **shared**
:class:`~repro.runtime.iatf.IATF` instance — shared
PlanCache, shared KernelRegistry, shared TuningDB, whatever backend the
service was built with — and scatters the de-interleaved results back
to the per-request futures.

Why the results are bit-identical to serial per-request execution: the
generated kernels are elementwise across SIMD lanes (each lane is one
matrix), the plan's per-matrix arithmetic depends only on (shape,
dtype, mode) — batch size only changes the group count and round
structure — and padding lanes are zeros that no other lane reads.  The
concurrent-correctness suite pins this.

A bucket that fails (any exception from planning or execution) fails
*only its own* requests — every entry's future gets the exception, the
pump survives, and unrelated buckets keep flowing.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import nullcontext

import numpy as np

from .. import obs
from ..errors import RejectedError
from ..layout.compact import CompactBatch
from .coalesce import Bucket, Coalescer, PendingRequest

__all__ = ["Scheduler"]


class Scheduler:
    """Single-threaded executor over a :class:`Coalescer`.

    ``on_done(entry, missed_deadline)`` fires for every request after
    its future resolves (the service hooks admission release and wait
    accounting here); ``on_flush(bucket, wall_seconds, error)`` fires
    once per executed bucket.
    """

    def __init__(self, iatf, coalescer: Coalescer, *,
                 on_done=None, on_flush=None) -> None:
        self._iatf = iatf
        self._coalescer = coalescer
        self._on_done = on_done
        self._on_flush = on_flush
        self._cond = threading.Condition()
        self._ready: "deque[Bucket]" = deque()
        self._running = False
        self._thread: "threading.Thread | None" = None

    @property
    def running(self) -> bool:
        with self._cond:
            return self._running

    @property
    def backlog(self) -> int:
        """Requests parked in the coalescer plus full buckets awaiting
        the pump (not those mid-execution)."""
        with self._cond:
            return (self._coalescer.pending
                    + sum(len(b) for b in self._ready))

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        with self._cond:
            if self._running:
                return
            self._running = True
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-serve-pump",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop accepting work and drain: every already-offered request
        still resolves (possibly in an under-full bucket)."""
        with self._cond:
            self._running = False
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=60.0)
            self._thread = None

    # -- producer side --------------------------------------------------

    def offer(self, entry: PendingRequest) -> None:
        """Park one admitted request; wakes the pump."""
        with self._cond:
            if not self._running:
                raise RejectedError("service not running",
                                    entry.request.tenant)
            full = self._coalescer.add(entry, time.perf_counter())
            if full is not None:
                self._ready.append(full)
            self._cond.notify()

    # -- pump -----------------------------------------------------------

    def _loop(self) -> None:
        while True:
            buckets: "list[Bucket]" = []
            stopping = False
            with self._cond:
                while True:
                    while self._ready:
                        buckets.append(self._ready.popleft())
                    now = time.perf_counter()
                    buckets.extend(self._coalescer.pop_due(now))
                    if buckets:
                        break
                    if not self._running:
                        stopping = True
                        buckets.extend(self._coalescer.pop_all())
                        break
                    nd = self._coalescer.next_due()
                    timeout = (None if nd is None
                               else max(0.0, nd - time.perf_counter()))
                    self._cond.wait(timeout)
            for bucket in buckets:
                self._execute(bucket)
            if stopping:
                return

    def _execute(self, bucket: Bucket) -> None:
        entries = bucket.entries
        n = len(entries)
        key = bucket.key
        # the flush span joins the oldest request's trace, so a
        # submitter's timeline shows where its wall time actually went
        carrier = entries[0].carrier
        ctx = obs.attach(carrier) if carrier is not None else nullcontext()
        t0 = time.perf_counter()
        # every entry's budget shares the flush's absolute timestamps
        # for the batch stages — each request keeps its own admit /
        # coalesce_wait marks, so per-request conservation still holds
        for entry in entries:
            if entry.budget is not None:
                entry.budget.stamp("coalesce_wait", t0)
        marks: dict = {}
        error: "Exception | None" = None
        try:
            with ctx, obs.span("serve.flush", routine=bucket.routine,
                               dtype=key.dtype.value, requests=n,
                               mode=key.mode):
                outs = self._run_bucket(bucket, marks)
        except Exception as exc:   # noqa: BLE001 - scattered to futures
            error = exc
            t_err = time.perf_counter()
            for entry in entries:
                entry.future.set_exception(exc)
                if entry.budget is not None:
                    entry.budget.annotate(error=type(exc).__name__)
                    entry.budget.abort(t_err)
        else:
            for entry, out in zip(entries, outs):
                entry.future.set_result(out)
            t_scatter = time.perf_counter()
            plan_cache = marks.get("plan_cache")
            for entry in entries:
                budget = entry.budget
                if budget is None:
                    continue
                budget.stamp("stack", marks.get("stack"))
                budget.stamp("plan", marks.get("plan"))
                budget.stamp("execute", marks.get("execute"))
                budget.stamp("scatter", t_scatter)
                if plan_cache is not None:
                    budget.annotate(plan_cache=plan_cache)
        wall = time.perf_counter() - t0
        done_at = time.perf_counter()
        obs.count("serve.flush")
        obs.count("serve.flush.requests", n)
        obs.observe("serve.batch.occupancy",
                    n / self._coalescer.max_batch)
        obs.observe("serve.flush.ms", wall * 1000.0)
        if self._on_done is not None:
            for entry in entries:
                missed = (entry.deadline_at is not None
                          and done_at > entry.deadline_at)
                self._on_done(entry, missed)
        if self._on_flush is not None:
            self._on_flush(bucket, wall, error)

    def _run_bucket(self, bucket: Bucket,
                    marks: "dict | None" = None) -> "list[np.ndarray]":
        if marks is None:
            marks = {}
        iatf = self._iatf
        entries = bucket.entries
        machine, dt = iatf.machine, bucket.key.dtype
        # Quantize the batch up to a lane multiple: the compact layout
        # zero-pads there anyway, and planning on the padded size means
        # every bucket with the same *group count* shares one PlanCache
        # entry — otherwise a trickle of 5-, 6-, 7-request flushes
        # builds a plan per size and the cache never hits.
        n = len(entries)
        lanes = machine.lanes(dt)
        padded = -(-n // lanes) * lanes
        problem = bucket.key.with_batch(padded)

        def stacked(pick) -> CompactBatch:
            return _interleaved([pick(e) for e in entries], lanes, dt,
                                padded)

        # planning is split from execution (prepare_* then the engine
        # directly — exactly what {gemm,trsm}_compact do internally) so
        # the budget can attribute "plan" (cache hit vs compile) and
        # "execute" as separate stages
        if bucket.routine == "gemm":
            ca = stacked(lambda e: e.request.a)
            cb = stacked(lambda e: e.request.b)
            cc = stacked(lambda e: e.request.c)
            marks["stack"] = time.perf_counter()
            plan, compiled, hit = iatf.prepare_gemm(problem)
            marks["plan"] = time.perf_counter()
            marks["plan_cache"] = "hit" if hit else "compile"
            iatf.engine.execute_gemm(plan, ca, cb, cc, compiled=compiled)
            marks["execute"] = time.perf_counter()
            # free the operand batches first, so the copied-out results
            # can take their memory instead of growing the heap past them
            del ca, cb
            return _owned(cc, n)
        ca = stacked(lambda e: e.request.a)
        cb = stacked(lambda e: e.request.b)
        marks["stack"] = time.perf_counter()
        plan, compiled, hit = iatf.prepare_trsm(problem)
        marks["plan"] = time.perf_counter()
        marks["plan_cache"] = "hit" if hit else "compile"
        iatf.engine.execute_trsm(plan, ca, cb, compiled=compiled)
        marks["execute"] = time.perf_counter()
        del ca              # as in gemm: the results may reuse its memory
        return _owned(cb, n)


def _interleaved(mats: "list[np.ndarray]", lanes: int, dt,
                 padded: int) -> CompactBatch:
    """A flush's compact batch of ``padded`` matrices: the stacked
    ``mats``, then zeros.  ``from_matrices`` already zero-fills the last
    group's lanes past ``len(mats)``, and ``padded`` ends that group, so
    the batch is relabelled in place, with no pad copy."""
    cb = CompactBatch.from_matrices(np.stack(mats), lanes, dt)
    cb.batch = padded
    return cb


def _owned(compact, n: int) -> "list[np.ndarray]":
    """The first ``n`` matrices of a flush's compact batch, each copied
    once straight into its own array: a row view would keep the whole
    padded batch alive for as long as any one caller holds its result,
    and the padding is never copied."""
    return compact.matrices(n)
