"""Spans recorded from outside the library, around its public layer functions.

A traced run patches each layer's public function at run time with a thin
wrapper that opens one span per call, and restores the originals when the
run ends; ``src/`` is never edited.  Spans nest per thread, so a layer's
*self* time is its span's duration minus the time its child spans cover,
and the self times of every span under a root add up to the roots' total
duration exactly (the children telescope away).  That identity is the
benchmark's conservation check: layer self times + residual == traced
end-to-end time.
"""

from __future__ import annotations

import os
import threading
import time

#: layers in the order the tables print them; ``residual`` is the self
#: time of the benchmark's own per-operation root spans (validation,
#: descriptor construction and glue that no layer span covers)
LAYERS = ("layout.interleave", "plan", "lower", "codegen", "execute", "pack",
          "model", "tuning.rank", "layout.deinterleave", "residual")


class Tracer:
    """In-memory span recorder with per-thread nesting."""

    def __init__(self, max_spans: int = 200_000) -> None:
        self.t0 = time.perf_counter()
        self.max_spans = max_spans
        self.spans: "list[tuple]" = []      # (name, start, end, tid)
        self.dropped = 0
        self.self_s: "dict[str, float]" = {}
        self.counts: "dict[str, float]" = {}
        self.root_s = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str) -> None:
        self._stack().append([name, layer, time.perf_counter(), 0.0])

    def end(self) -> float:
        """Close the innermost open span on this thread; returns its
        duration in seconds."""
        t = time.perf_counter()
        stack = self._stack()
        name, layer, start, child = stack.pop()
        dur = t - start
        if stack:
            stack[-1][3] += dur
        with self._lock:
            self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - child
            if layer == "residual" and not stack:
                self.root_s += dur
            if len(self.spans) < self.max_spans:
                self.spans.append((name, start, t, threading.get_ident()))
            else:
                self.dropped += 1
        return dur

    def rooted(self, name: str, fn, *args):
        """``fn(*args)`` inside a root span: one end-to-end operation,
        whose own time outside every layer span is the residual."""
        self.begin(name, "residual")
        try:
            return fn(*args)
        finally:
            self.end()

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def chrome_trace(self) -> dict:
        """The recorded spans as a Chrome trace (``X`` events, µs)."""
        pid = os.getpid()
        tids: "dict[int, int]" = {}
        events = []
        for name, start, end, ident in self.spans:
            tid = tids.setdefault(ident, len(tids) + 1)
            events.append({"name": name, "cat": name.split(".", 1)[0],
                           "ph": "X", "pid": pid, "tid": tid,
                           "ts": (start - self.t0) * 1e6,
                           "dur": (end - start) * 1e6, "args": {}})
        return {"displayTimeUnit": "ms", "traceEvents": events}


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0) or 0)


def _targets():
    """``(owner, attribute, span name, layer, counter)`` for every public
    function the traced run wraps.  ``counter(tracer, args, result)``
    records the layer's work counts inside its span."""
    from repro.layout.compact import CompactBatch
    from repro.runtime import engine, iatf, megakernel
    from repro.runtime.engine import Engine
    from repro.runtime.iatf import IATF
    from repro.tuning import evaluate, tuner

    def layout_bytes(tr, args, out):
        tr.count("layout.bytes", _nbytes(getattr(out, "buffer", out)))

    def plan_calls(tr, args, out):
        tr.count("plan.calls")

    def lowered(tr, args, out):
        tr.count("lower.calls")
        tr.count("lower.commands_out", len(out.commands))

    def executed(tr, args, out):
        tr.count("execute.calls")
        tr.count("execute.groups", out.groups)
        tr.count("execute.bytes", sum(x.nbytes for x in args
                                      if isinstance(x, CompactBatch)))

    def packed(tr, args, out):
        data = out[0] if isinstance(out, tuple) else out.data
        tr.count("pack.bytes", _nbytes(data))

    def unpacked(tr, args, out):
        tr.count("pack.bytes", _nbytes(args[0]))

    def timed(tr, args, out):
        tr.count("model.instructions", out.detail.instructions)

    built: "dict[int, object]" = {}     # holds programs so ids stay unique

    def codegen_count(tr, args, out):
        tr.count("codegen.calls")
        if id(out) not in built:        # lines count once per program
            built[id(out)] = out
            tr.count("codegen.loc", out.stats.get("loc", 0))

    pack = ("pack", packed)
    return [
        (CompactBatch, "from_matrices", "layout.interleave",
         "layout.interleave", layout_bytes),
        (CompactBatch, "to_matrices", "layout.deinterleave",
         "layout.deinterleave", layout_bytes),
        (IATF, "plan_gemm", "plan.plan_gemm", "plan", plan_calls),
        (IATF, "plan_trsm", "plan.plan_trsm", "plan", plan_calls),
        (IATF, "prepare_gemm", "plan.prepare_gemm", "plan", plan_calls),
        (IATF, "prepare_trsm", "plan.prepare_trsm", "plan", plan_calls),
        (evaluate.Evaluator, "build_plan", "plan.build_plan", "plan",
         plan_calls),
        (iatf, "lower_plan", "lower.lower_plan", "lower", lowered),
        (engine, "lower_plan", "lower.lower_plan", "lower", lowered),
        (megakernel, "ensure_program", "codegen.ensure_program", "codegen",
         codegen_count),
        (Engine, "execute_gemm", "execute.gemm", "execute", executed),
        (Engine, "execute_trsm", "execute.trsm", "execute", executed),
        (engine, "pack_gemm_a", "pack.gemm_a", *pack),
        (engine, "pack_gemm_b", "pack.gemm_b", *pack),
        (engine, "pack_trsm_a", "pack.trsm_a", *pack),
        (engine, "pack_trsm_b", "pack.trsm_b", *pack),
        (engine, "unpack_trsm_b", "pack.unpack_trsm_b", "pack", unpacked),
        (Engine, "time_plan", "model.time_plan", "model", timed),
        (tuner, "rank_candidates", "tuning.rank_candidates", "tuning.rank",
         None),
    ]


def _wrap(fn, tracer: Tracer, name: str, layer: str, counter):
    def traced(*args, **kwargs):
        tracer.begin(name, layer)
        try:
            out = fn(*args, **kwargs)
            if counter is not None:
                counter(tracer, args, out)
            return out
        finally:
            tracer.end()
    traced.__wrapped__ = fn
    return traced


class installed:
    """Context manager: every layer wrapper is in place inside the block
    and the original functions are back after it, even on error."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: "list[tuple]" = []

    def __enter__(self) -> Tracer:
        for owner, attr, name, layer, counter in _targets():
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                patched = classmethod(_wrap(raw.__func__, self.tracer, name,
                                            layer, counter))
            else:
                patched = _wrap(raw, self.tracer, name, layer, counter)
            setattr(owner, attr, patched)
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
