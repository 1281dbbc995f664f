"""BlasService end to end: correctness, admission, draining, stats.

The load-bearing test is the 512-request sweep: mixed GEMM/TRSM traffic
over several shapes, dtypes, and tenants, every coalesced result
compared **bit for bit** against serial per-request execution through a
fresh IATF.  That is the service's whole contract — coalescing is an
implementation detail callers must not be able to observe in their
numbers.
"""

import json

import numpy as np
import pytest

from repro import IATF, obs
from repro.errors import InvalidProblemError, RejectedError
from repro.serve import BlasService, Request
from repro.serve.client import make_request


def serial_result(req) -> np.ndarray:
    """What a dedicated batch-1 run produces for ``req``."""
    p = req.problem
    iatf = serial_result.iatf
    if req.routine == "gemm":
        return iatf.gemm(req.a[None], req.b[None], req.c[None],
                         alpha=p.alpha, beta=p.beta,
                         transa=p.transa, transb=p.transb)[0]
    return iatf.trsm(req.a[None], req.b[None], alpha=p.alpha,
                     side=p.side, uplo=p.uplo, transa=p.transa,
                     diag=p.diag)[0]


serial_result.iatf = IATF()


class TestBitIdenticalToSerial:
    def test_512_mixed_requests_match_serial_exactly(self):
        """The acceptance sweep: 512 requests, every shape/dtype/mode in
        the traffic menu, coalesced into compact batches — results must
        equal serial execution bit for bit."""
        rng = np.random.default_rng(20220829)
        reqs = [make_request(rng, i, dtypes=("s", "d", "c", "z"),
                             tenants=("alice", "bob", "carol"))
                for i in range(512)]
        with BlasService(max_batch=32, max_wait_ms=1.0) as svc:
            futs = [svc.submit(r) for r in reqs]
            outs = [f.result(timeout=120.0) for f in futs]
        stats = svc.stats()        # after stop: every callback has run
        for req, out in zip(reqs, outs):
            assert out.shape == req.out_shape
            want = serial_result(req)
            assert out.tobytes() == want.tobytes(), \
                f"coalesced != serial for {req.describe()}"
        assert stats["requests"]["completed"] == 512
        assert stats["requests"]["failed"] == 0
        # and it actually coalesced: far fewer flushes than requests
        assert stats["coalesce"]["flushes"] < 512
        assert stats["coalesce"]["ratio"] > 1.0

    def test_single_request_round_trips(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 6)).astype(np.float64)
        b = rng.standard_normal((6, 5)).astype(np.float64)
        req = Request.gemm(a, b)
        with BlasService(max_batch=8, max_wait_ms=0.5) as svc:
            out = svc.submit(req).result(timeout=60.0)
        assert out.tobytes() == serial_result(req).tobytes()

    def test_caller_operands_never_mutated(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        a = np.tril(a) + 5 * np.eye(5)
        b = rng.standard_normal((5, 3))
        a0, b0 = a.copy(), b.copy()
        with BlasService(max_batch=4, max_wait_ms=0.5) as svc:
            x = svc.submit(Request.trsm(a, b)).result(timeout=60.0)
        assert np.array_equal(a, a0) and np.array_equal(b, b0)
        assert x.shape == (5, 3)

    def test_results_own_their_memory(self):
        """A result is its own array, not a row view keeping the flush's
        whole padded batch alive."""
        rng = np.random.default_rng(2)
        reqs = [Request.gemm(rng.standard_normal((3, 4)),
                             rng.standard_normal((4, 2)))
                for _ in range(3)]
        a = np.tril(rng.standard_normal((4, 4))) + 4 * np.eye(4)
        reqs += [Request.trsm(a, rng.standard_normal((4, 3)))
                 for _ in range(3)]
        with BlasService(max_batch=8, max_wait_ms=0.5) as svc:
            outs = [f.result(timeout=60.0)
                    for f in [svc.submit(r) for r in reqs]]
        for req, out in zip(reqs, outs):
            assert out.base is None and out.flags.owndata, req.describe()
            assert out.tobytes() == serial_result(req).tobytes()


class TestAdmissionIntegration:
    def _held_service(self):
        # buckets can never self-flush: max_batch and max_wait are both
        # out of reach, so admitted requests pin their tenant's budget
        return BlasService(max_batch=1024, max_wait_ms=60_000.0,
                           max_in_flight=2, max_queue_depth=1024)

    def test_over_limit_tenant_rejected_in_limit_tenant_served(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4)).astype(np.float32)
        with obs.scoped() as reg:
            svc = self._held_service().start()
            try:
                held = [svc.submit(Request.gemm(a, a, tenant="hog"))
                        for _ in range(2)]
                with pytest.raises(RejectedError) as err:
                    svc.submit(Request.gemm(a, a, tenant="hog"))
                assert err.value.tenant == "hog"
                polite = svc.submit(Request.gemm(a, a, tenant="polite"))
            finally:
                svc.stop()                     # drains the held bucket
        for fut in held + [polite]:
            assert fut.exception() is None
        counters = reg.snapshot()["counters"]
        for name in ("serve.submitted", "serve.admitted", "serve.rejected",
                     "serve.flush"):
            assert counters.get(name, 0) > 0, name
        assert any(e["name"] == "serve.reject"
                   for e in reg.events.tail(prefix="serve."))
        stats = svc.stats()
        assert stats["admission"]["rejected"] == 1
        assert stats["requests"]["completed"] == 3
        assert stats["admission"]["in_flight"] == 0   # all released

    def test_validation_outranks_admission(self):
        # malformed input is InvalidProblemError even at full load
        with pytest.raises(InvalidProblemError):
            Request.gemm(np.ones((4, 4)), np.ones((3, 3)), tenant="hog")

    def test_submit_rejects_non_request(self):
        with BlasService(max_batch=4, max_wait_ms=0.5) as svc:
            with pytest.raises(TypeError, match="repro.serve.Request"):
                svc.submit(np.ones((4, 4)))

    def test_submit_after_stop_is_typed_rejection(self):
        svc = BlasService(max_batch=4, max_wait_ms=0.5)
        svc.start()
        svc.stop()
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        with pytest.raises(RejectedError, match="not running"):
            svc.submit(Request.gemm(a, a))
        # a rejected submit must not leak admission budget
        assert svc.admission.in_flight == 0


class TestLifecycleAndStats:
    def test_stop_drains_underfull_buckets(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        svc = BlasService(max_batch=1024, max_wait_ms=60_000.0)
        svc.start()
        futs = [svc.submit(Request.gemm(a, a)) for _ in range(5)]
        svc.stop()
        for fut in futs:
            assert fut.result(timeout=1.0) is not None
        stats = svc.stats()
        assert stats["coalesce"]["flushes"] == 1      # one drained bucket
        assert stats["coalesce"]["max_occupancy"] == 5
        assert not stats["running"]

    def test_start_is_idempotent_and_context_manager_works(self):
        svc = BlasService(max_batch=4, max_wait_ms=0.5)
        with svc as same:
            assert same is svc
            assert svc.running
            svc.start()                        # harmless second start
            assert svc.running
        assert not svc.running

    def test_stats_shape(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        with BlasService(max_batch=2, max_wait_ms=0.5) as svc:
            svc.submit(Request.gemm(a, a)).result(timeout=60.0)
        s = svc.stats()            # after stop: every callback has run
        assert set(s) == {"running", "uptime_seconds", "machine",
                          "backend", "requests", "coalesce", "wait_ms",
                          "backlog", "admission", "plan_cache", "budget",
                          "flight"}
        assert s["budget"]["by_tenant"]["recorded"] == 1
        assert s["budget"]["by_tenant"]["violations"] == 0
        assert "default" in s["budget"]["by_tenant"]["groups"]
        assert s["budget"]["by_key"]["recorded"] == 1
        assert s["requests"]["by_routine"] == {"gemm": 1}
        assert s["wait_ms"]["count"] == 1
        assert 0.0 <= s["plan_cache"]["hit_rate"] <= 1.0
        assert s["uptime_seconds"] > 0.0

    def test_stats_route_serves_json(self):
        with BlasService(max_batch=4, max_wait_ms=0.5) as svc:
            body, ctype = svc.stats_route({})
        assert ctype == "application/json"
        payload = json.loads(body)
        assert payload["machine"] == svc.machine.name
        assert payload["coalesce"]["max_batch"] == 4

    def test_plan_cache_shared_across_flushes(self):
        # same-shaped buckets, lane-quantized: one plan, many hits
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 4)).astype(np.float32)
        with BlasService(max_batch=4, max_wait_ms=0.5) as svc:
            for _ in range(4):
                futs = [svc.submit(Request.gemm(a, a)) for _ in range(4)]
                for f in futs:
                    f.result(timeout=60.0)
            cache = svc.stats()["plan_cache"]
        assert cache["hits"] >= 3
        assert cache["hit_rate"] > 0.5

    def test_flush_failure_poisons_only_its_own_bucket(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4)).astype(np.float32)
        with obs.scoped() as reg:
            with BlasService(max_batch=2, max_wait_ms=0.5) as svc:
                bad = Request.gemm(a, a)
                # sabotage one bucket's operands after validation: a
                # non-2D A makes compact_from_batch blow up in the flush
                object.__setattr__(bad, "a", np.ones(3, dtype=np.float32))
                f_bad = svc.submit(bad)
                f_bad2 = svc.submit(Request.gemm(a, a))  # same bucket
                with pytest.raises(Exception):
                    f_bad.result(timeout=60.0)
                with pytest.raises(Exception):
                    f_bad2.result(timeout=60.0)
                # the pump survives: a fresh, healthy bucket still flows
                ok = Request.gemm(a, a, alpha=2.0)        # distinct key
                out = svc.submit(ok).result(timeout=60.0)
            stats = svc.stats()    # after stop: every callback has run
            events = reg.events.tail(50, prefix="serve.")
        assert out.tobytes() == serial_result(ok).tobytes()
        assert stats["coalesce"]["flush_errors"] == 1
        assert stats["requests"]["failed"] == 2
        assert stats["requests"]["completed"] == 1
        assert any(e["name"] == "serve.flush.error" and
                   e["level"] == "error" for e in events)

    def test_deadline_miss_is_counted_not_dropped(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4))
        with BlasService(max_batch=1024, max_wait_ms=200.0) as svc:
            # a 1ms deadline accelerates the flush to ~1ms, but the
            # result still lands (deadlines shed latency, not work)
            fut = svc.submit(Request.gemm(a, a, deadline_ms=0.001))
            out = fut.result(timeout=60.0)
        stats = svc.stats()        # after stop: every callback has run
        assert out is not None
        assert stats["requests"]["completed"] == 1
        assert stats["requests"]["deadline_missed"] == 1

    def test_flush_spans_join_the_request_traces(self):
        """The pump thread re-attaches the oldest request's carrier, so
        every flush span, and the engine spans under it, belong to a
        submit-side request trace."""
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        with obs.scoped() as reg:
            with BlasService(max_batch=4, max_wait_ms=0.5) as svc:
                futs = [svc.submit(Request.gemm(a, a)) for _ in range(4)]
                for f in futs:
                    f.result(timeout=60.0)
        requests = [s for s in reg.spans if s.name == "serve.request"]
        flushes = [s for s in reg.spans if s.name == "serve.flush"]
        kernels = [s for s in reg.spans if s.name == "engine.kernels"]
        assert requests and flushes and kernels
        request_traces = {s.trace_id for s in requests}
        assert all(f.trace_id in request_traces for f in flushes)
        assert all(k.trace_id in request_traces for k in kernels)
        obs.validate_chrome_trace(obs.chrome_trace(reg))


@pytest.mark.parametrize("dtype", ["s", "z"])
def test_flush_results_are_one_copy_owning_no_batch_memory(dtype):
    """A flush's results are copied once, straight out of the compact
    batch: the same bytes as the whole-batch conversion, each in its own
    array, none sharing memory with the batch."""
    from repro.layout import CompactBatch
    from repro.serve.scheduler import _owned

    rng = np.random.default_rng(4)
    mats = rng.standard_normal((11, 3, 5))
    if dtype == "z":
        mats = mats + 1j * rng.standard_normal(mats.shape)
    cb = CompactBatch.from_matrices(mats, 2 if dtype == "z" else 4, dtype)
    full = cb.to_matrices()
    for n in (1, 7, 11):
        got = _owned(cb, n)
        assert len(got) == n
        for i, r in enumerate(got):
            assert r.tobytes() == full[i].tobytes()
            assert r.flags.owndata
            assert not np.shares_memory(r, cb.buffer)


@pytest.mark.parametrize("dtype", ["s", "d"])
def test_flush_batch_relabels_the_interleave_padding(dtype):
    """A flush's compact batch is the ``n`` stacked requests interleaved
    once and relabelled to the padded batch: byte for byte the batch of
    the stack padded with zero matrices, with no pad copy."""
    from repro.layout import CompactBatch
    from repro.serve.scheduler import _interleaved

    lanes = 4 if dtype == "s" else 2
    rng = np.random.default_rng(9)
    for n in sorted({1, lanes - 1, lanes + 1}):
        mats = [rng.standard_normal((3, 5)).astype(np.float32 if dtype == "s"
                                                   else np.float64)
                for _ in range(n)]
        padded = -(-n // lanes) * lanes
        got = _interleaved(mats, lanes, dtype, padded)
        stack = np.stack(mats)
        old = np.concatenate([stack, np.zeros((padded - n, 3, 5),
                                              stack.dtype)])
        want = CompactBatch.from_matrices(old, lanes, dtype)
        assert got.batch == want.batch == padded
        assert got.buffer.tobytes() == want.buffer.tobytes()
