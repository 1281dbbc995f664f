"""Service-level objectives with multi-window burn-rate alerts.

An :class:`SLOSpec` is one declarative per-tenant objective over the
serve-layer telemetry — "p99 wait under 250 ms", "deadline misses
under 1%", "rejects under 5%" — and :class:`SLOMonitor` evaluates a
set of them the way a production alerting stack would: not on instant
values (one slow request would page) and not on all-time totals (a bad
hour would hide in a good week), but on **burn rates over two
windows**.  The burn rate is how fast the tenant is consuming its
error budget — ``(bad / total) / allowed_bad_ratio`` — and an alert
requires the budget to be burning in *both* a fast window (is it
happening now?) and a slow window (has it been happening long enough
to matter?).  Burn ≥ ``page_burn`` in both windows pages; burn ≥
``warn_burn`` in both warns; anything else is ok.

The monitor keeps no history of its own: it evaluates over the
registry's ring of timestamped snapshots (:meth:`Registry.sample`),
each evaluation is a pure function of two of them, and sampling is
driven by whoever scrapes ``/slo`` or ``/delta.json`` — no extra
thread.  Sampling never changes :meth:`Registry.snapshot`, so idle
stays observable.

All three objective kinds read the per-tenant telemetry the service
emits (``serve.tenant.<t>.submitted`` / ``.completed`` /
``.deadline_missed`` / ``.rejected`` counters, the
``serve.tenant.<t>.wait_ms`` histogram):

* ``latency`` — objective is a threshold in ms at a quantile; "bad"
  is the windowed count of requests whose wait landed in a histogram
  bucket above the threshold, allowed ratio is ``1 - quantile``;
* ``deadline_miss`` — objective is the allowed miss ratio, bad/total
  = windowed ``deadline_missed`` / ``completed``;
* ``reject`` — objective is the allowed reject ratio, bad/total =
  windowed ``rejected`` / (``submitted`` + ``rejected``).
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from dataclasses import dataclass

from . import core

__all__ = ["SLOSpec", "SLOMonitor", "KINDS", "default_specs"]

#: objective kinds the monitor evaluates
KINDS = ("latency", "deadline_miss", "reject")

#: verdicts, least to most severe (``dump`` reports the worst one)
VERDICTS = ("no_data", "ok", "warn", "page")


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective for one tenant.

    ``objective`` is a threshold in milliseconds for ``latency`` (at
    ``quantile``), and the maximum allowed bad-ratio for the two ratio
    kinds.  ``warn_burn``/``page_burn`` are multiples of the allowed
    budget: burn 1.0 means exactly on budget, 6.0 means burning six
    times faster than the objective allows.
    """

    name: str
    tenant: str
    kind: str
    objective: float
    quantile: float = 0.99
    fast_window_s: float = 60.0
    slow_window_s: float = 600.0
    warn_burn: float = 1.0
    page_burn: float = 6.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}; "
                             f"kinds: {', '.join(KINDS)}")
        if self.objective <= 0.0:
            raise ValueError(f"SLO objective must be positive, "
                             f"got {self.objective}")
        if self.kind != "latency" and self.objective >= 1.0:
            raise ValueError(f"{self.kind} objective is a ratio and must "
                             f"be < 1.0, got {self.objective}")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), "
                             f"got {self.quantile}")
        if self.fast_window_s <= 0 or self.slow_window_s <= 0:
            raise ValueError("SLO windows must be positive")
        if self.fast_window_s > self.slow_window_s:
            raise ValueError(
                f"fast window ({self.fast_window_s}s) must not exceed "
                f"the slow window ({self.slow_window_s}s)")

    @property
    def allowed_ratio(self) -> float:
        """The bad-request ratio the objective tolerates."""
        if self.kind == "latency":
            return 1.0 - self.quantile
        return self.objective


def default_specs(tenant: str = "default") -> "list[SLOSpec]":
    """A sane starter set for one tenant: p99 wait under 250 ms,
    deadline misses under 1%, rejects under 5%."""
    return [
        SLOSpec(name=f"{tenant}-wait-p99", tenant=tenant, kind="latency",
                objective=250.0, quantile=0.99),
        SLOSpec(name=f"{tenant}-deadline-miss", tenant=tenant,
                kind="deadline_miss", objective=0.01),
        SLOSpec(name=f"{tenant}-reject", tenant=tenant, kind="reject",
                objective=0.05),
    ]


def _counter_delta(before: dict, after: dict, name: str) -> float:
    prev = before.get("counters", {}).get(name, 0)
    now = after.get("counters", {}).get(name, 0)
    return max(0.0, now - prev)


def _cum_le(hist: dict, threshold: float) -> float:
    """Cumulative windowless count of observations ≤ the first bucket
    boundary at/above ``threshold`` (the whole count when the
    threshold exceeds every boundary means nothing is 'bad' that the
    buckets can see — callers diff the +Inf tail instead)."""
    buckets = hist.get("buckets", ())
    les = [b[0] for b in buckets]
    idx = bisect_left(les, threshold)
    if idx >= len(buckets):
        return float(hist.get("count", 0))
    return float(buckets[idx][1])


class SLOMonitor:
    """Evaluates a set of :class:`SLOSpec` over the registry's samples.

    ``evaluate()`` diffs the newest sample against the newest sample
    old enough for each window (truncating to the history's age while
    it is younger than the window, so a fresh service still gets
    verdicts).  ``route`` is the ``/slo`` endpoint handler: each scrape
    takes one :meth:`Registry.sample`, then evaluates.
    """

    def __init__(self, specs: "list[SLOSpec] | None" = None,
                 registry: "core.Registry | None" = None) -> None:
        self.specs = list(specs) if specs is not None else default_specs()
        self._registry = registry

    def registry(self) -> "core.Registry":
        return (self._registry if self._registry is not None
                else core.get_registry())

    # -- evaluation -----------------------------------------------------

    @staticmethod
    def _window_base(samples: "list[tuple[float, dict]]", now: float,
                     seconds: float) -> "dict | None":
        """The newest sample at least ``seconds`` old — or the oldest
        sample we have (window truncated to monitor age)."""
        target = now - seconds
        base = None
        for t, snap in samples:
            if t <= target:
                base = snap
            else:
                break
        if base is None and len(samples) >= 2:
            base = samples[0][1]
        return base

    def _bad_total(self, spec: SLOSpec, before: dict,
                   after: dict) -> "tuple[float, float]":
        t = spec.tenant
        if spec.kind == "deadline_miss":
            return (_counter_delta(before, after,
                                   f"serve.tenant.{t}.deadline_missed"),
                    _counter_delta(before, after,
                                   f"serve.tenant.{t}.completed"))
        if spec.kind == "reject":
            rejected = _counter_delta(before, after,
                                      f"serve.tenant.{t}.rejected")
            submitted = _counter_delta(before, after,
                                       f"serve.tenant.{t}.submitted")
            return rejected, submitted + rejected
        name = f"serve.tenant.{t}.wait_ms"
        hb = before.get("histograms", {}).get(name, {})
        ha = after.get("histograms", {}).get(name, {})
        total = max(0.0, ha.get("count", 0) - hb.get("count", 0))
        good = max(0.0, _cum_le(ha, spec.objective)
                   - _cum_le(hb, spec.objective))
        return max(0.0, total - good), total

    def _window_view(self, spec: SLOSpec, samples: list, now: float,
                     seconds: float) -> dict:
        base = self._window_base(samples, now, seconds)
        if base is None:
            return {"window_s": seconds, "bad": 0.0, "total": 0.0,
                    "ratio": None, "burn": None}
        bad, total = self._bad_total(spec, base, samples[-1][1])
        if total <= 0:
            return {"window_s": seconds, "bad": bad, "total": total,
                    "ratio": None, "burn": None}
        ratio = bad / total
        return {"window_s": seconds, "bad": bad, "total": total,
                "ratio": ratio, "burn": ratio / spec.allowed_ratio}

    def evaluate(self, now: "float | None" = None) -> "list[dict]":
        """One verdict dict per spec, from the registry's samples."""
        return self._verdicts(self.registry().samples(), now)

    def _verdicts(self, samples: list, now: "float | None") -> "list[dict]":
        t = time.monotonic() if now is None else now
        out = []
        for spec in self.specs:
            fast = self._window_view(spec, samples, t, spec.fast_window_s)
            slow = self._window_view(spec, samples, t, spec.slow_window_s)
            burns = (fast["burn"], slow["burn"])
            if any(b is None for b in burns):
                # a window without traffic is not burning budget; both
                # empty means there is nothing to judge at all
                verdict = ("no_data" if all(b is None for b in burns)
                           else "ok")
            elif all(b >= spec.page_burn for b in burns):
                verdict = "page"
            elif all(b >= spec.warn_burn for b in burns):
                verdict = "warn"
            else:
                verdict = "ok"
            out.append({
                "name": spec.name,
                "tenant": spec.tenant,
                "kind": spec.kind,
                "objective": spec.objective,
                "quantile": (spec.quantile if spec.kind == "latency"
                             else None),
                "allowed_ratio": spec.allowed_ratio,
                "warn_burn": spec.warn_burn,
                "page_burn": spec.page_burn,
                "fast": fast,
                "slow": slow,
                "verdict": verdict,
            })
        return out

    def dump(self, now: "float | None" = None) -> dict:
        """The ``/slo`` payload: verdicts plus monitor health."""
        samples = self.registry().samples()
        verdicts = self._verdicts(samples, now)
        worst = "no_data"
        for v in verdicts:
            if VERDICTS.index(v["verdict"]) > VERDICTS.index(worst):
                worst = v["verdict"]
        return {"slos": verdicts, "worst": worst,
                "samples": len(samples)}

    def route(self, query) -> "tuple[str, str]":
        """``/slo`` handler for :meth:`TelemetryServer.add_route`:
        takes one :meth:`Registry.sample`, then evaluates."""
        self.registry().sample()
        return (json.dumps(self.dump(), sort_keys=True, indent=2) + "\n",
                "application/json")
