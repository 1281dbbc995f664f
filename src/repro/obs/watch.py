"""Bench-trajectory regression watchdog (``python -m repro.obs watch``).

``BENCH_*.json`` files are perf *trajectories*: every bench/CI run
appends one uniform-schema point per executor backend (see
:mod:`repro.bench.trajectory`), so a regression shows up as a dip in a
series instead of a silently overwritten number.  This module is the
series' guard dog: it loads one or more trajectory files, groups points
by ``(machine, routine, backend, dtype, shape, batch)``, and compares
each series' **latest** point against the **best earlier** point.

Checks, composable per invocation:

* **modeled GFLOPS** (default, threshold ``--threshold``, 10%) — the
  cycle model is deterministic pure Python, identical on every host, so
  this check is CI-stable: a dip can only come from a code change that
  made plans, kernels, or the model itself worse;
* **wall clock** (opt-in, ``--wall-threshold``) — host-dependent and
  noisy, so it is never on by default; useful on pinned perf runners;
* **megakernel ratio floor** (``--mega-floor``) — within the *latest*
  run only: ``wall(fused) / wall(megakernel) >= floor``, i.e. the
  trace-compiled backend must keep its measured speedup over the
  per-instruction fused replay;
* **model drift** (opt-in, ``--drift-threshold``) — per series, has the
  host's wall clock pulled away from the cycle model's prediction over
  time?  Drift verdicts are *advisory* (never the exit code): they feed
  :meth:`repro.runtime.iatf.IATF.retune_from_watch`, which re-sweeps
  the offending shapes and swaps fresh records into the TuningDB;
* **SLO fold-in** (opt-in, ``--slo PATH``) — a saved ``/slo`` dump's
  warn/page burn-rate verdicts are rendered alongside the perf checks.
  Advisory like drift: a burning SLO marks load or capacity, not a
  code change the trajectory diff could bisect.

Exit codes: 0 all series healthy, 1 regression detected, 2 schema
problems (unreadable file, malformed points, or nothing checkable).
Pre-schema (v1) points are skipped with a note, never an error.

Stdlib only, and no repro.runtime imports at all — the watchdog must
stay importable and runnable even when a perf regression comes with a
broken runtime.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .events import event

__all__ = ["SCHEMA_VERSION", "WatchResult", "load_trajectory",
           "load_slo_dump", "point_key", "check_trajectory", "watch"]

SCHEMA_VERSION = 2
"""Uniform bench-point schema version.  v2 is the first uniform one
(machine id, backend, dtype, shape, modeled gflops, % of peak); the
ad-hoc v1 dicts had no ``schema`` key and are skipped on load."""

#: field name -> required type(s) for one v2 trajectory point
_POINT_FIELDS: "dict[str, tuple]" = {
    "schema": (int,),
    "machine": (str,),
    "machine_id": (str,),
    "routine": (str,),
    "backend": (str,),
    "dtype": (str,),
    "shape": (list, tuple),
    "batch": (int,),
    "gflops": (int, float),
    "percent_peak": (int, float),
    "wall_seconds": (int, float, type(None)),
    "repeats": (int,),
    "timestamp": (int, float),
}


@dataclass
class WatchResult:
    """Outcome of one watchdog pass over loaded trajectory points."""

    series_checked: int = 0
    points_seen: int = 0
    skipped_v1: int = 0
    regressions: "list[str]" = field(default_factory=list)
    problems: "list[str]" = field(default_factory=list)
    notes: "list[str]" = field(default_factory=list)
    drifts: "list[dict]" = field(default_factory=list)
    """Observed-vs-model drift verdicts (opt-in, ``--drift-threshold``):
    structured dicts — machine_id/routine/backend/dtype/shape/batch plus
    the drift ratio — shaped for
    :meth:`repro.runtime.iatf.IATF.retune_from_watch` to consume.
    Advisory: drift marks a *machine* that changed, not a code
    regression, so it never affects the exit code — the remedy is
    online re-tuning, not failing CI."""
    slo_alerts: "list[dict]" = field(default_factory=list)
    """Serving-SLO verdicts folded in from an ``/slo`` dump (opt-in,
    ``--slo PATH``): every objective whose multi-window burn rate
    reached ``warn`` or ``page``.  Advisory like drift — a burning SLO
    marks *load* or *capacity*, not a code regression the trajectory
    diff could bisect, so it colors the report but never the exit
    code."""

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.problems

    @property
    def exit_code(self) -> int:
        """0 healthy, 1 regression, 2 schema problems (problems win:
        a malformed trajectory cannot certify anything)."""
        if self.problems:
            return 2
        return 1 if self.regressions else 0

    def render(self) -> str:
        lines = [f"bench watchdog: {self.series_checked} series over "
                 f"{self.points_seen} points"
                 + (f" ({self.skipped_v1} pre-schema points skipped)"
                    if self.skipped_v1 else "")]
        for n in self.notes:
            lines.append(f"  note: {n}")
        for p in self.problems:
            lines.append(f"  SCHEMA PROBLEM: {p}")
        for r in self.regressions:
            lines.append(f"  REGRESSION: {r}")
        for d in self.drifts:
            lines.append(
                "  DRIFT: {}/{} {} {} {} batch={}: wall/model ratio grew "
                "{:.2f}x vs baseline (threshold {:.0f}%) — re-tune "
                "advised".format(
                    d["machine_id"], d["routine"], d["backend"], d["dtype"],
                    "x".join(map(str, d["shape"])), d["batch"],
                    d["ratio"], 100.0 * d["threshold"]))
        for a in self.slo_alerts:
            burns = tuple("n/a" if a.get(k) is None else f"{a[k]:.2f}"
                          for k in ("fast_burn", "slow_burn"))
            lines.append(
                "  SLO {}: {} (tenant {}, {}): fast burn {} / slow burn "
                "{} vs warn {} page {} — advisory".format(
                    a["verdict"].upper(), a["name"], a["tenant"], a["kind"],
                    burns[0], burns[1], a["warn_burn"], a["page_burn"]))
        if self.ok:
            lines.append("  all series healthy")
        return "\n".join(lines)


def point_key(point: dict) -> tuple:
    """The series identity a point belongs to."""
    return (point["machine_id"], point["routine"], point["backend"],
            point["dtype"], tuple(point["shape"]), point["batch"])


def _check_point(point, where: str) -> "str | None":
    """Validate one v2 point; returns a problem string or ``None``."""
    if not isinstance(point, dict):
        return f"{where}: point is not an object"
    for name, types in _POINT_FIELDS.items():
        if name not in point:
            return f"{where}: missing field {name!r}"
        v = point[name]
        if not isinstance(v, types) or isinstance(v, bool):
            return f"{where}: field {name!r} has wrong type {type(v).__name__}"
    if point["schema"] != SCHEMA_VERSION:
        return (f"{where}: schema {point['schema']} unsupported "
                f"(expected {SCHEMA_VERSION})")
    if not all(isinstance(d, int) and not isinstance(d, bool)
               for d in point["shape"]):
        return f"{where}: shape must be a list of ints"
    if point["gflops"] <= 0:
        return f"{where}: gflops must be positive"
    return None


def load_trajectory(path: str, result: WatchResult) -> "list[dict]":
    """Load one trajectory file, recording problems/skips in ``result``."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        result.problems.append(f"{path}: unreadable ({e})")
        return []
    except json.JSONDecodeError as e:
        result.problems.append(f"{path}: not valid JSON ({e})")
        return []
    if not isinstance(raw, list):
        result.problems.append(f"{path}: trajectory must be a JSON list")
        return []
    points: "list[dict]" = []
    for i, p in enumerate(raw):
        if isinstance(p, dict) and "schema" not in p:
            result.skipped_v1 += 1          # pre-schema ad-hoc point
            continue
        problem = _check_point(p, f"{path}[{i}]")
        if problem is not None:
            result.problems.append(problem)
            continue
        points.append(p)
    return points


def load_slo_dump(path: str, result: WatchResult) -> None:
    """Fold one saved ``/slo`` dump (the JSON the CI smoke scrapes)
    into ``result.slo_alerts``: every objective whose verdict is
    ``warn`` or ``page`` becomes one advisory alert.  Unreadable or
    malformed dumps are *notes*, not problems — the serving plane being
    down must not turn the perf watchdog's exit code."""
    try:
        with open(path) as f:
            dump = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        result.notes.append(f"slo dump {path}: unreadable ({e})")
        return
    slos = dump.get("slos") if isinstance(dump, dict) else None
    if not isinstance(slos, list):
        result.notes.append(f"slo dump {path}: no 'slos' list")
        return
    for v in slos:
        if not isinstance(v, dict) or v.get("verdict") not in ("warn",
                                                               "page"):
            continue
        fast, slow = v.get("fast") or {}, v.get("slow") or {}
        alert = {
            "name": v.get("name", "?"), "tenant": v.get("tenant", "?"),
            "kind": v.get("kind", "?"), "verdict": v["verdict"],
            "fast_burn": fast.get("burn"), "slow_burn": slow.get("burn"),
            "warn_burn": v.get("warn_burn"), "page_burn": v.get("page_burn"),
        }
        result.slo_alerts.append(alert)
        event("watch.slo_alert", level="warn",
              **{("slo" if k == "name" else k): v for k, v in alert.items()})


def check_trajectory(points: "list[dict]", result: "WatchResult | None" = None,
                     *, gflops_threshold: float = 0.10,
                     wall_threshold: "float | None" = None,
                     mega_floor: "float | None" = None,
                     drift_threshold: "float | None" = None) -> WatchResult:
    """Run the regression checks over already-validated points."""
    result = result if result is not None else WatchResult()
    result.points_seen += len(points)
    series: "dict[tuple, list[dict]]" = {}
    for p in sorted(points, key=lambda p: p["timestamp"]):
        series.setdefault(point_key(p), []).append(p)

    for key, pts in sorted(series.items()):
        result.series_checked += 1
        label = "{}/{} {} {} {} batch={}".format(
            key[0], key[1], key[2], key[3],
            "x".join(map(str, key[4])), key[5])
        if len(pts) < 2:
            result.notes.append(f"{label}: single point, nothing to diff")
            continue
        latest, earlier = pts[-1], pts[:-1]
        best = max(p["gflops"] for p in earlier)
        if latest["gflops"] < best * (1.0 - gflops_threshold):
            result.regressions.append(
                f"{label}: modeled {latest['gflops']:.3f} GFLOPS is "
                f"{100.0 * (1.0 - latest['gflops'] / best):.1f}% below the "
                f"best earlier point ({best:.3f}; threshold "
                f"{100.0 * gflops_threshold:.0f}%)")
        if wall_threshold is not None:
            walls = [p["wall_seconds"] for p in earlier
                     if p["wall_seconds"] is not None]
            if walls and latest["wall_seconds"] is not None:
                best_wall = min(walls)
                if latest["wall_seconds"] > best_wall * (1.0 + wall_threshold):
                    result.regressions.append(
                        f"{label}: wall {latest['wall_seconds']:.4f}s is "
                        f"{100.0 * (latest['wall_seconds'] / best_wall - 1.0):.1f}% "
                        f"above the best earlier point ({best_wall:.4f}s)")

    if mega_floor is not None:
        _check_mega_floor(series, mega_floor, result)
    if drift_threshold is not None:
        _check_drift(series, drift_threshold, result)
    # the verdict as structured events (no-ops unless instrumentation
    # is on): the durable record online re-tuning will trigger from
    for r in result.regressions:
        event("watch.regression", level="warn", detail=r)
    event("watch.verdict",
          level="error" if result.problems else
          ("warn" if result.regressions else "info"),
          exit_code=result.exit_code, series=result.series_checked,
          points=result.points_seen, regressions=len(result.regressions),
          problems=len(result.problems))
    return result


def _check_drift(series: "dict[tuple, list[dict]]", threshold: float,
                 result: WatchResult) -> None:
    """Observed-vs-model drift per series: has the machine's wall clock
    pulled away from the (fixed) cycle-model prediction over time?

    Within one series every point computes the same FLOP count, so
    ``wall_seconds * gflops`` is proportional to ``wall / predicted``
    with a constant factor — which lets the stdlib-only watchdog track
    the model-drift ratio without importing any FLOP formula from the
    runtime.  The latest walled point is compared against the *best*
    (lowest-ratio) earlier one; growth beyond ``1 + threshold`` yields
    a structured verdict in :attr:`WatchResult.drifts` and a
    ``watch.drift`` event — fuel for
    :meth:`IATF.retune_from_watch`, never an exit-code failure.
    """
    for key, pts in sorted(series.items()):
        walled = [p for p in pts if p["wall_seconds"] is not None
                  and p["wall_seconds"] > 0]
        if len(walled) < 2:
            continue
        latest, earlier = walled[-1], walled[:-1]
        metric = lambda p: p["wall_seconds"] * p["gflops"]
        baseline = min(metric(p) for p in earlier)
        if baseline <= 0:
            continue
        ratio = metric(latest) / baseline
        if ratio > 1.0 + threshold:
            verdict = {
                "machine_id": key[0], "routine": key[1], "backend": key[2],
                "dtype": key[3], "shape": list(key[4]), "batch": key[5],
                "ratio": ratio, "threshold": threshold,
            }
            result.drifts.append(verdict)
            event("watch.drift", level="warn", ratio=ratio,
                  threshold=threshold, machine_id=key[0], routine=key[1],
                  backend=key[2], dtype=key[3],
                  shape="x".join(map(str, key[4])), batch=key[5])


def _check_mega_floor(series: "dict[tuple, list[dict]]", floor: float,
                      result: WatchResult) -> None:
    """Latest-run fused-vs-megakernel wall ratio per problem shape: the
    trace-compiled backend must keep its speedup over the fused
    replay.  The floor is set from *measured* single-core numbers (see
    ``BENCH_backends.json``), deliberately below the noise band."""
    latest_by_backend: "dict[tuple, dict[str, dict]]" = {}
    for key, pts in series.items():
        shape_key = key[:2] + key[3:]       # identity minus the backend
        latest_by_backend.setdefault(shape_key, {})[key[2]] = pts[-1]
    checked = 0
    for shape_key, per_backend in sorted(latest_by_backend.items()):
        fused = per_backend.get("fused")
        mega = per_backend.get("megakernel")
        if (fused is None or mega is None
                or fused.get("wall_seconds") is None
                or mega.get("wall_seconds") is None
                or not mega["wall_seconds"]):
            continue
        checked += 1
        ratio = fused["wall_seconds"] / mega["wall_seconds"]
        if ratio < floor:
            result.regressions.append(
                "{}/{} {} {} batch={}: megakernel lost its edge — "
                "fused/megakernel wall ratio {:.2f} < floor {:.2f}".format(
                    shape_key[0], shape_key[1], shape_key[2],
                    "x".join(map(str, shape_key[3])), shape_key[4],
                    ratio, floor))
    if not checked:
        result.notes.append("mega floor requested but no run has both "
                            "fused and megakernel wall points")


def watch(paths: "list[str]", *, gflops_threshold: float = 0.10,
          wall_threshold: "float | None" = None,
          mega_floor: "float | None" = None,
          drift_threshold: "float | None" = None,
          slo_path: "str | None" = None) -> WatchResult:
    """Load trajectory files and run every requested check."""
    result = WatchResult()
    points: "list[dict]" = []
    for path in paths:
        points.extend(load_trajectory(path, result))
    if not points and not result.problems:
        result.problems.append("no checkable trajectory points found in: "
                               + ", ".join(paths))
    check_trajectory(points, result, gflops_threshold=gflops_threshold,
                     wall_threshold=wall_threshold, mega_floor=mega_floor,
                     drift_threshold=drift_threshold)
    if slo_path is not None:
        load_slo_dump(slo_path, result)
    return result
