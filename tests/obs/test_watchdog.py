"""Bench-trajectory watchdog tests: schema, regressions, exit codes."""

import json
from pathlib import Path

import pytest

from repro.obs.__main__ import main
from repro.obs.watch import (SCHEMA_VERSION, WatchResult, check_trajectory,
                             load_trajectory, watch)


def point(gflops=10.0, ts=1.0, backend="compiled", wall=0.05, **over):
    p = {"schema": SCHEMA_VERSION, "machine": "Kunpeng 920",
         "machine_id": "kunpeng-920", "routine": "gemm",
         "backend": backend, "dtype": "s", "shape": [8, 8, 8],
         "batch": 16384, "gflops": gflops, "percent_peak": 30.0,
         "wall_seconds": wall, "repeats": 5, "timestamp": ts}
    p.update(over)
    return p


def write(tmp_path, points, name="BENCH_test.json"):
    path = tmp_path / name
    path.write_text(json.dumps(points))
    return str(path)


class TestChecks:
    def test_healthy_trajectory_passes(self):
        r = check_trajectory([point(10.0, 1.0), point(10.2, 2.0)])
        assert r.ok and r.exit_code == 0

    def test_injected_20pct_regression_flagged(self):
        r = check_trajectory([point(10.0, 1.0), point(8.0, 2.0)])
        assert r.exit_code == 1
        assert "REGRESSION" in r.render()

    def test_within_threshold_tolerated(self):
        r = check_trajectory([point(10.0, 1.0), point(9.5, 2.0)])
        assert r.exit_code == 0

    def test_custom_threshold(self):
        pts = [point(10.0, 1.0), point(9.5, 2.0)]
        assert check_trajectory(pts, gflops_threshold=0.02).exit_code == 1

    def test_compares_against_best_not_latest(self):
        # a slow decay that never dips 10% below the best must still trip
        pts = [point(10.0, 1.0), point(9.4, 2.0), point(8.8, 3.0)]
        assert check_trajectory(pts).exit_code == 1

    def test_series_are_independent(self):
        pts = [point(10.0, 1.0, backend="compiled"),
               point(8.0, 2.0, backend="fused"),   # different series
               point(8.0, 3.0, backend="fused")]
        assert check_trajectory(pts).exit_code == 0

    def test_wall_check_is_opt_in(self):
        pts = [point(10.0, 1.0, wall=0.05), point(10.0, 2.0, wall=0.5)]
        assert check_trajectory(pts).exit_code == 0
        r = check_trajectory(pts, wall_threshold=0.5)
        assert r.exit_code == 1
        assert "wall" in r.regressions[0]

    def test_mega_floor(self):
        pts = [point(10.0, 1.0, backend="fused", wall=0.05),
               point(10.0, 1.0, backend="megakernel", wall=0.04)]
        assert check_trajectory(pts).exit_code == 0
        r = check_trajectory(pts, mega_floor=1.5)
        assert r.exit_code == 1            # 0.05/0.04 = 1.25 < 1.5
        assert "megakernel lost its edge" in r.regressions[0]
        assert check_trajectory(pts, mega_floor=1.2).exit_code == 0

    def test_mega_floor_notes_missing_backend(self):
        pts = [point(10.0, 1.0, backend="fused", wall=0.05)]
        r = check_trajectory(pts, mega_floor=1.2)
        assert r.exit_code == 0
        assert any("mega floor" in n for n in r.notes)


class TestDrift:
    """Observed-vs-model drift: advisory verdicts, never exit-code
    failures."""

    def test_drift_is_opt_in(self):
        pts = [point(10.0, 1.0, wall=0.01), point(10.0, 2.0, wall=0.05)]
        assert check_trajectory(pts).drifts == []

    def test_growing_wall_model_ratio_flagged(self):
        pts = [point(10.0, 1.0, wall=0.01), point(10.0, 2.0, wall=0.025)]
        r = check_trajectory(pts, drift_threshold=0.5)
        assert len(r.drifts) == 1
        d = r.drifts[0]
        assert d["machine_id"] == "kunpeng-920"
        assert d["routine"] == "gemm" and d["shape"] == [8, 8, 8]
        assert d["ratio"] == pytest.approx(2.5)
        assert "DRIFT" in r.render()

    def test_drift_never_fails_the_run(self):
        pts = [point(10.0, 1.0, wall=0.01), point(10.0, 2.0, wall=0.5)]
        r = check_trajectory(pts, drift_threshold=0.1)
        assert r.drifts and r.exit_code == 0

    def test_within_threshold_quiet(self):
        pts = [point(10.0, 1.0, wall=0.010), point(10.0, 2.0, wall=0.012)]
        assert check_trajectory(pts, drift_threshold=0.5).drifts == []

    def test_unwalled_points_ignored(self):
        pts = [point(10.0, 1.0, wall=None), point(10.0, 2.0, wall=0.05)]
        assert check_trajectory(pts, drift_threshold=0.1).drifts == []

    def test_baseline_is_best_earlier_ratio(self):
        # middle point is the cheapest ratio; drift measured against it
        pts = [point(10.0, 1.0, wall=0.02), point(10.0, 2.0, wall=0.01),
               point(10.0, 3.0, wall=0.018)]
        r = check_trajectory(pts, drift_threshold=0.5)
        assert r.drifts[0]["ratio"] == pytest.approx(1.8)

    def test_drift_emits_event(self):
        from repro import obs

        pts = [point(10.0, 1.0, wall=0.01), point(10.0, 2.0, wall=0.05)]
        with obs.scoped() as reg:
            check_trajectory(pts, drift_threshold=0.5)
            names = [e["name"] for e in reg.events.tail(prefix="watch.")]
        assert "watch.drift" in names


class TestLoading:
    def test_v1_points_skipped_not_fatal(self, tmp_path):
        v1 = {"timestamp": 1.0, "size": 8, "dtype": "s", "batch": 16384,
              "seconds": {"compiled": 0.05}}   # no "schema" key
        path = write(tmp_path, [v1, point(10.0, 1.0), point(10.0, 2.0)])
        r = watch([path])
        assert r.exit_code == 0
        assert r.skipped_v1 == 1

    def test_malformed_point_is_schema_problem(self, tmp_path):
        bad = point(10.0, 1.0)
        del bad["machine_id"]
        path = write(tmp_path, [bad])
        assert watch([path]).exit_code == 2

    def test_wrong_type_is_schema_problem(self, tmp_path):
        path = write(tmp_path, [point(10.0, 1.0, shape="8x8x8")])
        assert watch([path]).exit_code == 2

    def test_unreadable_file_is_schema_problem(self, tmp_path):
        assert watch([str(tmp_path / "missing.json")]).exit_code == 2

    def test_non_list_is_schema_problem(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"not": "a list"}')
        assert watch([str(path)]).exit_code == 2

    def test_empty_trajectory_is_schema_problem(self, tmp_path):
        path = write(tmp_path, [])
        assert watch([str(path)]).exit_code == 2

    def test_multiple_files_merge_into_one_series(self, tmp_path):
        p1 = write(tmp_path, [point(10.0, 1.0)], "a.json")
        p2 = write(tmp_path, [point(8.0, 2.0)], "b.json")
        assert watch([p1, p2]).exit_code == 1

    def test_load_reports_problem_location(self, tmp_path):
        result = WatchResult()
        path = write(tmp_path, [point(10.0, 1.0), "nonsense"])
        pts = load_trajectory(path, result)
        assert len(pts) == 1
        assert "[1]" in result.problems[0]


class TestCommittedBaseline:
    """Acceptance: the committed seed passes; a synthetic regression
    on top of it exits nonzero."""

    SEED = str(Path(__file__).resolve().parents[2] / "BENCH_backends.json")

    def test_committed_seed_passes(self):
        r = watch([self.SEED])
        assert r.exit_code == 0, r.render()
        assert r.points_seen >= 4          # one per backend

    def test_synthetic_regression_on_seed_fails(self, tmp_path):
        pts = json.load(open(self.SEED))
        regressed = [dict(p, gflops=p["gflops"] * 0.8,
                          timestamp=p["timestamp"] + 60)
                     for p in pts if "schema" in p]
        path = write(tmp_path, pts + regressed)
        assert watch([path]).exit_code == 1


class TestCli:
    def test_watch_ok(self, tmp_path, capsys):
        path = write(tmp_path, [point(10.0, 1.0), point(10.0, 2.0)])
        assert main(["watch", path]) == 0
        assert "all series healthy" in capsys.readouterr().out

    def test_watch_regression_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, [point(10.0, 1.0), point(8.0, 2.0)])
        assert main(["watch", path]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_watch_threshold_flag(self, tmp_path):
        path = write(tmp_path, [point(10.0, 1.0), point(9.5, 2.0)])
        assert main(["watch", path, "--threshold", "0.02"]) == 1
        assert main(["watch", path, "--threshold", "0.10"]) == 0

    def test_watch_drift_flag(self, tmp_path, capsys):
        path = write(tmp_path, [point(10.0, 1.0, wall=0.01),
                                point(10.0, 2.0, wall=0.05)])
        assert main(["watch", path, "--drift-threshold", "0.5"]) == 0
        assert "DRIFT" in capsys.readouterr().out
