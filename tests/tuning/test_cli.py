"""python -m repro.tuning: sweep, show, export."""

import json

import pytest

from repro import obs
from repro.tuning.__main__ import main, _parse_sizes


class TestParseSizes:
    def test_range(self):
        assert _parse_sizes("1:4") == (1, 2, 3, 4)

    def test_list(self):
        assert _parse_sizes("4,8,12") == (4, 8, 12)

    @pytest.mark.parametrize("bad", ["0:4", "5:2", "", "0,3", "a:b"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            _parse_sizes(bad)


class TestSweepCommand:
    def test_sweep_creates_db_and_checks(self, tmp_path, capsys):
        db = tmp_path / "t.json"
        with obs.scoped() as reg:
            rc = main(["sweep", "--db", str(db), "--op", "gemm",
                       "--sizes", "3,6", "--batch", "256", "--check",
                       "--quiet"])
        out = capsys.readouterr().out
        assert rc == 0
        assert db.exists()
        assert "reproducibility check OK" in out
        doc = json.loads(db.read_text())
        assert doc["schema"] == 3
        assert len(doc["entries"]) == 2
        counters = reg.snapshot()["counters"]
        for name in ("tuning.sweep.problems", "tuning.eval.candidates",
                     "tuning.db.saves", "tuning.db.loads"):
            assert counters.get(name, 0) > 0, name

    def test_sweep_prints_outcomes(self, tmp_path, capsys):
        rc = main(["sweep", "--db", str(tmp_path / "t.json"),
                   "--op", "gemm", "--sizes", "4", "--batch", "128"])
        assert rc == 0
        assert "gemm d 4x4x4" in capsys.readouterr().out

    def test_bad_sizes_is_usage_error(self, tmp_path, capsys):
        rc = main(["sweep", "--db", str(tmp_path / "t.json"),
                   "--sizes", "9:1"])
        assert rc == 2


class TestShowAndExport:
    @pytest.fixture()
    def db_path(self, tmp_path):
        path = tmp_path / "t.json"
        assert main(["sweep", "--db", str(path), "--op", "gemm",
                     "--sizes", "3,6", "--batch", "128", "--quiet"]) == 0
        return str(path)

    def test_show_lists_entries(self, db_path, capsys):
        assert main(["show", "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "schema v3" in out
        from repro.machine.machines import KUNPENG_920
        assert f"{KUNPENG_920.tuning_id}/gemm: 2" in out
        assert "3x3x3" in out and "6x6x6" in out

    def test_show_corrupt_db_reports_and_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        assert main(["show", "--db", str(bad)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_export_json_roundtrips(self, db_path, capsys):
        assert main(["export", "--db", db_path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["entries"]) == 2

    def test_export_csv_has_header_and_rows(self, db_path, capsys):
        assert main(["export", "--db", db_path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("machine,op,dtype,m,n,k,mode")
        assert len(lines) == 3


class TestSelfCheck:
    """There is no CLI self-check: the test suite is the check."""

    @pytest.mark.parametrize("argv", [["self-check"], ["--self-check"]])
    def test_self_check_is_rejected(self, argv):
        with pytest.raises(SystemExit):
            main(argv)

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
