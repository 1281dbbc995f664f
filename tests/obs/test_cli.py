"""Tests for the `python -m repro.obs` command line."""

import json

import pytest

from repro import obs
from repro.obs.__main__ import main


def test_snapshot_dumps_registry(capsys):
    assert main(["snapshot"]) == 0
    out = capsys.readouterr().out
    body = out.split("  counters:\n", 1)[1].split("  histograms:", 1)[0]
    counters = {name: float(value)
                for name, value in map(str.split, body.splitlines())}
    # the demo workload reaches every instrumented run-time layer
    for name in ("plan_cache.misses", "plan_cache.hits",
                 "pack_selector.gemm.calls", "pack_selector.trsm.calls",
                 "batch_counter.calls", "codegen.generated",
                 "engine.timed_plans", "tuning.retune.swapped"):
        assert counters.get(name, 0) > 0, name


def test_snapshot_writes_valid_trace(capsys, tmp_path):
    path = tmp_path / "demo.trace.json"
    assert main(["snapshot", "--trace-out", str(path)]) == 0
    assert path.exists()
    with open(path) as f:
        obs.validate_chrome_trace(json.load(f))
    assert "wrote" in capsys.readouterr().out


def test_explain_gemm(capsys):
    assert main(["explain", "gemm", "--m", "9", "--n", "9", "--k", "9",
                 "--batch", "256"]) == 0
    out = capsys.readouterr().out
    assert "batch counter" in out
    assert "pack selector" in out
    assert "tile decomposition" in out


def test_explain_trsm_deep(capsys):
    assert main(["explain", "trsm", "--m", "4", "--n", "4",
                 "--batch", "256", "--deep"]) == 0
    out = capsys.readouterr().out
    assert "mode normalization" in out
    assert "timing breakdown" in out


def test_explain_trsm_blas_mode_order(capsys):
    """--mode letters follow BLAS order: side, uplo, trans, diag."""
    assert main(["explain", "trsm", "--m", "4", "--n", "4",
                 "--batch", "64", "--mode", "RUTU"]) == 0
    out = capsys.readouterr().out
    assert "Side.RIGHT" in out and "UpLo.UPPER" in out


def test_explain_rejects_bad_mode_and_degenerate_problem(capsys):
    assert main(["explain", "trsm", "--m", "4", "--n", "4",
                 "--mode", "XX"]) == 2
    assert "side/uplo/trans/diag" in capsys.readouterr().out
    assert main(["explain", "gemm", "--m", "0", "--n", "4",
                 "--k", "4"]) == 2
    assert "error:" in capsys.readouterr().out


def test_profile_gemm_writes_artifacts(capsys, tmp_path):
    jpath = tmp_path / "p.json"
    fpath = tmp_path / "p.folded"
    tpath = tmp_path / "p.trace.json"
    assert main(["profile", "gemm", "--m", "8", "--n", "8", "--k", "8",
                 "--batch", "16384", "--json", str(jpath),
                 "--flame", str(fpath), "--trace-out", str(tpath)]) == 0
    out = capsys.readouterr().out
    assert "% of peak" in out and "conserved" in out
    with open(jpath) as f:
        d = json.load(f)
    assert sum(c["cycles"] for c in d["classes"]) == d["kernel_cycle_budget"]
    assert fpath.read_text().strip()
    with open(tpath) as f:
        obs.validate_chrome_trace(json.load(f))


def test_profile_trsm_fused_stream(capsys):
    # order 8 blocks into rectangular FMLS kernels, whose template order
    # gives the lowering's chain fusion runs to fuse; a lone in-register
    # triangular kernel (order <= 5) alternates FMUL and FMLS on each
    # column and fuses none
    assert main(["profile", "trsm", "--m", "8", "--n", "8",
                 "--batch", "256", "--stream", "fused"]) == 0
    assert "MACC" in capsys.readouterr().out


def test_profile_rejects_degenerate_problem(capsys):
    assert main(["profile", "gemm", "--m", "0", "--n", "4",
                 "--k", "4"]) == 2
    assert "error:" in capsys.readouterr().out


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_cli_leaves_global_state_untouched():
    before = obs.get_registry()
    assert main(["snapshot"]) == 0
    assert obs.get_registry() is before
    assert not obs.enabled()
