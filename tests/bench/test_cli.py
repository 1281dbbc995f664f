"""Tests for the `python -m repro.bench` command line."""

import pytest

from repro.bench.__main__ import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "table1" in out


@pytest.mark.parametrize("exp", ["table1", "table2", "fig4", "fig5"])
def test_local_experiments(capsys, exp):
    assert main([exp]) == 0
    assert capsys.readouterr().out.strip()


def test_fig7_single_dtype(capsys):
    assert main(["fig7", "--dtype", "d"]) == 0
    out = capsys.readouterr().out
    assert "dgemm" in out and "IATF" in out
    assert "sgemm" not in out


def test_fig9_single_dtype(capsys):
    assert main(["fig9", "--dtype", "s"]) == 0
    assert "strsm" in capsys.readouterr().out


def test_fig8_mode_filter(capsys):
    assert main(["fig8", "--dtype", "d", "--mode", "NT"]) == 0
    out = capsys.readouterr().out
    assert "NT" in out and "TT" not in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_fig11_cli(capsys):
    assert main(["fig11", "--dtype", "d"]) == 0
    out = capsys.readouterr().out
    assert "% of peak" in out and "MKL" in out


def test_fig12_cli(capsys):
    assert main(["fig12", "--dtype", "z"]) == 0
    assert "trsm" in capsys.readouterr().out


def test_fig10_mode_filter(capsys):
    assert main(["fig10", "--dtype", "d", "--mode", "LTUN"]) == 0
    out = capsys.readouterr().out
    assert "LTUN" in out and "LNUN" not in out


def test_ablation_cli(capsys):
    assert main(["ablation"]) == 0
    out = capsys.readouterr().out
    assert "scheduler" in out.lower() or "optimizer" in out.lower()


def test_backend_showdown_cli(capsys):
    assert main(["backend"]) == 0
    out = capsys.readouterr().out
    assert "interpret" in out and "megakernel" in out
    assert "speedup" in out


def test_backend_flag_restricts_backends(capsys):
    assert main(["backend", "--backend", "megakernel"]) == 0
    out = capsys.readouterr().out
    assert "megakernel" in out and "interpret" not in out


def test_backends_showdown_covers_all_backends(capsys):
    assert main(["backends", "--batch", "512"]) == 0
    out = capsys.readouterr().out
    for name in ("interpret", "fused", "megakernel"):
        assert name in out
    assert "pass pipeline" in out and "megakernel vs fused" in out
