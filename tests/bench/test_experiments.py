"""Experiment-function tests: every paper artifact regenerates and the
headline qualitative claims hold on a quick grid."""

import pytest

from repro.bench import experiments
from repro.bench.harness import BenchHarness
from repro.bench.reporting import markdown_table, ratio_summary, series_table


@pytest.fixture(scope="module")
def harness():
    return BenchHarness(sizes=(2, 4, 8, 16), batch=1024)


class TestTables:
    def test_table1_matches_paper(self):
        t = experiments.table1_kernels()
        assert t["real_opt"] == (4, 4)
        assert t["cplx_opt"] == (3, 2)
        assert "4" in t["render"]

    def test_table2_matches_paper(self):
        t = experiments.table2_machines()
        by_name = {r["name"]: r for r in t["rows"]}
        kp = by_name["Kunpeng 920"]
        assert kp["peak_fp64"] == pytest.approx(10.4)
        assert kp["peak_fp32"] == pytest.approx(41.6)
        assert kp["simd_bits"] == 128
        xe = by_name["Intel Xeon Gold 6240"]
        assert xe["peak_fp64"] == pytest.approx(83.2)
        assert xe["l1_kb"] == 32


class TestFigures:
    def test_fig4_compact_avoids_waste(self):
        r = experiments.fig4_tiling()
        assert r["compact"] == ([4, 4, 4, 3], [4, 4, 4, 3])
        assert r["wasted_lanes"] > 0        # traditional wastes, compact not

    def test_fig5_staging_monotone(self):
        r = experiments.fig5_scheduling()
        c = {k: v["cycles"] for k, v in r["results"].items()}
        assert c["original"] >= c["reordered"] >= c["optimized"]
        assert r["results"]["optimized"]["gflops"] > 0.85 * 10.4

    def test_fig7_structure(self, harness):
        r = experiments.fig7_gemm_nn(harness)
        assert set(r["series"]) == {"s", "d", "c", "z"}
        assert "Figure 7" in r["render"]["d"]

    def test_fig9_iatf_always_wins(self, harness):
        r = experiments.fig9_trsm_lnln(harness)
        for dt, series in r["series"].items():
            for (sz, v_i), (_, v_o) in zip(
                    series["IATF"].points,
                    series["OpenBLAS (loop)"].points):
                assert v_i > v_o, (dt, sz)

    def test_fig11_has_both_machines(self, harness):
        r = experiments.fig11_mkl_gemm(harness)
        assert "IATF (Kunpeng 920)" in r["series"]["d"]
        assert "MKL compact (Xeon 6240)" in r["series"]["d"]

    def test_fig12_smoke(self, harness):
        r = experiments.fig12_mkl_trsm(harness)
        assert "%" in r["render"]["s"]


class TestHeadlines:
    def test_headline_speedups_all_above_one(self, harness):
        r = experiments.headline_speedups(harness)
        for (routine, dt, lib), (best, at, paper) in r["measured"].items():
            assert best > 1.0, (routine, dt, lib)

    def test_paper_reference_values_present(self):
        assert experiments.PAPER_HEADLINES[("gemm", "s")][
            "OpenBLAS (loop)"] == 21
        assert experiments.PAPER_HEADLINES[("trsm", "s")][
            "OpenBLAS (loop)"] == 28


class TestAblations:
    def test_scheduling_always_helps(self):
        r = experiments.ablation_scheduling(sizes=(4, 8), batch=1024)
        for n, on, off, gain in r["rows"]:
            assert gain >= 1.0, n

    def test_nopack_always_helps(self):
        r = experiments.ablation_nopack(sizes=(1, 2, 4), batch=1024)
        for n, on, off, gain in r["rows"]:
            assert gain > 1.0, n


class TestReporting:
    def test_series_table_renders(self, harness):
        s = harness.gemm_series("d", "NN")
        text = series_table(s, "title")
        assert "title" in text and "IATF" in text
        lines = text.splitlines()
        assert len(lines) == 2 + 4        # title + header + 4 sizes

    def test_ratio_summary(self, harness):
        s = harness.gemm_series("d", "NN")
        text = ratio_summary(s)
        assert "IATF vs OpenBLAS (loop)" in text and "x" in text

    def test_markdown_table(self):
        text = markdown_table(["a", "b"], [["1", "2"]])
        assert text.splitlines()[0] == "| a | b |"
        assert "| 1 | 2 |" in text


def test_ablation_batch_counter_never_hurts():
    r = experiments.ablation_batch_counter(sizes=(2, 4), batch=1024)
    for n, on, off, gain in r["rows"]:
        assert gain >= 0.99, n
