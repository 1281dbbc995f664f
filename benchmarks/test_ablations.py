"""Ablations of the design choices DESIGN.md calls out."""

from conftest import run_once

from repro.bench import experiments


def test_ablation_scheduling(benchmark, save_result):
    result = run_once(
        benchmark,
        lambda: experiments.ablation_scheduling(sizes=(4, 8, 16, 32)))
    save_result("ablation_scheduling", result["render"])
    for n, on, off, gain in result["rows"]:
        assert gain >= 1.0, n


def test_ablation_nopack(benchmark, save_result):
    result = run_once(
        benchmark, lambda: experiments.ablation_nopack(sizes=(1, 2, 3, 4)))
    save_result("ablation_nopack", result["render"])
    for n, on, off, gain in result["rows"]:
        assert gain > 1.0, n


def test_ablation_batch_counter(benchmark, save_result):
    result = run_once(
        benchmark,
        lambda: experiments.ablation_batch_counter(sizes=(2, 4, 8, 16)))
    save_result("ablation_batch_counter", result["render"])
    for n, on, off, gain in result["rows"]:
        assert gain >= 0.99, n     # never a loss; small wins at tiny sizes


#: (n, analytic GFLOPS, tuned GFLOPS, chosen main kernel) for dgemm NN
#: at batch 16384: the tuner's top-k sweep beats the analytic CMAR
#: choice only at 9^3, and only marginally
TUNED_ROWS = ((5, 3.184, 3.184, (4, 4)), (6, 4.039, 4.039, (4, 4)),
              (9, 5.206, 5.210, (3, 4)), (13, 6.375, 6.375, (4, 4)),
              (17, 7.120, 7.120, (4, 4)), (21, 7.634, 7.634, (4, 4)))


def test_ablation_tuned(benchmark, save_result):
    result = run_once(
        benchmark, lambda: experiments.ablation_tuned(
            sizes=tuple(row[0] for row in TUNED_ROWS)))
    save_result("ablation_tuned", result["render"])
    rows = tuple((n, round(g0, 3), round(g1, 3), main)
                 for n, g0, g1, main, _ in result["rows"])
    assert rows == TUNED_ROWS
    for n, analytic, tuned, _, source in result["rows"]:
        assert tuned >= analytic - 1e-9, n
        assert source == "tuned", n
