"""Text rendering of benchmark results (the EXPERIMENTS.md tables)."""

from __future__ import annotations

from .. import obs
from .harness import Series

__all__ = ["series_table", "ratio_summary", "markdown_table",
           "series_csv", "decision_stats"]

#: counter prefixes that narrate run-time-stage decisions
DECISION_PREFIXES = ("plan_cache.", "pack_selector.", "batch_counter.")


def series_table(series: dict[str, Series], title: str = "",
                 fmt: str = "{:7.2f}") -> str:
    """Fixed-width table: one row per size, one column per library."""
    labels = list(series)
    sizes = series[labels[0]].sizes
    lines = []
    if title:
        lines.append(title)
    header = f"{'size':>5} " + " ".join(f"{l:>24}" for l in labels)
    lines.append(header)
    for i, size in enumerate(sizes):
        row = f"{size:>5} "
        row += " ".join(f"{fmt.format(s.points[i][1]):>24}"
                        for s in series.values())
        lines.append(row)
    return "\n".join(lines)


def markdown_table(headers: list[str], rows: list[list[str]]) -> str:
    """GitHub-flavoured markdown table (EXPERIMENTS.md summaries)."""
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(row) + " |")
    return "\n".join(out)


def ratio_summary(series: dict[str, Series], of: str = "IATF") -> str:
    """Max speedup of `of` over every other curve, with the size."""
    base = series[of]
    lines = []
    for label, s in series.items():
        if label == of:
            continue
        best, at = 0.0, 0
        for (sz, v1), (_, v2) in zip(base.points, s.points):
            if v2 > 0 and v1 / v2 > best:
                best, at = v1 / v2, sz
        lines.append(f"  {of} vs {label}: up to {best:.1f}x (at size {at})")
    return "\n".join(lines)


def decision_stats(registry: "obs.Registry | None" = None,
                   title: str = "decision statistics:") -> str:
    """Plan-cache / pack-selector / batch-counter counter snapshot as text.

    Appended to benchmark reports so ablation runs show the run-time
    stage's decisions alongside GFLOPS.  Returns "" when nothing was
    recorded (e.g. instrumentation disabled).
    """
    reg = registry if registry is not None else obs.get_registry()
    counters = {name: value for name, value in reg.counters().items()
                if name.startswith(DECISION_PREFIXES)}
    if not counters:
        return ""
    width = max(len(n) for n in counters)
    lines = [title]
    for name, value in counters.items():
        shown = int(value) if float(value).is_integer() else value
        lines.append(f"  {name:<{width}}  {shown}")
    return "\n".join(lines)


def series_csv(series: dict[str, Series]) -> str:
    """CSV rendering (size column + one column per library) for plotting."""
    labels = list(series)
    sizes = series[labels[0]].sizes
    lines = ["size," + ",".join(labels)]
    for i, size in enumerate(sizes):
        row = [str(size)] + [f"{s.points[i][1]:.4f}" for s in series.values()]
        lines.append(",".join(row))
    return "\n".join(lines)
