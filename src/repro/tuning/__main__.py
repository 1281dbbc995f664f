"""Command-line interface for the install-time autotuner.

Usage::

    python -m repro.tuning sweep --db kunpeng920.tuning.json \\
        --op gemm --op trsm --dtype d --sizes 1:16 [--top-k 8|--full] \\
        [--check]
    python -m repro.tuning show --db kunpeng920.tuning.json
    python -m repro.tuning export --db kunpeng920.tuning.json --format csv
    python -m repro.tuning merge --out fleet.json a.json b.json
    python -m repro.tuning diff a.json b.json
    python -m repro.tuning import --db fleet.json incoming.json

``sweep`` is the install-time entry point: the analytic machine model
ranks the full register-feasible candidate space and only the top-k
(default 8; ``--full`` for the exhaustive sweep) is measured per shape;
winners are upserted into the DB atomically.  ``--check`` re-runs the
identical sweep in-process afterwards and verifies the serialized DB is
bit-identical — the reproducibility guarantee CI leans on (the sweep
timestamp is taken once and reused, so provenance cannot break it).

``merge`` pools per-machine DBs into a fleet DB with deterministic,
order-independent conflict resolution; ``diff`` explains what separates
two DBs (exit 0 identical, 1 different, 2 unusable); ``import`` merges
incoming files into an existing DB in place.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time

from . import TuningDB, sweep

__all__ = ["main"]

MACHINES = {
    "kunpeng920": "KUNPENG_920",
    "xeon6240": "XEON_GOLD_6240",
    "a64fx": "A64FX",
}


def _machine(name: str):
    from ..machine import machines

    return getattr(machines, MACHINES[name])


def _parse_sizes(text: str) -> "tuple[int, ...]":
    """``"1:16"`` (inclusive range) or ``"4,8,12"`` (explicit list)."""
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo_i, hi_i = int(lo), int(hi)
        if lo_i < 1 or hi_i < lo_i:
            raise ValueError(f"bad size range {text!r}")
        return tuple(range(lo_i, hi_i + 1))
    sizes = tuple(int(s) for s in text.split(",") if s.strip())
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"bad size list {text!r}")
    return sizes


def _cmd_sweep(args) -> int:
    machine = _machine(args.machine)
    try:
        sizes = _parse_sizes(args.sizes)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    db = TuningDB.load(args.db)
    if db.corrupt:
        print(f"note: existing DB was corrupt ({db.corrupt_reason}); "
              "starting fresh")
    ops = tuple(args.op) if args.op else ("gemm", "trsm")
    dtypes = tuple(args.dtype) if args.dtype else ("d",)

    def progress(outcome):
        if not args.quiet:
            print("  " + outcome.describe())

    top_k = None if args.full else args.top_k
    # one timestamp for the whole run, reused by --check's re-sweep so
    # provenance cannot break bit-reproducibility
    timestamp = float(int(time.time()))
    mode = "full sweep" if top_k is None else f"top-{top_k} analytical"
    print(f"sweeping {machine.name}: ops={','.join(ops)} "
          f"dtypes={','.join(dtypes)} sizes={sizes[0]}..{sizes[-1]} "
          f"({len(sizes)} shapes/op/dtype, batch={args.batch}, {mode})")
    outcomes = sweep(db, machine, ops=ops, dtypes=dtypes, sizes=sizes,
                     batch=args.batch, repeats=args.repeats,
                     schedule_variants=args.schedule_variants,
                     wall_clock=args.wall_clock, top_k=top_k,
                     timestamp=timestamp, progress=progress)
    improved = sum(1 for o in outcomes if o.improved)
    target = db.save(args.db)
    print(f"swept {len(outcomes)} shapes ({improved} improved over "
          f"analytic); {len(db)} entries -> {target}")

    if args.check:
        again = TuningDB.load(target)
        if again.corrupt or again.to_json() != db.to_json():
            print("reproducibility check FAILED: reloaded DB differs "
                  "from the in-memory sweep")
            return 1
        sweep(again, machine, ops=ops, dtypes=dtypes, sizes=sizes,
              batch=args.batch, repeats=args.repeats,
              schedule_variants=args.schedule_variants,
              top_k=top_k, timestamp=timestamp)
        if again.to_json() != db.to_json():
            print("reproducibility check FAILED: re-running the sweep "
                  "produced different records")
            return 1
        print("reproducibility check OK: reload + identical re-sweep "
              "are bit-identical")
    return 0


def _cmd_show(args) -> int:
    db = TuningDB.load(args.db)
    if db.corrupt:
        print(f"{args.db}: CORRUPT ({db.corrupt_reason}); runtime will "
              "fall back to analytic selection")
        return 1
    stats = db.stats()
    print(f"{args.db}: schema v{stats['schema']}, "
          f"{stats['entries']} entries")
    for bucket, count in sorted(stats["per_machine_op"].items()):
        print(f"  {bucket}: {count}")
    for key, rec in db.items():
        main = (f"{rec.main[0]}x{rec.main[1]}" if rec.main is not None
                else "fixed")
        pack = "pack" if rec.force_pack else "auto"
        sched = "" if rec.schedule else " unscheduled"
        cands = (f"{rec.candidates}/{rec.space} cands" if rec.space
                 else f"{rec.candidates} cands")
        print(f"  {key.op} {key.dtype} {key.m}x{key.n}x{key.k} "
              f"{key.mode}: {main}/{pack}{sched} "
              f"{rec.cycles:.0f}cy {rec.gflops:.2f}GF "
              f"(tuner v{rec.tuner_version}, {rec.sweep} {cands}, "
              f"batch {rec.batch}, run via {rec.backend})")
    return 0


def _cmd_export(args) -> int:
    db = TuningDB.load(args.db)
    if db.corrupt:
        print(f"error: {args.db} is corrupt ({db.corrupt_reason})")
        return 1
    if args.format == "json":
        text = db.to_json() + "\n"
    else:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["machine", "op", "dtype", "m", "n", "k", "mode",
                         "main", "force_pack", "schedule", "cycles",
                         "gflops", "candidates", "space", "tuner_version",
                         "evaluator_version", "batch", "repeats", "backend",
                         "machine_id", "sweep", "timestamp"])
        for key, rec in db.items():
            writer.writerow([
                key.machine, key.op, key.dtype, key.m, key.n, key.k,
                key.mode,
                (f"{rec.main[0]}x{rec.main[1]}" if rec.main is not None
                 else ""),
                int(rec.force_pack), int(rec.schedule), rec.cycles,
                rec.gflops, rec.candidates, rec.space, rec.tuner_version,
                rec.evaluator_version, rec.batch, rec.repeats, rec.backend,
                rec.machine_id, rec.sweep, rec.timestamp])
        text = out.getvalue()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"exported {len(db)} entries -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _load_for_fleet(path: str) -> "TuningDB | None":
    """Load one fleet-operation input; ``None`` (with a message) when
    the file cannot be trusted — fleet merges must not silently absorb
    a corrupt artifact."""
    db = TuningDB.load(path)
    if db.corrupt:
        print(f"error: {path} is corrupt ({db.corrupt_reason})")
        return None
    return db


def _cmd_merge(args) -> int:
    dbs = []
    for path in args.inputs:
        db = _load_for_fleet(path)
        if db is None:
            return 2
        dbs.append(db)
    merged = TuningDB.merge(dbs)
    merged.save(args.out)
    print(f"merged {len(dbs)} DBs ({sum(len(d) for d in dbs)} records) "
          f"-> {len(merged)} entries in {args.out}")
    return 0


def _cmd_diff(args) -> int:
    a = _load_for_fleet(args.a)
    b = _load_for_fleet(args.b)
    if a is None or b is None:
        return 2
    d = TuningDB.diff(a, b)
    print(f"{args.a} vs {args.b}: {d['identical']} identical, "
          f"{len(d['only_a'])} only in A, {len(d['only_b'])} only in B, "
          f"{len(d['conflicts'])} conflicts")
    for k in d["only_a"]:
        print(f"  only A: {k}")
    for k in d["only_b"]:
        print(f"  only B: {k}")
    for c in d["conflicts"]:
        print(f"  conflict: {c['key']} "
              f"(A {c['a']['gflops']:.2f}GF vs B {c['b']['gflops']:.2f}GF "
              f"-> merge keeps {c['winner'].upper()})")
    return 0 if not (d["only_a"] or d["only_b"] or d["conflicts"]) else 1


def _cmd_import(args) -> int:
    dst = TuningDB.load(args.db)
    if dst.corrupt:
        print(f"note: destination {args.db} was corrupt "
              f"({dst.corrupt_reason}); starting fresh")
        dst.reset()
    incoming = []
    for path in args.inputs:
        db = _load_for_fleet(path)
        if db is None:
            return 2
        incoming.append(db)
    before = len(dst)
    merged = TuningDB.merge([dst] + incoming)
    merged.save(args.db)
    print(f"imported {len(incoming)} DBs into {args.db}: "
          f"{before} -> {len(merged)} entries")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """Entry point of ``python -m repro.tuning``; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro.tuning",
        description="Install-time autotuner: sweep candidate plans on "
        "the machine model and persist winners to a TuningDB.")
    sub = parser.add_subparsers(dest="command")

    p_sweep = sub.add_parser("sweep", help="tune a size grid and store "
                             "winners in the DB")
    p_sweep.add_argument("--db", required=True, metavar="PATH",
                         help="TuningDB file to update (created if absent)")
    p_sweep.add_argument("--machine", choices=sorted(MACHINES),
                         default="kunpeng920")
    p_sweep.add_argument("--op", action="append",
                         choices=("gemm", "trsm"),
                         help="repeatable; default both")
    p_sweep.add_argument("--dtype", action="append",
                         choices=("s", "d", "c", "z"),
                         help="repeatable; default d")
    p_sweep.add_argument("--sizes", default="1:16",
                         help="inclusive range 'LO:HI' or list 'a,b,c' "
                         "of square sizes (default 1:16)")
    p_sweep.add_argument("--batch", type=int, default=16384)
    p_sweep.add_argument("--repeats", type=int, default=1,
                         help="wall-clock replays per candidate (best "
                         "of); the deterministic cycle model is timed "
                         "once")
    p_sweep.add_argument("--schedule-variants", action="store_true",
                         help="also sweep unscheduled-kernel variants")
    p_sweep.add_argument("--wall-clock", action="store_true",
                         help="record default-backend host time as "
                         "provenance (never the selection metric)")
    p_sweep.add_argument("--check", action="store_true",
                         help="verify reload + identical re-sweep are "
                         "bit-identical (CI)")
    p_sweep.add_argument("--top-k", type=int, default=None, metavar="K",
                         help="measure only the K best-ranked candidates "
                         "per shape (default: the tuner's top-8)")
    p_sweep.add_argument("--full", action="store_true",
                         help="exhaustive sweep: measure every pruned "
                         "candidate (overrides --top-k)")
    p_sweep.add_argument("--quiet", action="store_true")

    p_show = sub.add_parser("show", help="print DB stats and entries")
    p_show.add_argument("--db", required=True, metavar="PATH")

    p_exp = sub.add_parser("export", help="dump the DB as json or csv")
    p_exp.add_argument("--db", required=True, metavar="PATH")
    p_exp.add_argument("--format", choices=("json", "csv"), default="json")
    p_exp.add_argument("--out", metavar="PATH", default=None,
                       help="write to a file instead of stdout")

    p_merge = sub.add_parser("merge", help="pool per-machine DBs into one "
                             "fleet DB (deterministic, order-independent)")
    p_merge.add_argument("--out", required=True, metavar="PATH")
    p_merge.add_argument("inputs", nargs="+", metavar="DB")

    p_diff = sub.add_parser("diff", help="explain what separates two DBs "
                            "(exit 0 identical, 1 different)")
    p_diff.add_argument("a", metavar="A")
    p_diff.add_argument("b", metavar="B")

    p_imp = sub.add_parser("import", help="merge incoming DB files into "
                           "an existing DB in place")
    p_imp.add_argument("--db", required=True, metavar="PATH",
                       help="destination DB (updated atomically)")
    p_imp.add_argument("inputs", nargs="+", metavar="DB")

    args = parser.parse_args(argv)
    if args.command == "sweep":
        if args.top_k is None:
            from .tuner import DEFAULT_TOP_K

            args.top_k = DEFAULT_TOP_K
        elif args.top_k < 1:
            print("error: --top-k must be >= 1")
            return 2
        return _cmd_sweep(args)
    if args.command == "show":
        return _cmd_show(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "merge":
        return _cmd_merge(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "import":
        return _cmd_import(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
