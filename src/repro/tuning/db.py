"""The persistent, fleet-ready TuningDB.

The install-time sweep (:mod:`repro.tuning.tuner`) measures candidate
plans on the machine model and stores only the *winners* here; the
run-time stage (:class:`repro.runtime.iatf.IATF`) looks decisions up by
problem key and falls back to the analytic CMAR choice on a miss.
Design constraints, in order:

* **never crash the caller** — a missing, truncated, hand-edited, or
  future-schema file loads as an *empty* DB with ``corrupt`` set; the
  runtime sees only misses (plus a ``tuning.fallback`` counter) and
  keeps serving analytic plans;
* **atomic persistence** — ``save`` writes a sibling temp file and
  ``os.replace``\\ s it over the target, so a crashed sweep can never
  leave a half-written DB for the next process to trip over;
* **versioned schema** — the file carries ``schema`` (file format) and
  each record carries full provenance (``machine_id``, sweep mode,
  ``tuner_version``, ``evaluator_version``, a caller-injected
  timestamp), so a reader can tell *how*, *where* and *when* a decision
  was produced;
* **deterministic serialization** — keys are sorted and floats are
  written as-is, so sweep -> save -> load -> save is byte-stable and
  two identical sweeps produce identical files (the CI reproducibility
  check relies on this);
* **fleet mergeable** — per-machine DBs :meth:`~TuningDB.merge` with
  deterministic, commutative conflict resolution (higher measured
  GFLOPS wins, ties broken canonically) and :meth:`~TuningDB.diff`
  explains what separates two DBs, so a fleet can pool install-time
  sweeps and ship one artifact.

Schema history:

* **v1** — keys carried the machine's display *name* ("Kunpeng 920");
  records had no provenance beyond ``tuner_version``.
* **v2** — v1 plus the per-record ``backend`` column (PR 4).
* **v3** (current) — keys carry the machine's *tuning id*
  (``machine_id.fingerprint``, :attr:`MachineConfig.tuning_id`), and
  records carry full provenance.  Legacy v1/v2 files load through a
  shim: display names are slugified and, when the slug matches a stock
  machine, upgraded to that machine's tuning id — so a DB swept on a
  stock configuration keeps serving it, while a same-named machine with
  different clocks or caches can no longer be served stale schedules.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field, replace

from .. import obs

__all__ = ["SCHEMA_VERSION", "LEGACY_SCHEMAS", "TUNER_VERSION",
           "TuningKey", "TuningRecord", "TuningDB"]

SCHEMA_VERSION = 3
"""Current file-format version (see the schema history above)."""

LEGACY_SCHEMAS = (1, 2)
"""File-format versions the legacy-load shim still understands."""

TUNER_VERSION = 2
"""Search-procedure version stamped into every record's provenance.
v1 swept the full pruned candidate space; v2 is the analytical-first
top-k sweep."""


def _known_tuning_ids() -> "dict[str, str]":
    """machine_id slug -> tuning id for the stock machine configs.

    Imported lazily: :mod:`repro.machine.machines` must stay importable
    without this module and vice versa.
    """
    from ..machine import machines

    stock = (machines.KUNPENG_920, machines.XEON_GOLD_6240, machines.A64FX)
    return {m.machine_id: m.tuning_id for m in stock}


@dataclass(frozen=True)
class TuningKey:
    """The lookup key: one problem configuration on one machine.

    ``machine`` is the machine's *tuning id* — the
    ``machine_id.fingerprint`` slug from
    :attr:`repro.machine.machines.MachineConfig.tuning_id` — so two
    same-named machines with different clocks or caches key separately.
    ``mode`` is the routine's full flag string ("NN".."TT" for GEMM;
    side/trans/uplo/diag e.g. "LNLN" for TRSM); ``k`` is 0 for TRSM.
    Batch size is deliberately *not* part of the key — decisions are
    shape-driven and the record stores the batch it was tuned at as
    provenance.
    """

    machine: str
    op: str                       # "gemm" | "trsm"
    dtype: str                    # "s" | "d" | "c" | "z"
    m: int
    n: int
    k: int
    mode: str

    SEP = "|"

    def encode(self) -> str:
        """The stable string form used as the JSON dict key."""
        return self.SEP.join((self.machine, self.op, self.dtype,
                              str(self.m), str(self.n), str(self.k),
                              self.mode))

    @classmethod
    def decode(cls, text: str) -> "TuningKey":
        parts = text.split(cls.SEP)
        # machine names may themselves contain the separator-free chars
        # only; reject anything that does not split into exactly 7
        if len(parts) != 7:
            raise ValueError(f"malformed tuning key {text!r}")
        machine, op, dtype, m, n, k, mode = parts
        return cls(machine, op, dtype, int(m), int(n), int(k), mode)

    @staticmethod
    def _machine_ref(machine) -> str:
        """Accept a :class:`MachineConfig` (keys by its tuning id) or a
        plain string (used verbatim — tests and legacy callers)."""
        if isinstance(machine, str):
            return machine
        return machine.tuning_id

    @classmethod
    def for_gemm(cls, machine, problem) -> "TuningKey":
        return cls(cls._machine_ref(machine), "gemm", problem.dtype.value,
                   problem.m, problem.n, problem.k, problem.mode)

    @classmethod
    def for_trsm(cls, machine, problem) -> "TuningKey":
        return cls(cls._machine_ref(machine), "trsm", problem.dtype.value,
                   problem.m, problem.n, 0, problem.mode)


@dataclass(frozen=True)
class TuningRecord:
    """One stored decision plus the provenance that justifies it.

    ``main`` is the winning main-kernel preference (``None`` for TRSM,
    whose kernel family is fixed); ``force_pack`` is the winning
    pack-selector override (``False`` means the analytic rule won).
    Everything else is provenance: the winner's simulated cycles, how
    big the measured sweep and the full register-feasible space were,
    which tuner/evaluator produced it, on which machine, under which
    sweep mode, and when (the timestamp is injected by the caller —
    the library never reads the clock itself, keeping sweeps
    byte-reproducible).
    """

    main: "tuple[int, int] | None"
    force_pack: bool
    schedule: bool
    cycles: float
    gflops: float
    candidates: int
    tuner_version: int
    batch: int
    repeats: int = 1
    backend: str = "compiled"
    """The executor the record was tuned for (today always
    :data:`~repro.tuning.tuner.DEFAULT_TUNED_BACKEND`).  Provenance only: the
    planner never applies it, so a record naming a backend that no
    longer exists still loads and applies.  Pre-backend DB files load
    as ``compiled``, the backend they were tuned under."""
    machine_id: str = ""
    """Slug of the machine the record was measured on (provenance; the
    key's tuning id adds the config fingerprint on top)."""
    sweep: str = "full"
    """How the winning candidate was found: ``full`` (every pruned
    candidate measured), ``topk`` (analytic ranking, top-k measured),
    ``retune`` (drift-triggered bounded online re-sweep), or
    ``legacy`` (loaded from a pre-provenance file)."""
    evaluator_version: int = 0
    """Version of the measurement procedure (0 = pre-provenance file)."""
    timestamp: float = 0.0
    """Caller-injected wall time of the sweep (0.0 = not stamped)."""
    space: int = 0
    """Size of the full register-feasible candidate space the analytic
    ranker scored (0 = pre-provenance file).  ``candidates`` of it were
    actually measured."""

    def to_dict(self) -> dict:
        return {
            "main": list(self.main) if self.main is not None else None,
            "force_pack": self.force_pack,
            "schedule": self.schedule,
            "cycles": self.cycles,
            "gflops": self.gflops,
            "candidates": self.candidates,
            "tuner_version": self.tuner_version,
            "batch": self.batch,
            "repeats": self.repeats,
            "backend": self.backend,
            "machine_id": self.machine_id,
            "sweep": self.sweep,
            "evaluator_version": self.evaluator_version,
            "timestamp": self.timestamp,
            "space": self.space,
        }

    def canonical(self) -> str:
        """Canonical JSON form — the deterministic tie-breaker for
        merge conflict resolution."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "TuningRecord":
        if not isinstance(d, dict):
            raise ValueError(f"tuning record must be an object, got {d!r}")
        try:
            main = d["main"]
            if main is not None:
                if (not isinstance(main, (list, tuple)) or len(main) != 2):
                    raise ValueError(f"bad main kernel {main!r}")
                main = (int(main[0]), int(main[1]))
            return cls(
                main=main,
                force_pack=bool(d["force_pack"]),
                schedule=bool(d["schedule"]),
                cycles=float(d["cycles"]),
                gflops=float(d["gflops"]),
                candidates=int(d["candidates"]),
                tuner_version=int(d["tuner_version"]),
                batch=int(d["batch"]),
                repeats=int(d.get("repeats", 1)),
                backend=str(d.get("backend", "compiled")),
                machine_id=str(d.get("machine_id", "")),
                sweep=str(d.get("sweep", "full")),
                evaluator_version=int(d.get("evaluator_version", 0)),
                timestamp=float(d.get("timestamp", 0.0)),
                space=int(d.get("space", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid tuning record: {exc}") from exc


def _merge_winner(a: TuningRecord, b: TuningRecord) -> TuningRecord:
    """Deterministic, commutative conflict resolution: the higher
    measured GFLOPS wins; ties keep the record whose canonical JSON
    sorts first.  A total order, so merging any number of DBs in any
    order lands on the same winner."""
    if a == b:
        return a
    if a.gflops != b.gflops:
        return a if a.gflops > b.gflops else b
    return a if a.canonical() <= b.canonical() else b


@dataclass
class TuningDB:
    """Schema-versioned map from :class:`TuningKey` to the sweep winner."""

    path: "str | os.PathLike | None" = None
    corrupt: bool = False
    """True when ``load`` found a file it could not trust; the runtime
    treats every lookup against a corrupt DB as a fallback, never an
    error."""
    corrupt_reason: str = ""
    version: int = SCHEMA_VERSION
    loaded_schema: int = SCHEMA_VERSION
    """The schema version found on disk (before any legacy upgrade);
    ``save`` always writes the current :data:`SCHEMA_VERSION`."""
    _entries: "dict[str, TuningRecord]" = field(default_factory=dict)

    # -- lookup / mutation -----------------------------------------------

    def get(self, key: TuningKey) -> "TuningRecord | None":
        return self._entries.get(key.encode())

    def put(self, key: TuningKey, record: TuningRecord) -> None:
        self._entries[key.encode()] = record

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: TuningKey) -> bool:
        return key.encode() in self._entries

    def items(self) -> "list[tuple[TuningKey, TuningRecord]]":
        """(key, record) pairs in sorted key order."""
        return [(TuningKey.decode(k), self._entries[k])
                for k in sorted(self._entries)]

    def stats(self) -> dict:
        """Summary counts per (machine, op) for `show`/explain output."""
        per: dict[str, int] = {}
        for k in self._entries:
            key = TuningKey.decode(k)
            bucket = f"{key.machine}/{key.op}"
            per[bucket] = per.get(bucket, 0) + 1
        return {"entries": len(self._entries), "schema": self.version,
                "corrupt": self.corrupt, "per_machine_op": per}

    def reset(self) -> None:
        """Drop every entry and clear the corrupt flag — the online
        re-tuning loop's self-heal for an unusable on-disk DB (the next
        ``save`` atomically replaces the bad file with fresh records)."""
        self._entries = {}
        self.corrupt = False
        self.corrupt_reason = ""

    # -- fleet operations --------------------------------------------------

    @classmethod
    def merge(cls, dbs) -> "TuningDB":
        """Pool per-machine DBs into one fleet DB.

        Conflicts (same key, different record) resolve deterministically
        via :func:`_merge_winner` — higher measured GFLOPS wins, ties
        break on canonical record JSON — so the merge is commutative
        and associative: ``merge([a, b])`` serializes bit-identically
        to ``merge([b, a])``.  Corrupt inputs contribute nothing (their
        entries were already dropped at load time).
        """
        out = cls()
        conflicts = 0
        for db in dbs:
            for k, rec in db._entries.items():
                cur = out._entries.get(k)
                if cur is None:
                    out._entries[k] = rec
                elif cur != rec:
                    conflicts += 1
                    out._entries[k] = _merge_winner(cur, rec)
        obs.count("tuning.db.merges")
        if conflicts:
            obs.count("tuning.db.merge_conflicts", conflicts)
        return out

    @staticmethod
    def diff(a: "TuningDB", b: "TuningDB") -> dict:
        """What separates two DBs, deterministically ordered.

        Returns ``only_a`` / ``only_b`` (sorted key strings),
        ``conflicts`` (both records plus which side merge would keep),
        and ``identical`` (count of keys with equal records).  An empty
        self-diff — ``diff(x, x)`` with no ``only_*`` or ``conflicts``
        — is the fleet drill's sanity check.
        """
        keys_a, keys_b = set(a._entries), set(b._entries)
        conflicts = []
        identical = 0
        for k in sorted(keys_a & keys_b):
            ra, rb = a._entries[k], b._entries[k]
            if ra == rb:
                identical += 1
            else:
                winner = _merge_winner(ra, rb)
                conflicts.append({
                    "key": k,
                    "a": ra.to_dict(),
                    "b": rb.to_dict(),
                    "winner": "a" if winner == ra else "b",
                })
        return {
            "only_a": sorted(keys_a - keys_b),
            "only_b": sorted(keys_b - keys_a),
            "conflicts": conflicts,
            "identical": identical,
        }

    # -- persistence ------------------------------------------------------

    def to_json(self) -> str:
        """Canonical serialized form (sorted keys, stable floats)."""
        doc = {
            "schema": self.version,
            "tuner_version": TUNER_VERSION,
            "entries": {k: self._entries[k].to_dict()
                        for k in sorted(self._entries)},
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def save(self, path: "str | os.PathLike | None" = None) -> str:
        """Atomically persist to ``path`` (or the path loaded from).

        Writes a temp file in the destination directory and
        ``os.replace``\\ s it into place so readers never observe a
        partial file, even across a crash mid-write.
        """
        target = os.fspath(path if path is not None else self.path)
        if target is None:
            raise ValueError("TuningDB has no path to save to")
        directory = os.path.dirname(os.path.abspath(target))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".tuningdb.", suffix=".tmp",
                                   dir=directory)
        try:
            with os.fdopen(fd, "w") as f:
                f.write(self.to_json())
                f.write("\n")
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.path = target
        obs.count("tuning.db.saves")
        return target

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "TuningDB":
        """Load a DB file; **never raises** on bad content.

        A missing file is an empty (healthy) DB — the natural state
        before the first install-time sweep.  Anything unparseable or
        schema-incompatible yields an empty DB flagged ``corrupt``;
        the runtime then counts ``tuning.fallback`` per lookup and
        keeps using analytic selection.  Legacy v1/v2 files load
        through the key-upgrade shim (module docstring).
        """
        db = cls(path=os.fspath(path))
        try:
            with open(path, "r") as f:
                raw = f.read()
        except FileNotFoundError:
            obs.count("tuning.db.missing")
            return db
        except OSError as exc:
            return db._mark_corrupt(f"unreadable: {exc}")
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            return db._mark_corrupt(f"invalid JSON: {exc}")
        if not isinstance(doc, dict):
            return db._mark_corrupt("top level is not an object")
        schema = doc.get("schema")
        if schema != SCHEMA_VERSION and schema not in LEGACY_SCHEMAS:
            return db._mark_corrupt(
                f"schema {schema!r} != supported {SCHEMA_VERSION} "
                f"(legacy: {', '.join(map(str, LEGACY_SCHEMAS))})")
        entries = doc.get("entries")
        if not isinstance(entries, dict):
            return db._mark_corrupt("'entries' is not an object")
        loaded: dict[str, TuningRecord] = {}
        try:
            for k, v in entries.items():
                key = TuningKey.decode(k)        # validates the key shape
                rec = TuningRecord.from_dict(v)
                if schema in LEGACY_SCHEMAS:
                    key, rec = cls._upgrade_legacy(key, rec)
                loaded[key.encode()] = rec
        except ValueError as exc:
            return db._mark_corrupt(str(exc))
        db._entries = loaded
        db.loaded_schema = int(schema)
        if schema in LEGACY_SCHEMAS:
            obs.count("tuning.db.legacy_loads")
            obs.event("tuning.db.legacy_load", path=str(db.path),
                      schema=int(schema), entries=len(loaded))
        obs.count("tuning.db.loads")
        obs.gauge("tuning.db.entries", len(loaded))
        return db

    @staticmethod
    def _upgrade_legacy(key: TuningKey,
                        rec: TuningRecord) -> "tuple[TuningKey, TuningRecord]":
        """The v1/v2 shim: slugify the display name the old keys carried
        and, when the slug matches a stock machine, upgrade it to that
        machine's tuning id (old sweeps are assumed to have run on the
        stock configuration).  An unknown slug stays bare — preserved
        for merge/export, unreachable by any live machine, which is
        exactly the point: a reconfigured machine must re-tune."""
        from ..machine.machines import slugify

        slug = slugify(key.machine)
        machine_ref = _known_tuning_ids().get(slug, slug)
        key = replace(key, machine=machine_ref)
        rec = replace(rec, machine_id=rec.machine_id or slug,
                      sweep="legacy" if rec.sweep == "full" else rec.sweep)
        return key, rec

    def _mark_corrupt(self, reason: str) -> "TuningDB":
        self.corrupt = True
        self.corrupt_reason = reason
        self._entries = {}
        obs.count("tuning.db.corrupt")
        obs.event("tuning.db.corrupt", level="error",
                  path=str(self.path), reason=reason)
        return self
