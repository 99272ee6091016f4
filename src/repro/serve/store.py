"""Persistent, content-addressed profile store.

Profiles are durable artifacts, not process-local values: each stored
record is a serialised :class:`~repro.core.analyzer.AnalysisResult`
(gzipped canonical JSON, addressed by its sha256) plus an index row
keyed by ``(workload, variant, program_hash, config_hash, seed)`` and a
timestamp.  Identical payloads are stored once no matter how many runs
produce them, so re-profiling an unchanged program at an unchanged
config costs one index row, not one blob.

The same store also keeps optimizer verdicts and trace pointers (paths
to observation traces recorded alongside a run), so every cross-run
question — "did the misses move?", "was the rewrite accepted?", "replay
that run at a different threshold" — is answered from disk.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.analyzer import AnalysisResult
from repro.core.profiler import DjxConfig
from repro.jvm.classfile import JProgram

#: Store schema version (PRAGMA user_version); bump on breaking change.
STORE_VERSION = 1


# ----------------------------------------------------------------------
# Keys: what identifies "the same run" across processes and machines
# ----------------------------------------------------------------------
def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def program_digest(program: JProgram) -> str:
    """Stable content hash of a program (classes, bytecode, entries).

    Two builds of the same workload variant hash identically; any
    change to layout, bytecode, line tables, entry points, or statics
    changes the digest — so the digest is a safe run-identity key.
    """
    lines: List[str] = [f"program {program.name}"]
    for name in sorted(program.classes):
        jclass = program.classes[name]
        fields = ",".join(f"{f.name}:{f.kind.name}"
                          for f in jclass.all_fields)
        lines.append(f"class {name} [{fields}]")
    for name in sorted(program.methods):
        method = program.methods[name]
        lines.append(f"method {method.class_name}.{method.name}"
                     f"/{method.num_args} locals={method.max_locals} "
                     f"src={method.source_file}")
        for bci, ins in enumerate(method.code):
            lines.append(f"  {bci}: {ins!r} @{ins.line}")
    for entry in program.entry_points:
        lines.append(f"entry {entry.method_name} args={entry.args!r} "
                     f"cpu={entry.cpu}")
    for key in sorted(program.statics):
        lines.append(f"static {key}={program.statics[key]!r}")
    return _sha256("\n".join(lines))


def config_digest(config: DjxConfig, family: str = "djxperf") -> str:
    """Stable content hash of a profiler configuration.

    ``family`` is part of the identity: the same workload profiled
    under DJXPerf and under the replica family are different results.
    The default keeps every pre-family digest unchanged.
    """
    payload = {
        "events": [event.name for event in config.events],
        "sample_period": config.sample_period,
        "size_threshold": config.size_threshold,
        "track_numa": config.track_numa,
        "collect_access_contexts": config.collect_access_contexts,
        "costs": {name: getattr(config.costs, name)
                  for name in sorted(vars(config.costs))},
    }
    if family != "djxperf":
        payload["family"] = family
    return _sha256(json.dumps(payload, sort_keys=True))


@dataclass(frozen=True)
class ProfileKey:
    """Identity of one profiling configuration of one program."""

    workload: str
    variant: str
    program_hash: str
    config_hash: str
    seed: Optional[int] = None

    def as_tuple(self) -> Tuple:
        return (self.workload, self.variant, self.program_hash,
                self.config_hash, self.seed)


def profile_key_for(workload, variant: str, config: DjxConfig,
                    seed: Optional[int] = None,
                    family: str = "djxperf") -> ProfileKey:
    """Build the store key for profiling ``workload``/``variant``.

    Hashes the *uninstrumented* verified program — the identity of the
    program under test, independent of agent instrumentation details.
    """
    program = workload.build_verified(variant)
    return ProfileKey(workload=workload.name, variant=variant,
                      program_hash=program_digest(program),
                      config_hash=config_digest(config, family=family),
                      seed=seed)


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProfileRecord:
    """One stored profile: index row + pointer to its payload."""

    record_id: int
    key: ProfileKey
    created_at: float
    payload_hash: str
    payload_bytes: int
    primary_event: str
    total_samples: int
    wall_cycles: int
    trace_path: Optional[str] = None
    meta: Dict = field(default_factory=dict)
    #: True when put_profile found the payload already stored.
    deduplicated: bool = False

    def describe(self) -> str:
        seed = "-" if self.key.seed is None else str(self.key.seed)
        return (f"#{self.record_id} {self.key.workload}/{self.key.variant} "
                f"prog={self.key.program_hash[:10]} "
                f"cfg={self.key.config_hash[:10]} seed={seed} "
                f"{self.total_samples} samples, {self.wall_cycles} cycles")

    def to_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "workload": self.key.workload,
            "variant": self.key.variant,
            "program_hash": self.key.program_hash,
            "config_hash": self.key.config_hash,
            "seed": self.key.seed,
            "created_at": self.created_at,
            "payload_hash": self.payload_hash,
            "payload_bytes": self.payload_bytes,
            "primary_event": self.primary_event,
            "total_samples": self.total_samples,
            "wall_cycles": self.wall_cycles,
            "trace_path": self.trace_path,
            "meta": dict(self.meta),
        }


_SCHEMA = """
CREATE TABLE IF NOT EXISTS payloads (
    hash        TEXT PRIMARY KEY,
    data        BLOB NOT NULL,
    raw_bytes   INTEGER NOT NULL,
    stored_bytes INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS profiles (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    workload      TEXT NOT NULL,
    variant       TEXT NOT NULL,
    program_hash  TEXT NOT NULL,
    config_hash   TEXT NOT NULL,
    seed          INTEGER,
    created_at    REAL NOT NULL,
    payload_hash  TEXT NOT NULL REFERENCES payloads(hash),
    primary_event TEXT NOT NULL,
    total_samples INTEGER NOT NULL,
    wall_cycles   INTEGER NOT NULL,
    trace_path    TEXT,
    meta          TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS profiles_by_key ON profiles
    (workload, variant, program_hash, config_hash, seed, created_at);
CREATE TABLE IF NOT EXISTS optimize_verdicts (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id       TEXT NOT NULL,
    created_at   REAL NOT NULL,
    workload     TEXT NOT NULL,
    variant      TEXT NOT NULL,
    family       TEXT NOT NULL,
    transform    TEXT,
    status       TEXT NOT NULL,
    payload_hash TEXT NOT NULL REFERENCES payloads(hash)
);
CREATE INDEX IF NOT EXISTS optimize_by_job ON optimize_verdicts (job_id);
"""


class ProfileStore:
    """SQLite-backed content-addressed store (one file, safe to copy).

    Opened in WAL journal mode with a busy timeout: shard daemons, the
    HTTP front door, and cross-shard dedupe lookups all read the same
    file while a writer commits, and WAL lets those readers proceed
    instead of raising ``database is locked``.  ``busy_timeout`` bounds
    how long a second *writer* waits for the lock before erroring.
    """

    def __init__(self, path: str, busy_timeout: float = 10.0) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._db = sqlite3.connect(path, check_same_thread=False,
                                   timeout=busy_timeout)
        # WAL survives in the file; setting it again is a cheap no-op.
        # Some filesystems refuse WAL (e.g. network mounts) — the
        # returned mode is whatever SQLite actually granted, and the
        # store still works, just with coarser reader/writer exclusion.
        self.journal_mode = self._db.execute(
            "PRAGMA journal_mode=WAL").fetchone()[0]
        self._db.execute(f"PRAGMA busy_timeout={int(busy_timeout * 1000)}")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA)
        version = self._db.execute("PRAGMA user_version").fetchone()[0]
        if version == 0:
            self._db.execute(f"PRAGMA user_version = {STORE_VERSION}")
        elif version != STORE_VERSION:
            raise ValueError(
                f"{path}: store version {version} unsupported "
                f"(want {STORE_VERSION})")
        self._db.commit()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "ProfileStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- payloads (content-addressed blobs) -----------------------------
    @staticmethod
    def _encode_payload(payload: dict) -> "tuple[str, bytes, int]":
        raw = json.dumps(payload, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
        # mtime=0 keeps the compressed bytes deterministic, so the
        # content address really is a function of the content.
        return (hashlib.sha256(raw).hexdigest(),
                gzip.compress(raw, mtime=0), len(raw))

    def _put_payload(self, payload: dict) -> "tuple[str, int, bool]":
        """Store a blob; returns (hash, raw_bytes, already_present)."""
        digest, compressed, raw_bytes = self._encode_payload(payload)
        row = self._db.execute(
            "SELECT 1 FROM payloads WHERE hash = ?", (digest,)).fetchone()
        if row is not None:
            return digest, raw_bytes, True
        self._db.execute(
            "INSERT INTO payloads (hash, data, raw_bytes, stored_bytes) "
            "VALUES (?, ?, ?, ?)",
            (digest, compressed, raw_bytes, len(compressed)))
        return digest, raw_bytes, False

    def _load_payload(self, digest: str) -> dict:
        row = self._db.execute(
            "SELECT data FROM payloads WHERE hash = ?", (digest,)).fetchone()
        if row is None:
            raise KeyError(f"payload {digest} not in store")
        return json.loads(gzip.decompress(row[0]).decode("utf-8"))

    # -- profiles -------------------------------------------------------
    def put_profile(self, key: ProfileKey, analysis: AnalysisResult,
                    wall_cycles: int = 0,
                    trace_path: Optional[str] = None,
                    meta: Optional[Dict] = None,
                    created_at: Optional[float] = None) -> ProfileRecord:
        """Persist one analysis under ``key``; returns its record."""
        payload_hash, raw_bytes, deduped = self._put_payload(
            analysis.to_dict())
        created = time.time() if created_at is None else created_at
        meta = dict(meta or {})
        cursor = self._db.execute(
            "INSERT INTO profiles (workload, variant, program_hash, "
            "config_hash, seed, created_at, payload_hash, primary_event, "
            "total_samples, wall_cycles, trace_path, meta) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (key.workload, key.variant, key.program_hash, key.config_hash,
             key.seed, created, payload_hash, analysis.primary_event,
             analysis.total(), wall_cycles, trace_path, json.dumps(meta)))
        self._db.commit()
        return ProfileRecord(
            record_id=cursor.lastrowid, key=key, created_at=created,
            payload_hash=payload_hash, payload_bytes=raw_bytes,
            primary_event=analysis.primary_event,
            total_samples=analysis.total(), wall_cycles=wall_cycles,
            trace_path=trace_path, meta=meta, deduplicated=deduped)

    def _record_from_row(self, row) -> ProfileRecord:
        (record_id, workload, variant, program_hash, config_hash, seed,
         created_at, payload_hash, primary_event, total_samples,
         wall_cycles, trace_path, meta, raw_bytes) = row
        return ProfileRecord(
            record_id=record_id,
            key=ProfileKey(workload, variant, program_hash, config_hash,
                           seed),
            created_at=created_at, payload_hash=payload_hash,
            payload_bytes=raw_bytes, primary_event=primary_event,
            total_samples=total_samples, wall_cycles=wall_cycles,
            trace_path=trace_path, meta=json.loads(meta))

    _SELECT = ("SELECT p.id, p.workload, p.variant, p.program_hash, "
               "p.config_hash, p.seed, p.created_at, p.payload_hash, "
               "p.primary_event, p.total_samples, p.wall_cycles, "
               "p.trace_path, p.meta, b.raw_bytes "
               "FROM profiles p JOIN payloads b ON b.hash = p.payload_hash ")

    def get_record(self, record_id: int) -> ProfileRecord:
        row = self._db.execute(
            self._SELECT + "WHERE p.id = ?", (record_id,)).fetchone()
        if row is None:
            raise KeyError(f"profile record {record_id} not in store")
        return self._record_from_row(row)

    def load_analysis(self, record: ProfileRecord) -> AnalysisResult:
        return AnalysisResult.from_dict(
            self._load_payload(record.payload_hash))

    def get_profile(self, record_id: int
                    ) -> "tuple[ProfileRecord, AnalysisResult]":
        record = self.get_record(record_id)
        return record, self.load_analysis(record)

    def find_latest(self, key: ProfileKey) -> Optional[ProfileRecord]:
        """Most recent record for this exact key (cache-hit lookup)."""
        seed_clause = ("p.seed IS NULL" if key.seed is None
                       else "p.seed = ?")
        params: List = [key.workload, key.variant, key.program_hash,
                        key.config_hash]
        if key.seed is not None:
            params.append(key.seed)
        row = self._db.execute(
            self._SELECT + "WHERE p.workload = ? AND p.variant = ? AND "
            "p.program_hash = ? AND p.config_hash = ? AND " + seed_clause +
            " ORDER BY p.created_at DESC, p.id DESC LIMIT 1",
            params).fetchone()
        return None if row is None else self._record_from_row(row)

    def history(self, workload: Optional[str] = None,
                variant: Optional[str] = None,
                limit: int = 50) -> List[ProfileRecord]:
        """Records newest-first, optionally filtered."""
        clauses, params = [], []
        if workload is not None:
            clauses.append("p.workload = ?")
            params.append(workload)
        if variant is not None:
            clauses.append("p.variant = ?")
            params.append(variant)
        where = ("WHERE " + " AND ".join(clauses) + " ") if clauses else ""
        rows = self._db.execute(
            self._SELECT + where +
            "ORDER BY p.created_at DESC, p.id DESC LIMIT ?",
            params + [limit]).fetchall()
        return [self._record_from_row(row) for row in rows]

    def baseline_for(self, record: ProfileRecord) -> Optional[ProfileRecord]:
        """Most recent *earlier* record with the same key, if any."""
        key = record.key
        seed_clause = ("p.seed IS NULL" if key.seed is None
                       else "p.seed = ?")
        params: List = [key.workload, key.variant, key.program_hash,
                        key.config_hash]
        if key.seed is not None:
            params.append(key.seed)
        params.append(record.record_id)
        row = self._db.execute(
            self._SELECT + "WHERE p.workload = ? AND p.variant = ? AND "
            "p.program_hash = ? AND p.config_hash = ? AND " + seed_clause +
            " AND p.id < ? ORDER BY p.created_at DESC, p.id DESC LIMIT 1",
            params).fetchone()
        return None if row is None else self._record_from_row(row)

    # -- optimize verdicts ----------------------------------------------
    def put_optimize(self, job_id: str, verdict: dict,
                     created_at: Optional[float] = None) -> int:
        """Persist one optimizer verdict (``OptimizationVerdict.to_dict``).

        The full verdict rides in the content-addressed payload; the
        row keeps the fields queries filter on.
        """
        payload_hash, _, _ = self._put_payload(verdict)
        created = time.time() if created_at is None else created_at
        cursor = self._db.execute(
            "INSERT INTO optimize_verdicts (job_id, created_at, workload, "
            "variant, family, transform, status, payload_hash) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (job_id, created, verdict.get("workload", ""),
             verdict.get("variant", ""), verdict.get("family", ""),
             verdict.get("transform"), verdict.get("status", ""),
             payload_hash))
        self._db.commit()
        return cursor.lastrowid

    def get_optimize(self, job_id: str) -> Optional[dict]:
        """Latest stored verdict for a job id, or None."""
        row = self._db.execute(
            "SELECT id, job_id, created_at, payload_hash "
            "FROM optimize_verdicts WHERE job_id = ? "
            "ORDER BY created_at DESC, id DESC LIMIT 1",
            (job_id,)).fetchone()
        if row is None:
            return None
        return {"id": row[0], "job_id": row[1], "created_at": row[2],
                "verdict": self._load_payload(row[3])}

    def optimize_history(self, workload: Optional[str] = None,
                         status: Optional[str] = None,
                         limit: int = 50) -> List[dict]:
        """Stored verdicts newest-first, optionally filtered."""
        clauses, params = [], []
        if workload is not None:
            clauses.append("workload = ?")
            params.append(workload)
        if status is not None:
            clauses.append("status = ?")
            params.append(status)
        where = ("WHERE " + " AND ".join(clauses) + " ") if clauses else ""
        rows = self._db.execute(
            "SELECT id, job_id, created_at, payload_hash "
            "FROM optimize_verdicts " + where +
            "ORDER BY created_at DESC, id DESC LIMIT ?",
            params + [limit]).fetchall()
        return [{"id": r[0], "job_id": r[1], "created_at": r[2],
                 "verdict": self._load_payload(r[3])} for r in rows]

    # -- stats ----------------------------------------------------------
    def stats(self) -> dict:
        profiles = self._db.execute(
            "SELECT COUNT(*) FROM profiles").fetchone()[0]
        payloads, raw, stored = self._db.execute(
            "SELECT COUNT(*), COALESCE(SUM(raw_bytes), 0), "
            "COALESCE(SUM(stored_bytes), 0) FROM payloads").fetchone()
        optimize = self._db.execute(
            "SELECT COUNT(*) FROM optimize_verdicts").fetchone()[0]
        return {"profiles": profiles, "optimize_verdicts": optimize,
                "payloads": payloads, "raw_bytes": raw,
                "stored_bytes": stored}
