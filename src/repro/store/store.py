"""Sqlite-backed artifact store with dependency-aware invalidation.

These tables carry the state:

``scenarios``
    Every scenario declaration this store has executed, keyed by
    :func:`~repro.engine.stagegraph.scenario_identity` (name-based, so
    one row tracks a scenario across hardware edits), with its JSON.
``stages``
    The (scenario, stage name) -> artifact-key mapping of the *latest*
    run, the store's notion of "what this scenario currently resolves
    to".  Superseded keys stay in ``artifacts`` (content-addressed
    entries never become wrong, only unreferenced).
``artifacts``
    Content-addressed stage artifacts: pickled payload, SHA-256
    checksum, a ``state`` flag (``fresh`` / ``stale`` / ``quarantined``).
``deps`` / ``specs``
    Dependency edges between artifact keys (parents include
    ``spec:node:<name>`` / ``spec:workload:<name>`` pseudo-nodes) and
    the recorded content of every named spec.  Re-recording a spec
    whose content changed walks ``deps`` downstream and marks every
    reachable artifact stale -- the next run recomputes exactly those.
``jobs``
    The durable run queue (:mod:`repro.service.jobs`): one row per
    enqueued scenario run with its state machine (``queued`` ->
    ``leased`` -> ``running`` -> ``done`` / ``failed`` / ``cancelled``),
    attempt count, lease owner + expiry, and error record.  Queue rows
    ride the same sqlite file and transactions as the artifacts they
    produce, so a crash can never separate a job's state from its
    output.

Integrity follows the result cache's quarantine discipline
(:mod:`repro.engine.cache`): every payload read verifies its checksum;
a truncated or bit-flipped row is marked ``quarantined``, counted,
reported through the event callback, and treated as a miss -- never
raised mid-run.  All writes are transactional (``with connection:``),
so a killed process can never leave a half-written artifact visible.

The in-process tier is a shared :class:`~repro.engine.cache.ResultCache`
(conventionally the run context's own): memory hits never touch sqlite,
and both layers report through one :class:`CacheStats` counter set.  A
store opened without one (a service process, which lives for many jobs)
keeps a private tier of the :data:`MEMORY_TIER_ENTRIES` most recently
used artifacts; older ones are read back from sqlite.

The store also carries the run queue's in-process wake-up
(:meth:`ArtifactStore.wake_runners`): a committed enqueue wakes the
supervisors sharing this store instance at once, instead of leaving the
job for their next poll.
"""

from __future__ import annotations

import hashlib
import pickle
import shutil
import sqlite3
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.cache import CacheStats, ResultCache
from repro.engine.hashing import stable_hash

#: Bump when the payload encoding or schema changes incompatibly, so an
#: old store is rebuilt instead of misread.
STORE_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS scenarios (
    identity TEXT PRIMARY KEY,
    name TEXT,
    workload TEXT NOT NULL,
    spec_json TEXT NOT NULL,
    updated_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS stages (
    scenario_identity TEXT NOT NULL,
    stage TEXT NOT NULL,
    artifact_key TEXT NOT NULL,
    updated_at REAL NOT NULL,
    PRIMARY KEY (scenario_identity, stage)
);
CREATE TABLE IF NOT EXISTS artifacts (
    key TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'fresh',
    checksum TEXT NOT NULL,
    payload BLOB NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS deps (
    parent TEXT NOT NULL,
    child TEXT NOT NULL,
    PRIMARY KEY (parent, child)
);
CREATE INDEX IF NOT EXISTS deps_by_parent ON deps (parent);
CREATE TABLE IF NOT EXISTS specs (
    kind TEXT NOT NULL,
    name TEXT NOT NULL,
    content_hash TEXT NOT NULL,
    checksum TEXT NOT NULL,
    payload BLOB NOT NULL,
    updated_at REAL NOT NULL,
    PRIMARY KEY (kind, name)
);
CREATE TABLE IF NOT EXISTS jobs (
    id TEXT PRIMARY KEY,
    idempotency_key TEXT UNIQUE,
    scenario_json TEXT NOT NULL,
    scenario_name TEXT,
    state TEXT NOT NULL DEFAULT 'queued',
    attempts INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL DEFAULT 3,
    not_before REAL NOT NULL DEFAULT 0,
    lease_owner TEXT,
    lease_expires_at REAL,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    error_json TEXT,
    result_json TEXT,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state, not_before, created_at);
"""

#: Job states a run queue row moves through; terminal states never
#: transition again (except an explicit operator ``retry``).
JOB_ACTIVE_STATES = ("queued", "leased", "running")

#: How long a writer waits for a competing process's sqlite lock before
#: erroring (milliseconds).  Generous: queue transactions are tiny, so
#: a wait this long means something is genuinely wedged.
BUSY_TIMEOUT_MS = 30_000

#: Artifacts the private memory tier of a store opened without
#: ``memory=`` keeps.  A service process runs job after job, so an
#: unbounded tier would grow with every artifact it ever touched; the
#: least recently used entries drop out and are read back from sqlite.
MEMORY_TIER_ENTRIES = 256


class StoreCorrupt(RuntimeError):
    """An artifact row failed integrity verification (internal signal)."""


class _LRUTier(ResultCache):
    """A memory tier holding the :data:`MEMORY_TIER_ENTRIES` most recently
    used entries.  HTTP handler and runner threads share one store, so
    every access takes the tier's lock."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self._memory = OrderedDict()
        self._tier_lock = threading.Lock()

    def peek(self, key: str, default: Any = None) -> Any:
        with self._tier_lock:
            if key not in self._memory:
                return default
            self._memory.move_to_end(key)
            return self._memory[key]

    def put(self, key: str, value: Any) -> None:
        with self._tier_lock:
            self._memory[key] = value
            self._memory.move_to_end(key)
            while len(self._memory) > MEMORY_TIER_ENTRIES:
                self._memory.popitem(last=False)

    def discard(self, key: str) -> None:
        with self._tier_lock:
            self._memory.pop(key, None)


class ArtifactStore:
    """Persistent scenario/stage/artifact store under one directory.

    Parameters
    ----------
    directory:
        Store root; ``store.sqlite`` is created inside.  The directory
        is created if missing.
    memory:
        The in-process tier -- pass the run context's
        :class:`~repro.engine.cache.ResultCache` so stage loads hit the
        same table (and the same counters) the engine already uses; a
        private tier bounded to :data:`MEMORY_TIER_ENTRIES` entries is
        created when omitted (service processes).
    on_event:
        Optional callback ``on_event(event, **payload)`` notified of
        quarantines and invalidations.
    """

    def __init__(
        self,
        directory,
        memory: Optional[ResultCache] = None,
        on_event: Optional[Callable[..., None]] = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "store.sqlite"
        self.memory = memory if memory is not None else _LRUTier()
        self.on_event = on_event
        self._lock = threading.RLock()
        self._wake = threading.Condition()
        self._wake_generation = 0
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        with self._conn:
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(STORE_SCHEMA_VERSION)),
            )

    # A store shares counter semantics with the cache tiers: ``hits``
    # are memory-tier hits, ``disk_hits`` are sqlite loads,
    # ``quarantined`` counts integrity failures.
    @property
    def stats(self) -> CacheStats:
        return self.memory.stats

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    @contextmanager
    def transaction(self):
        """The locked sqlite handle inside one atomic *write* transaction.

        The extension point queue/maintenance layers build on
        (:mod:`repro.service.jobs`): everything executed inside the
        ``with`` block commits or rolls back as a unit, under the same
        lock every other store operation takes.

        The transaction opens with ``BEGIN IMMEDIATE``, taking sqlite's
        write lock *before* the first statement runs.  That matters for
        the queue's read-then-write transactions when several processes
        share one store file: a deferred transaction under WAL pins a
        read snapshot at its first ``SELECT`` and then fails with a
        non-retryable ``SQLITE_BUSY_SNAPSHOT`` if any other process
        commits first, whereas an immediate transaction simply waits on
        the busy handler (``busy_timeout``) and serializes.  Within one
        process the ``RLock`` serializes threads the same way.
        """
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield self._conn
            except BaseException:
                self._conn.rollback()
                raise
            else:
                self._conn.commit()

    # ---- runner wake-up -------------------------------------------------

    @property
    def wake_generation(self) -> int:
        """Counts :meth:`wake_runners` calls; a runner notes it before
        it leases and hands it to :meth:`wait_for_wake`."""
        with self._wake:
            return self._wake_generation

    def wake_runners(self) -> None:
        """Wake every thread in :meth:`wait_for_wake` on this instance.

        Called when an enqueue commits and when a supervisor stops.  A
        counter rather than a shared event: with several runners, one
        runner clearing an event could swallow the wake-up another was
        about to see.
        """
        with self._wake:
            self._wake_generation += 1
            self._wake.notify_all()

    def wait_for_wake(self, generation: int, timeout: float) -> bool:
        """Block until :meth:`wake_runners` has run since ``generation``
        was read (True) or ``timeout`` seconds pass (False)."""
        with self._wake:
            return self._wake.wait_for(
                lambda: self._wake_generation != generation, timeout
            )

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _emit(self, event: str, **payload: Any) -> None:
        if self.on_event is not None:
            self.on_event(event, **payload)

    # ---- artifact layer ------------------------------------------------

    @staticmethod
    def _encode(value: Any) -> Tuple[bytes, str]:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        return payload, hashlib.sha256(payload).hexdigest()

    def _verify(self, key: str, checksum: str, payload: bytes) -> Any:
        if hashlib.sha256(payload).hexdigest() != checksum:
            raise StoreCorrupt(f"artifact {key}: payload checksum mismatch")
        try:
            return pickle.loads(payload)
        except Exception as exc:  # checksum ok but undecodable: stale class?
            raise StoreCorrupt(f"artifact {key}: failed to unpickle: {exc}") from exc

    def _quarantine(self, key: str, reason: str) -> None:
        """Mark a damaged row so it can never answer another query."""
        with self._lock, self._conn:
            self._conn.execute(
                "UPDATE artifacts SET state = 'quarantined' WHERE key = ?",
                (key,),
            )
        self.stats.quarantined += 1
        self._emit("store.quarantined", key=key, reason=reason)

    def get(self, key: str) -> Tuple[Any, bool]:
        """``(value, True)`` for a fresh stored artifact, else ``(None, False)``.

        Memory tier first (no sqlite touch), then a verified sqlite
        read.  Rows that are stale, quarantined, or fail verification
        are misses; verification failures are additionally quarantined.
        """
        sentinel = object()
        value = self.memory.peek(key, sentinel)
        if value is not sentinel:
            self.stats.hits += 1
            return value, True
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT state, checksum, payload FROM artifacts WHERE key = ?",
                    (key,),
                ).fetchone()
        except sqlite3.DatabaseError as exc:
            # A damaged database file degrades to recomputation.
            self._emit("store.unreadable", key=key, reason=str(exc))
            return None, False
        if row is None:
            return None, False
        state, checksum, payload = row
        if state != "fresh":
            return None, False
        try:
            value = self._verify(key, checksum, payload)
        except StoreCorrupt as exc:
            self._quarantine(key, str(exc))
            return None, False
        self.stats.disk_hits += 1
        self.memory.put(key, value)
        return value, True

    def put(
        self,
        key: str,
        value: Any,
        kind: str,
        scenario_id: Optional[str] = None,
        stage: Optional[str] = None,
        deps: Sequence[str] = (),
    ) -> None:
        """Store one stage artifact atomically, with its dependency edges.

        Re-putting an existing key refreshes it (a recompute after
        quarantine or invalidation heals the row).  When ``scenario_id``
        and ``stage`` are given the scenario's stage mapping is pointed
        at this key; a previously mapped different key is simply
        superseded -- content-addressed entries stay valid for their own
        identity.
        """
        payload, checksum = self._encode(value)
        now = time.time()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO artifacts "
                "(key, kind, state, checksum, payload, created_at) "
                "VALUES (?, ?, 'fresh', ?, ?, ?)",
                (key, kind, checksum, payload, now),
            )
            for parent in deps:
                self._conn.execute(
                    "INSERT OR IGNORE INTO deps (parent, child) VALUES (?, ?)",
                    (parent, key),
                )
            if scenario_id is not None and stage is not None:
                self._conn.execute(
                    "INSERT OR REPLACE INTO stages "
                    "(scenario_identity, stage, artifact_key, updated_at) "
                    "VALUES (?, ?, ?, ?)",
                    (scenario_id, stage, key, now),
                )
        self.memory.put(key, value)

    def artifact_state(self, key: str) -> Optional[str]:
        """The row's state flag, or ``None`` when the key is unknown."""
        with self._lock:
            row = self._conn.execute(
                "SELECT state FROM artifacts WHERE key = ?", (key,)
            ).fetchone()
        return row[0] if row is not None else None

    # ---- invalidation --------------------------------------------------

    def invalidate_downstream(self, root_key: str) -> List[str]:
        """Mark every artifact reachable from ``root_key`` stale.

        ``root_key`` may be an artifact key or a spec pseudo-node; the
        walk follows ``deps`` edges transitively.  Returns the keys
        whose rows were actually flipped to stale.
        """
        staled: List[str] = []
        seen = {root_key}
        frontier = [root_key]
        # Read-then-write walk: take the write lock up front so two
        # processes invalidating concurrently serialize instead of
        # failing on a snapshot conflict (see :meth:`transaction`).
        with self.transaction():
            while frontier:
                placeholders = ",".join("?" * len(frontier))
                children = [
                    r[0]
                    for r in self._conn.execute(
                        f"SELECT child FROM deps WHERE parent IN ({placeholders})",
                        frontier,
                    )
                ]
                frontier = [c for c in children if c not in seen]
                seen.update(frontier)
                for child in frontier:
                    cur = self._conn.execute(
                        "UPDATE artifacts SET state = 'stale' "
                        "WHERE key = ? AND state = 'fresh'",
                        (child,),
                    )
                    if cur.rowcount:
                        staled.append(child)
        # Stale artifacts must not linger in the memory tier either.
        for key in staled:
            self.memory.discard(key)
        if staled:
            self._emit("store.invalidated", root=root_key, keys=staled)
        return staled

    def record_spec(self, kind: str, name: str, spec: Any) -> List[str]:
        """Record a named spec's content; invalidate downstream on change.

        Returns the artifact keys marked stale (empty when the spec is
        new or unchanged).  The spec object itself is stored so query
        services can answer power/idle questions without a catalog.
        """
        from repro.engine.stagegraph import spec_key

        content_hash = stable_hash(spec)
        key = spec_key(kind, name)
        with self._lock:
            row = self._conn.execute(
                "SELECT content_hash FROM specs WHERE kind = ? AND name = ?",
                (kind, name),
            ).fetchone()
        staled: List[str] = []
        if row is not None and row[0] != content_hash:
            staled = self.invalidate_downstream(key)
        if row is None or row[0] != content_hash:
            payload, checksum = self._encode(spec)
            with self._lock, self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO specs "
                    "(kind, name, content_hash, checksum, payload, updated_at) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (kind, name, content_hash, checksum, payload, time.time()),
                )
        return staled

    def get_spec(self, kind: str, name: str) -> Optional[Any]:
        """The recorded spec object, verified, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT checksum, payload FROM specs WHERE kind = ? AND name = ?",
                (kind, name),
            ).fetchone()
        if row is None:
            return None
        checksum, payload = row
        try:
            return self._verify(f"spec:{kind}:{name}", checksum, payload)
        except StoreCorrupt as exc:
            self.stats.quarantined += 1
            self._emit("store.quarantined", key=f"spec:{kind}:{name}", reason=str(exc))
            return None

    # ---- scenario layer ------------------------------------------------

    def record_scenario(self, identity: str, scenario) -> None:
        """Upsert one scenario declaration row."""
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO scenarios "
                "(identity, name, workload, spec_json, updated_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    identity,
                    scenario.name,
                    scenario.workload,
                    scenario.to_json(),
                    time.time(),
                ),
            )

    def scenarios(self) -> List[Dict[str, Any]]:
        """Every stored scenario: identity, name, workload, timestamps."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT identity, name, workload, updated_at FROM scenarios "
                "ORDER BY updated_at"
            ).fetchall()
        return [
            {
                "identity": identity,
                "name": name,
                "workload": workload,
                "updated_at": updated_at,
            }
            for identity, name, workload, updated_at in rows
        ]

    def scenario_json(self, identity: str) -> Optional[str]:
        with self._lock:
            row = self._conn.execute(
                "SELECT spec_json FROM scenarios WHERE identity = ?", (identity,)
            ).fetchone()
        return row[0] if row is not None else None

    def resolve_scenario(self, ref: str) -> Optional[str]:
        """A scenario identity from a name, full identity, or unique prefix."""
        with self._lock:
            row = self._conn.execute(
                "SELECT identity FROM scenarios WHERE identity = ? OR name = ?",
                (ref, ref),
            ).fetchone()
            if row is not None:
                return row[0]
            rows = self._conn.execute(
                "SELECT identity FROM scenarios WHERE identity LIKE ?",
                (ref + "%",),
            ).fetchall()
        if len(rows) == 1:
            return rows[0][0]
        return None

    def stage_map(self, scenario_id: str) -> Dict[str, str]:
        """The scenario's current stage -> artifact-key mapping."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT stage, artifact_key FROM stages "
                "WHERE scenario_identity = ?",
                (scenario_id,),
            ).fetchall()
        return dict(rows)

    def stage_status(self, scenario_id: str, stage: str, identity: str) -> str:
        """``hit`` / ``stale`` / ``miss`` for one planned stage identity.

        ``stale`` means the store holds an artifact for this scenario
        stage that no longer matches the planned identity (an upstream
        spec changed) or whose row was invalidated/quarantined.
        """
        with self._lock:
            mapped = self._conn.execute(
                "SELECT artifact_key FROM stages "
                "WHERE scenario_identity = ? AND stage = ?",
                (scenario_id, stage),
            ).fetchone()
        state = self.artifact_state(identity)
        if state == "fresh":
            return "hit"
        if state in ("stale", "quarantined"):
            return "stale"
        # No row under the planned identity: a previously mapped
        # artifact (now unreachable) also reads as stale.
        if mapped is not None:
            return "stale"
        return "miss"

    def load_stage(self, scenario_id: str, stage: str) -> Tuple[Any, bool]:
        """The scenario's current artifact for ``stage`` via the mapping."""
        key = self.stage_map(scenario_id).get(stage)
        if key is None:
            return None, False
        return self.get(key)

    # ---- garbage collection --------------------------------------------

    def _job_roots(self) -> set:
        """Artifact keys an active (queued/leased/running) job references.

        A job row carries its own scenario spec, so its roots resolve
        without consulting the ``scenarios`` registry: a pending run
        keeps its scenario's stage-mapped artifacts live even when the
        registry row was removed or renamed out from under it.  In a
        healthy store these roots are a subset of the stage roots
        (``job_protected`` reports 0); they exist as defense in depth
        so future maintenance passes that prune scenario registrations
        can never collect artifacts a pending run is about to reuse.
        Undecodable job specs are skipped (the supervisor will fail
        them properly); they protect nothing.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT scenario_json FROM jobs WHERE state IN (?, ?, ?)",
                JOB_ACTIVE_STATES,
            ).fetchall()
        roots: set = set()
        if not rows:
            return roots
        from repro.engine.scenario import Scenario
        from repro.engine.stagegraph import scenario_identity

        for (spec_json,) in rows:
            try:
                identity = scenario_identity(Scenario.from_json(spec_json))
            except Exception:
                continue
            roots.update(self.stage_map(identity).values())
        return roots

    def _live_keys(self, extra_roots: Sequence[str] = ()) -> set:
        """Artifact keys reachable from any current stage mapping.

        Roots are every ``stages.artifact_key`` plus ``extra_roots``
        (the active-job roots during GC); reachability walks ``deps``
        edges *upward* (child -> parents), so the provenance cone of
        every live artifact -- superseded calibrations a live space was
        computed from, spec pseudo-nodes -- survives GC too.
        """
        with self._lock:
            live = {
                r[0]
                for r in self._conn.execute("SELECT artifact_key FROM stages")
            }
            live.update(extra_roots)
            frontier = list(live)
            while frontier:
                placeholders = ",".join("?" * len(frontier))
                parents = [
                    r[0]
                    for r in self._conn.execute(
                        f"SELECT parent FROM deps WHERE child IN ({placeholders})",
                        frontier,
                    )
                ]
                frontier = [p for p in parents if p not in live]
                live.update(frontier)
        return live

    def gc(self, dry_run: bool = False) -> Dict[str, Any]:
        """Remove artifact rows unreferenced by any live stage mapping.

        An artifact is *live* when some scenario's current stage mapping
        points at it, directly or through the dependency cone (see
        :meth:`_live_keys`), or when a queued/leased/running job's
        scenario references it (:meth:`_job_roots`) -- a pending run's
        inputs are never collected out from under it.  Everything else
        -- superseded identities from edited specs or changed search
        budgets, stale and quarantined leftovers -- is garbage.
        ``dry_run=True`` only counts.  Removal also drops the dead keys'
        dependency edges and evicts them from the memory tier, and is
        transactional: a killed GC leaves the store exactly as it was.

        GC also prunes **orphaned job checkpoint directories**
        (``<store>/jobs/<id>/``): a directory whose job row is terminal
        (``done``/``failed``/``cancelled``) or gone will never be
        resumed, so it is garbage; directories of queued/leased/running
        jobs are kept -- a pending retry resumes from them.

        Returns ``{"removed", "kept", "reclaimed_bytes", "dry_run",
        "active_jobs", "job_protected", "job_dirs_removed"}``
        (``removed`` counts the rows deleted -- or, dry-run, deletable;
        ``job_protected`` counts the artifacts kept *only* because an
        active job references them; ``job_dirs_removed`` counts the
        orphaned checkpoint directories pruned).
        """
        job_roots = self._job_roots()
        live = self._live_keys(extra_roots=sorted(job_roots))
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, LENGTH(payload) FROM artifacts"
            ).fetchall()
            active_jobs = self._conn.execute(
                "SELECT COUNT(*) FROM jobs WHERE state IN (?, ?, ?)",
                JOB_ACTIVE_STATES,
            ).fetchone()[0]
            active_ids = {
                r[0]
                for r in self._conn.execute(
                    "SELECT id FROM jobs WHERE state IN (?, ?, ?)",
                    JOB_ACTIVE_STATES,
                )
            }
        dead_dirs: List[Path] = []
        jobs_dir = self.directory / "jobs"
        if jobs_dir.is_dir():
            dead_dirs = [
                child
                for child in sorted(jobs_dir.iterdir())
                if child.is_dir() and child.name not in active_ids
            ]
        if not dry_run:
            for child in dead_dirs:
                shutil.rmtree(child, ignore_errors=True)
        dead = [(key, nbytes) for key, nbytes in rows if key not in live]
        job_protected = 0
        if job_roots:
            without_jobs = self._live_keys()
            job_protected = sum(
                1 for key, _ in rows if key in live and key not in without_jobs
            )
        report = {
            "removed": len(dead),
            "kept": len(rows) - len(dead),
            "reclaimed_bytes": int(sum(n for _, n in dead)),
            "dry_run": bool(dry_run),
            "active_jobs": int(active_jobs),
            "job_protected": int(job_protected),
            "job_dirs_removed": len(dead_dirs),
        }
        if dry_run or not dead:
            self._emit("store.gc", **report)
            return report
        dead_keys = [key for key, _ in dead]
        with self._lock, self._conn:
            for lo in range(0, len(dead_keys), 500):
                chunk = dead_keys[lo:lo + 500]
                placeholders = ",".join("?" * len(chunk))
                self._conn.execute(
                    f"DELETE FROM artifacts WHERE key IN ({placeholders})",
                    chunk,
                )
                self._conn.execute(
                    f"DELETE FROM deps WHERE child IN ({placeholders}) "
                    f"OR parent IN ({placeholders})",
                    chunk + chunk,
                )
        for key in dead_keys:
            self.memory.discard(key)
        self._emit("store.gc", **report)
        return report
