"""Content-addressed result cache: memory first, optional disk layer.

The engine caches the two expensive pipeline stages -- per-node
calibration and configuration-space evaluation -- keyed by a
:func:`~repro.engine.hashing.stable_hash` of *everything* that determines
the result (node spec, workload spec, noise model, seed, space bounds,
model parameters).  Identical requests in one process are answered from a
dict; an optional on-disk layer under ``results/.cache/`` carries results
across processes.

Disk entries are written atomically (temp file + ``os.replace``, so a
killed process can never leave a truncated entry under the real name)
and carry a content checksum: the format is a magic header, the SHA-256
of the pickled payload, then the payload.  Every read verifies the
checksum; an entry that fails (truncated, bit-flipped, wrong magic, or
a pre-checksum legacy entry) is *quarantined* -- moved aside into a
``quarantine/`` subdirectory, counted in :attr:`CacheStats.quarantined`,
reported through the optional event callback -- and treated as a miss,
never raised mid-run.

The cache returns the *same object* on a memory hit -- cached values are
treated as immutable, which every engine-cached type satisfies
(``NodeModelParams`` is frozen; ``ConfigSpaceResult`` arrays are never
mutated by library code).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.engine.faults import CacheCorrupt, FaultInjector
from repro.engine.hashing import stable_hash

#: On-disk entry header; bump the digit when the entry format changes so
#: older layouts are quarantined instead of misread.
CACHE_MAGIC = b"RPCACHE1\n"

#: Directory name (under ``disk_dir``) where corrupt entries are moved.
QUARANTINE_DIR = "quarantine"


@dataclass
class CacheStats:
    """Hit/miss counters, exposed for tests and reporting sinks."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    quarantined: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses + self.disk_hits

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "quarantined": self.quarantined,
        }


@dataclass
class ResultCache:
    """Memoization table keyed by stable content hashes.

    Parameters
    ----------
    disk_dir:
        When set, results are also pickled under this directory
        (conventionally ``results/.cache/``) and later processes can warm
        from it.  Disk failures (unreadable entry, full disk) degrade to
        recomputation, never to an exception; entries failing checksum
        verification are quarantined and recomputed.
    on_event:
        Optional callback ``on_event(event, **payload)`` (the engine
        wires :meth:`RunContext.emit` here) notified of quarantines.
    fault_injector:
        Deterministic chaos hook (:class:`~repro.engine.faults.FaultInjector`);
        when set, its ``corrupt_cache`` faults damage entries just before
        they are read, exercising the verify/quarantine path.
    """

    disk_dir: Optional[Path] = None
    stats: CacheStats = field(default_factory=CacheStats)
    on_event: Optional[Callable[..., None]] = None
    fault_injector: Optional[FaultInjector] = None
    _memory: Dict[str, Any] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.disk_dir is not None:
            self.disk_dir = Path(self.disk_dir)
            self.disk_dir.mkdir(parents=True, exist_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    def key(self, kind: str, key_obj: Any) -> str:
        """The cache key for a (kind, content) pair."""
        return f"{kind}-{stable_hash(key_obj)}"

    # The memory-tier API: the persistent artifact store
    # (:class:`repro.store.ArtifactStore`) fronts its sqlite layer with a
    # ResultCache instead of growing a second in-process table, so one
    # process shares a single memoization surface (and one set of
    # counters) across both layers.

    def peek(self, key: str, default: Any = None) -> Any:
        """The stored value for a pre-built ``key``, without computing.

        Does not touch the hit/miss counters -- callers layering their
        own accounting (the artifact store) count at their level.
        """
        return self._memory.get(key, default)

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under a pre-built ``key`` in the memory tier."""
        self._memory[key] = value

    def discard(self, key: str) -> None:
        """Drop ``key`` from the memory tier, if present."""
        self._memory.pop(key, None)

    def get_or_compute(
        self,
        kind: str,
        key_obj: Any,
        compute: Callable[[], Any],
    ) -> Any:
        """Return the cached value for ``(kind, key_obj)``, computing on miss.

        ``kind`` namespaces the key (``"params"``, ``"space"``, ...) so
        unrelated stages can never collide even on equal content.
        """
        key = self.key(kind, key_obj)
        if key in self._memory:
            self.stats.hits += 1
            return self._memory[key]
        value = self._disk_read(key)
        if value is not None:
            self.stats.disk_hits += 1
            self._memory[key] = value
            return value
        self.stats.misses += 1
        value = compute()
        self._memory[key] = value
        self._disk_write(key, value)
        return value

    def clear(self) -> None:
        """Drop every in-memory entry (the disk layer is left alone)."""
        self._memory.clear()

    # ---- disk layer ----------------------------------------------------

    def _emit(self, event: str, **payload: Any) -> None:
        if self.on_event is not None:
            self.on_event(event, **payload)

    def _disk_path(self, key: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / f"{key}.pkl"

    def _verify_entry(self, raw: bytes) -> Any:
        """Decode one on-disk entry, raising :class:`CacheCorrupt` on damage."""
        header = len(CACHE_MAGIC) + 32
        if len(raw) < header or not raw.startswith(CACHE_MAGIC):
            raise CacheCorrupt("bad magic or truncated header")
        digest = raw[len(CACHE_MAGIC):header]
        payload = raw[header:]
        if hashlib.sha256(payload).digest() != digest:
            raise CacheCorrupt("payload checksum mismatch")
        try:
            return pickle.loads(payload)
        except Exception as exc:  # checksum passed but unpicklable: stale class?
            raise CacheCorrupt(f"payload failed to unpickle: {exc}") from exc

    def _quarantine(self, key: str, path: Path, reason: str) -> None:
        """Move a corrupt entry aside so it can never poison another run."""
        qdir = self.disk_dir / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            try:  # quarantine dir unavailable: deleting still un-poisons
                os.unlink(path)
            except OSError:
                pass
        self.stats.quarantined += 1
        self._emit("cache.quarantined", key=key, reason=reason)

    def _disk_read(self, key: str) -> Optional[Any]:
        if self.disk_dir is None:
            return None
        path = self._disk_path(key)
        if self.fault_injector is not None:
            self.fault_injector.on_cache_read(key, path)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            return self._verify_entry(raw)
        except CacheCorrupt as exc:
            self._quarantine(key, path, str(exc))
            return None

    def _disk_write(self, key: str, value: Any) -> None:
        if self.disk_dir is None:
            return
        path = self._disk_path(key)
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError):
            return  # a cold disk cache is always acceptable
        try:
            fd, tmp = tempfile.mkstemp(dir=self.disk_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(CACHE_MAGIC)
                    fh.write(hashlib.sha256(payload).digest())
                    fh.write(payload)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            pass  # full disk / permissions: recomputation beats raising
