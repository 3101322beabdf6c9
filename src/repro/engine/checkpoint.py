"""Atomic, checksummed checkpoints for interrupted streaming runs.

A checkpoint is one file per scenario fingerprint holding the pickled
reducer-pass state produced by
:func:`repro.core.streaming.reduce_space_blocks` -- every reducer's
arrays plus the count of blocks already folded.  Because blocks stream
in deterministic plan order, the folded blocks always form a prefix of
the plan, so resuming is "skip the first ``blocks_done`` tasks, restore
the reducers, keep folding" and the final artifacts are bit-identical
to an uninterrupted run.

The on-disk format mirrors the result cache: a magic header, the
SHA-256 of the pickled payload, then the payload, written via temp file
+ ``os.replace`` so a crash mid-save can never leave a torn checkpoint
under the real name.  A checkpoint that fails verification is renamed
to ``<name>.corrupt`` (never deleted -- it is evidence) and reported as
absent, so the run restarts from scratch rather than aborting.

Checkpoints embed a *plan fingerprint* -- a stable hash of the block
plan's task sizes -- because block boundaries depend on the worker
count and memory budget.  Resuming under a different plan would
misalign block indices, so a fingerprint mismatch invalidates the
checkpoint (reported through the event callback) instead of silently
corrupting results.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.engine.faults import CheckpointCorrupt

#: Checkpoint file header; bump the digit on any payload layout change.
CHECKPOINT_MAGIC = b"RPCKPT1\n"

#: Format version stored inside the payload (belt to the magic's braces).
CHECKPOINT_VERSION = 1


@dataclass
class CheckpointManager:
    """Save/load the reducer-pass state for one scenario.

    Parameters
    ----------
    directory:
        Where checkpoint files live; created on first save.
    fingerprint:
        Stable hash identifying *what is being computed* (the engine uses
        the scenario's cache identity).  Names the file, so different
        scenarios sharing a directory never collide.
    every:
        Save cadence in blocks, forwarded to the reducer pass.
    on_event:
        Optional ``on_event(event, **payload)`` callback notified of
        saves, resumes, invalidations, and corruption.
    """

    directory: Path
    fingerprint: str
    every: int = 8
    on_event: Optional[Callable[..., None]] = None
    saves: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        if self.every < 1:
            raise ValueError("checkpoint interval must be at least one block")

    @property
    def path(self) -> Path:
        return self.directory / f"checkpoint-{self.fingerprint}.ckpt"

    def _emit(self, event: str, **payload: Any) -> None:
        if self.on_event is not None:
            self.on_event(event, **payload)

    # ---- write ---------------------------------------------------------

    def save(self, state: Dict[str, Any]) -> None:
        """Atomically persist one reducer-pass snapshot."""
        payload = pickle.dumps(
            {"version": CHECKPOINT_VERSION, "state": state},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(CHECKPOINT_MAGIC)
                fh.write(hashlib.sha256(payload).digest())
                fh.write(payload)
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.saves += 1
        self._emit(
            "checkpoint.saved",
            path=str(self.path),
            blocks_done=state.get("blocks_done"),
        )

    # ---- read ----------------------------------------------------------

    def _verify(self, raw: bytes) -> Dict[str, Any]:
        header = len(CHECKPOINT_MAGIC) + 32
        if len(raw) < header or not raw.startswith(CHECKPOINT_MAGIC):
            raise CheckpointCorrupt("bad magic or truncated header")
        digest = raw[len(CHECKPOINT_MAGIC):header]
        payload = raw[header:]
        if hashlib.sha256(payload).digest() != digest:
            raise CheckpointCorrupt("payload checksum mismatch")
        try:
            decoded = pickle.loads(payload)
        except Exception as exc:
            raise CheckpointCorrupt(
                f"payload failed to unpickle: {exc}"
            ) from exc
        if not isinstance(decoded, dict) or "state" not in decoded:
            raise CheckpointCorrupt("payload is not a checkpoint record")
        return decoded

    def load(
        self,
        plan_fingerprint: Optional[str] = None,
        search_stream: Optional[int] = None,
    ) -> Optional[Dict[str, Any]]:
        """The saved state, or ``None`` when absent/corrupt/mismatched.

        ``plan_fingerprint``, when given, must equal the fingerprint the
        state was saved under -- a mismatch means the block plan changed
        (different worker count or memory budget) and the checkpoint's
        block indices no longer line up, so it is invalidated.
        ``search_stream``, when given, must equal the search draw-stream
        version the state was saved under (states from before the
        version existed count as version 1); another version's state
        would resume a different search, so it is invalidated too.
        """
        try:
            raw = self.path.read_bytes()
        except OSError:
            return None
        try:
            decoded = self._verify(raw)
        except CheckpointCorrupt as exc:
            corrupt = self.path.with_suffix(".corrupt")
            try:
                os.replace(self.path, corrupt)
            except OSError:
                corrupt = self.path
            self._emit(
                "checkpoint.corrupt",
                path=str(corrupt),
                reason=str(exc),
            )
            return None
        if decoded.get("version") != CHECKPOINT_VERSION:
            self._emit(
                "checkpoint.invalidated",
                path=str(self.path),
                reason=f"format version {decoded.get('version')} "
                f"!= {CHECKPOINT_VERSION}",
            )
            return None
        state = decoded["state"]
        if (
            plan_fingerprint is not None
            and state.get("plan_fingerprint") != plan_fingerprint
        ):
            self._emit(
                "checkpoint.invalidated",
                path=str(self.path),
                reason="block plan changed (workers or memory budget)",
            )
            return None
        saved_stream = state.get("search_stream", 1)
        if search_stream is not None and saved_stream != search_stream:
            self._emit(
                "checkpoint.invalidated",
                path=str(self.path),
                reason=f"search stream version {saved_stream} "
                f"!= {search_stream}",
            )
            return None
        self._emit(
            "checkpoint.resumed",
            path=str(self.path),
            blocks_done=state.get("blocks_done"),
        )
        return state

    def clear(self) -> None:
        """Delete the checkpoint (called after a successful finish)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass
