"""Golden pins on the search agents' random-draw stream.

A searched artifact -- its frontier, its trajectory, its checkpoints --
is a function of the order in which the agents draw from their seeded
generator.  Any change to that order (one extra draw, a draw of a
different shape, a different sampling call) changes which rows a search
evaluates, so it is a different artifact even when it is equally good.
These tests pin the stream: for ``random``, ``ga`` and ``anneal`` at two
seeds each, on a small two-type and a small three-type space, the exact
rows evaluated (in order), the frontier bytes and the full
``trajectory.to_dict()`` must equal the values recorded in
``data/stream_identity.json``.

The stream is versioned by :data:`repro.search.SEARCH_STREAM`; version 2
draws every genome as a packed ``int64`` code, a whole batch per draw
call.  A checkpointed-then-resumed search must equal the uninterrupted
one, and ``data/ga_two_type_seed1_stream2.ckpt`` -- a mid-run checkpoint
recorded under the current version -- must load and finish identically.
``data/ga_two_type_seed1.ckpt`` is a version-1 checkpoint, whose
``seen`` table is keyed by ``(n, cores, f)`` tuples: it must be
invalidated with a reason naming the stream version, and the search
must start cold and still equal the golden.

To re-record after a deliberate change of the draw order (a new
artifact identity, with a new ``SEARCH_STREAM``), run ``PYTHONPATH=src
python tests/search/test_stream_identity.py``; it rewrites the golden
file and the current-version checkpoint.
"""

from __future__ import annotations

import functools
import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.calibration import ground_truth_params
from repro.core.configuration import GroupSpec
from repro.core.evaluate import evaluate_space_groups
from repro.core.pareto import ParetoFrontier
from repro.engine.checkpoint import CheckpointManager
from repro.hardware.catalog import AMD_K10, ARM_CORTEX_A9
from repro.hardware.extension import INTEL_ATOM
from repro.search import SEARCH_STREAM, SearchSpace, make_source, run_search
from repro.search.evaluator import evaluate_candidate_rows
from repro.workloads.extension import with_atom
from repro.workloads.suite import EP

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "stream_identity.json"
#: A checkpoint recorded under the current stream version.
RECORDED_CHECKPOINT = DATA / "ga_two_type_seed1_stream2.ckpt"
#: A version-1 checkpoint, ``seen`` keyed by ``(n, cores, f)`` tuples.
STREAM1_CHECKPOINT = DATA / "ga_two_type_seed1.ckpt"

UNITS = 1e6
EP3 = with_atom(EP)
SPACES = {
    "two_type": (
        (GroupSpec(ARM_CORTEX_A9, 3), GroupSpec(AMD_K10, 3)),
        {s.name: ground_truth_params(s, EP) for s in (ARM_CORTEX_A9, AMD_K10)},
    ),
    # The Atom group admits no absence: exercises the repair and
    # presence rules of a group that must always be present.
    "three_type": (
        (
            GroupSpec(ARM_CORTEX_A9, 2),
            GroupSpec(AMD_K10, 2),
            GroupSpec(INTEL_ATOM, 2, counts=(1, 2)),
        ),
        {
            s.name: ground_truth_params(s, EP3)
            for s in (ARM_CORTEX_A9, AMD_K10, INTEL_ATOM)
        },
    ),
}
STRATEGIES = ("random", "ga", "anneal")
SEEDS = (0, 1)
#: Budget as a share of the space, and the per-round batch size.
BUDGET_SHARE = 0.15
BATCH_ROWS = 64
CASES = [
    (space, strategy, seed)
    for space in SPACES
    for strategy in STRATEGIES
    for seed in SEEDS
]


class _Interrupted(Exception):
    pass


class _InterruptingCheckpoint(CheckpointManager):
    """Saves normally, then aborts the run after ``stop_after`` saves."""

    stop_after = 2

    def save(self, state):
        super().save(state)
        if self.saves >= self.stop_after:
            raise _Interrupted


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@functools.cache
def _truth(space_name: str) -> ParetoFrontier:
    specs, params = SPACES[space_name]
    full = evaluate_space_groups(specs, params, UNITS)
    return ParetoFrontier.from_points(full.times_s, full.energies_j)


def _search(space_name, strategy, seed, budget=None, checkpoint=None,
            resume=False):
    """Run one search; returns (searched, digest of the rows it evaluated)."""
    specs, params = SPACES[space_name]
    space = SearchSpace(specs)
    if budget is None:
        budget = int(BUDGET_SHARE * space.total_rows)
    evaluated = hashlib.sha256()

    def evaluate_fn(n, cores, f):
        data = evaluate_candidate_rows(specs, params, UNITS, n, cores, f)
        evaluated.update(
            _digest(n, cores, f, data.times_s, data.energies_j).encode()
        )
        return data

    searched = run_search(
        specs, params, UNITS,
        source=make_source(strategy, space, seed),
        budget_rows=budget,
        batch_rows=BATCH_ROWS,
        evaluate_fn=evaluate_fn,
        best_known=_truth(space_name),
        seed=seed,
        space=space,
        checkpoint=checkpoint,
        resume=resume,
        checkpoint_every=1,
    )
    return searched, evaluated.hexdigest()


def _frontier_digest(searched) -> str:
    reduced = searched.reduced
    fr = reduced.frontier
    arrays = [fr.times_s, fr.energies_j, fr.indices, reduced.frontier_n]
    for g in reduced.group_frontiers or ():
        if g is not None:
            arrays += [g.times_s, g.energies_j, g.indices]
    return _digest(*arrays) + "/" + ",".join(reduced.composition or ())


def _record(searched, rows_digest) -> dict:
    # A JSON round trip, so floats compare as they are stored.
    return json.loads(json.dumps({
        "frontier": _frontier_digest(searched),
        "rows": rows_digest,
        "trajectory": searched.trajectory.to_dict(),
    }))


def _key(space_name, strategy, seed, budget="share") -> str:
    return f"{space_name}/{strategy}/seed{seed}/{budget}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestGoldenStreams:
    @pytest.mark.parametrize("space_name,strategy,seed", CASES)
    def test_search_matches_recorded_stream(
        self, golden, space_name, strategy, seed
    ):
        searched, rows = _search(space_name, strategy, seed)
        expected = golden[_key(space_name, strategy, seed)]
        got = _record(searched, rows)
        assert got["trajectory"] == expected["trajectory"]
        assert got["rows"] == expected["rows"]
        assert got["frontier"] == expected["frontier"]

    def test_full_budget_ga_with_completion_sweep(self, golden):
        searched, rows = _search("two_type", "ga", 0, budget=10**9)
        expected = golden[_key("two_type", "ga", 0, "full")]
        assert _record(searched, rows) == expected
        assert searched.trajectory.final_recall == 1.0


class TestCheckpointIdentity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_interrupted_and_resumed_equals_uninterrupted(
        self, golden, tmp_path, strategy
    ):
        events = []

        def on_event(event, **payload):
            events.append(event)

        ckpt = _InterruptingCheckpoint(
            tmp_path, fingerprint="mid", on_event=on_event
        )
        with pytest.raises(_Interrupted):
            _search("two_type", strategy, 0, checkpoint=ckpt)
        resumed = CheckpointManager(
            tmp_path, fingerprint="mid", on_event=on_event
        )
        searched, _ = _search(
            "two_type", strategy, 0, checkpoint=resumed, resume=True
        )
        assert "checkpoint.resumed" in events
        expected = golden[_key("two_type", strategy, 0)]
        got = _record(searched, "")
        assert got["trajectory"] == expected["trajectory"]
        assert got["frontier"] == expected["frontier"]

    def test_recorded_checkpoint_resumes_identically(self, golden, tmp_path):
        events = []
        manager = CheckpointManager(
            tmp_path, fingerprint="recorded",
            on_event=lambda event, **_: events.append(event),
        )
        shutil.copyfile(RECORDED_CHECKPOINT, manager.path)
        state = manager.load(search_stream=SEARCH_STREAM)
        assert state is not None and state["round_index"] == 2

        searched, _ = _search(
            "two_type", "ga", 1, checkpoint=manager, resume=True
        )
        assert events.count("checkpoint.resumed") == 2
        expected = golden[_key("two_type", "ga", 1)]
        got = _record(searched, "")
        assert got["trajectory"] == expected["trajectory"]
        assert got["frontier"] == expected["frontier"]

    def test_stream1_checkpoint_is_invalidated(self, golden, tmp_path):
        events = []
        manager = CheckpointManager(
            tmp_path, fingerprint="recorded",
            on_event=lambda event, **payload: events.append((event, payload)),
        )
        shutil.copyfile(STREAM1_CHECKPOINT, manager.path)

        searched, rows = _search(
            "two_type", "ga", 1, checkpoint=manager, resume=True
        )
        names = [event for event, _ in events]
        assert "checkpoint.resumed" not in names
        reasons = [p["reason"] for e, p in events if e == "checkpoint.invalidated"]
        assert reasons == [f"search stream version 1 != {SEARCH_STREAM}"]
        # Started cold: the whole golden search, rows included.
        assert _record(searched, rows) == golden[_key("two_type", "ga", 1)]


def _rerecord() -> None:
    """Rewrite the golden file and the recorded checkpoint."""
    out = {}
    for space_name, strategy, seed in CASES:
        searched, rows = _search(space_name, strategy, seed)
        out[_key(space_name, strategy, seed)] = _record(searched, rows)
    searched, rows = _search("two_type", "ga", 0, budget=10**9)
    out[_key("two_type", "ga", 0, "full")] = _record(searched, rows)
    DATA.mkdir(exist_ok=True)
    # One case per line: a re-recording diffs case by case.
    lines = [
        f"{json.dumps(k)}: {json.dumps(out[k], sort_keys=True)}"
        for k in sorted(out)
    ]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = _InterruptingCheckpoint(Path(tmp), fingerprint="recorded")
        try:
            _search("two_type", "ga", 1, checkpoint=ckpt)
        except _Interrupted:
            pass
        shutil.copyfile(ckpt.path, RECORDED_CHECKPOINT)


if __name__ == "__main__":
    _rerecord()
