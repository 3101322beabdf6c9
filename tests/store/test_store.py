"""ArtifactStore: persistence, invalidation, and corruption handling."""

import dataclasses
import json
import sqlite3

import pytest

from repro.engine import ResultCache, Scenario
from repro.hardware.catalog import ARM_CORTEX_A9
from repro.store import ArtifactStore
from repro.store.store import MEMORY_TIER_ENTRIES


@pytest.fixture
def store(tmp_path):
    with ArtifactStore(tmp_path / "store") as s:
        yield s


class TestArtifactRoundTrip:
    def test_put_get(self, store):
        store.put("k1", {"x": [1, 2, 3]}, kind="space")
        value, ok = store.get("k1")
        assert ok
        assert value == {"x": [1, 2, 3]}

    def test_missing_key_is_miss(self, store):
        value, ok = store.get("nope")
        assert not ok
        assert value is None

    def test_memory_tier_hit_skips_sqlite(self, store):
        store.put("k1", 42, kind="space")
        store.get("k1")
        hits_before = store.stats.hits
        disk_before = store.stats.disk_hits
        value, ok = store.get("k1")
        assert ok and value == 42
        assert store.stats.hits == hits_before + 1
        assert store.stats.disk_hits == disk_before

    def test_persists_across_instances(self, tmp_path):
        with ArtifactStore(tmp_path / "s") as first:
            first.put("k1", ("a", 1), kind="frontier")
        with ArtifactStore(tmp_path / "s") as second:
            value, ok = second.get("k1")
            assert ok and value == ("a", 1)
            # Cold process: the load is a disk hit, not a memory hit.
            assert second.stats.disk_hits == 1

    def test_reput_overwrites(self, store):
        store.put("k1", "old", kind="space")
        store.put("k1", "new", kind="space")
        assert store.get("k1") == ("new", True)


class TestInvalidation:
    def _chain(self, store):
        """spec:node:n -> a -> b -> c, with a side artifact off the chain."""
        store.put("a", 1, kind="calibrate", deps=["spec:node:n"])
        store.put("b", 2, kind="space", deps=["a"])
        store.put("c", 3, kind="frontier", deps=["b"])
        store.put("other", 9, kind="space", deps=["spec:node:m"])

    def test_downstream_recursion(self, store):
        self._chain(store)
        staled = store.invalidate_downstream("spec:node:n")
        assert set(staled) == {"a", "b", "c"}
        for key in ("a", "b", "c"):
            assert store.artifact_state(key) == "stale"
            assert store.get(key) == (None, False)
        # The unrelated artifact is untouched.
        assert store.artifact_state("other") == "fresh"

    def test_stale_artifact_evicted_from_memory_tier(self, store):
        self._chain(store)
        store.invalidate_downstream("spec:node:n")
        # A memory-tier hit after invalidation would serve stale data.
        assert store.get("a") == (None, False)

    def test_reput_heals_stale_row(self, store):
        self._chain(store)
        store.invalidate_downstream("spec:node:n")
        store.put("b", 22, kind="space", deps=["a"])
        assert store.get("b") == (22, True)
        assert store.artifact_state("b") == "fresh"

    def test_record_spec_new_then_unchanged_is_noop(self, store):
        assert store.record_spec("node", "arm-cortex-a9", ARM_CORTEX_A9) == []
        assert store.record_spec("node", "arm-cortex-a9", ARM_CORTEX_A9) == []

    def test_record_spec_change_invalidates_downstream(self, store):
        store.record_spec("node", ARM_CORTEX_A9.name, ARM_CORTEX_A9)
        store.put("cal", 1, kind="calibrate",
                  deps=[f"spec:node:{ARM_CORTEX_A9.name}"])
        store.put("sp", 2, kind="space", deps=["cal"])
        edited = dataclasses.replace(
            ARM_CORTEX_A9,
            power=dataclasses.replace(
                ARM_CORTEX_A9.power, idle_w=ARM_CORTEX_A9.power.idle_w * 2
            ),
        )
        staled = store.record_spec("node", ARM_CORTEX_A9.name, edited)
        assert set(staled) == {"cal", "sp"}
        # The edited spec content is now what get_spec returns.
        assert store.get_spec("node", ARM_CORTEX_A9.name) == edited


class TestScenarios:
    def test_record_and_resolve(self, store):
        scenario = Scenario(workload="ep", max_a=2, max_b=2, name="demo")
        store.record_scenario("abc123def", scenario)
        assert store.resolve_scenario("demo") == "abc123def"
        assert store.resolve_scenario("abc123def") == "abc123def"
        assert store.resolve_scenario("abc1") == "abc123def"
        assert store.resolve_scenario("nope") is None

    def test_row_stored_by_an_earlier_release_still_loads(self, store):
        # Earlier releases stored every scenario with a ``reduce_at`` key;
        # the queries that decode the row ignore it with a warning.
        from repro.engine import RunContext, run_scenario
        from repro.engine.stagegraph import scenario_identity
        from repro.store import frontier_points

        scenario = Scenario(workload="ep", max_a=2, max_b=2,
                            stages=("frontier",), name="old-row")
        run_scenario(scenario, RunContext(seed=0), store=store)
        identity = scenario_identity(scenario)
        old_json = json.dumps(
            dict(scenario.to_dict(), reduce_at="coordinator"), indent=2,
            sort_keys=True,
        )
        with store._conn:
            store._conn.execute(
                "UPDATE scenarios SET spec_json = ? WHERE identity = ?",
                (old_json, identity),
            )
        assert store.scenario_json(identity) == old_json
        with pytest.warns(DeprecationWarning, match="reduce_at"):
            body = frontier_points(store, "old-row")
        assert body["total_points"] >= 1

    def test_ambiguous_prefix_does_not_resolve(self, store):
        scenario = Scenario(workload="ep", max_a=2, max_b=2)
        store.record_scenario("abc111", scenario)
        store.record_scenario("abc222", scenario)
        assert store.resolve_scenario("abc") is None

    def test_stage_map_and_load(self, store):
        scenario = Scenario(workload="ep", max_a=2, max_b=2, name="demo")
        store.record_scenario("sid", scenario)
        store.put("fkey", "frontier-art", kind="frontier",
                  scenario_id="sid", stage="frontier")
        assert store.stage_map("sid") == {"frontier": "fkey"}
        assert store.load_stage("sid", "frontier") == ("frontier-art", True)
        assert store.load_stage("sid", "regions") == (None, False)

    def test_stage_status_transitions(self, store):
        store.record_scenario("sid", Scenario(workload="ep", max_a=2, max_b=2))
        assert store.stage_status("sid", "space", "id1") == "miss"
        store.put("id1", 1, kind="space", scenario_id="sid", stage="space")
        assert store.stage_status("sid", "space", "id1") == "hit"
        # The plan now points at a different identity: the stored
        # artifact is superseded, i.e. stale from the plan's view.
        assert store.stage_status("sid", "space", "id2") == "stale"
        store._conn.execute(
            "UPDATE artifacts SET state='stale' WHERE key='id1'"
        )
        assert store.stage_status("sid", "space", "id1") == "stale"


class TestCorruption:
    """Damaged rows quarantine and miss -- they never raise mid-run."""

    def _payload_surgery(self, store, key, mutate):
        row = store._conn.execute(
            "SELECT payload FROM artifacts WHERE key = ?", (key,)
        ).fetchone()
        with store._conn:
            store._conn.execute(
                "UPDATE artifacts SET payload = ? WHERE key = ?",
                (mutate(row[0]), key),
            )
        # Drop the memory tier so the damaged row is actually read.
        store.memory._memory.pop(key, None)

    def test_truncated_payload_quarantines(self, store):
        events = []
        store.on_event = lambda event, **p: events.append((event, p))
        store.put("k1", list(range(100)), kind="space")
        self._payload_surgery(store, "k1", lambda b: b[: len(b) // 2])
        assert store.get("k1") == (None, False)
        assert store.artifact_state("k1") == "quarantined"
        assert store.stats.quarantined == 1
        assert any(e == "store.quarantined" for e, _ in events)
        # Quarantined rows stay dead on later reads, without re-counting.
        assert store.get("k1") == (None, False)
        assert store.stats.quarantined == 1

    def test_bitflip_payload_quarantines(self, store):
        store.put("k1", list(range(100)), kind="space")
        self._payload_surgery(
            store, "k1", lambda b: b[:10] + bytes([b[10] ^ 0xFF]) + b[11:]
        )
        assert store.get("k1") == (None, False)
        assert store.artifact_state("k1") == "quarantined"

    def test_undecodable_payload_with_matching_checksum_quarantines(self, store):
        import hashlib

        junk = b"not a pickle at all"
        with store._conn:
            store._conn.execute(
                "INSERT INTO artifacts (key, kind, state, checksum, payload, "
                "created_at) VALUES ('k1', 'space', 'fresh', ?, ?, 0)",
                (hashlib.sha256(junk).hexdigest(), junk),
            )
        assert store.get("k1") == (None, False)
        assert store.artifact_state("k1") == "quarantined"

    def test_reput_heals_quarantined_row(self, store):
        store.put("k1", "good", kind="space")
        self._payload_surgery(store, "k1", lambda b: b[:3])
        assert store.get("k1") == (None, False)
        store.put("k1", "good", kind="space")
        assert store.get("k1") == ("good", True)
        assert store.artifact_state("k1") == "fresh"

    def test_corrupt_spec_payload_returns_none(self, store):
        store.record_spec("node", ARM_CORTEX_A9.name, ARM_CORTEX_A9)
        row = store._conn.execute(
            "SELECT payload FROM specs WHERE name = ?", (ARM_CORTEX_A9.name,)
        ).fetchone()
        with store._conn:
            store._conn.execute(
                "UPDATE specs SET payload = ? WHERE name = ?",
                (row[0][: len(row[0]) // 2], ARM_CORTEX_A9.name),
            )
        assert store.get_spec("node", ARM_CORTEX_A9.name) is None
        assert store.stats.quarantined == 1

    def test_unreadable_database_degrades_to_miss(self, tmp_path):
        events = []
        store = ArtifactStore(tmp_path / "s", on_event=lambda e, **p: events.append(e))
        store.put("k1", 1, kind="space")
        store.memory._memory.clear()
        # Sever the handle so reads raise sqlite3.DatabaseError.
        store._conn.close()
        store._conn = sqlite3.connect(":memory:")
        store._conn.close()

        assert store.get("k1") == (None, False)
        assert "store.unreadable" in events


class TestSharedMemoryTier:
    def test_store_shares_counters_with_given_cache(self, tmp_path):
        cache = ResultCache()
        with ArtifactStore(tmp_path / "s", memory=cache) as store:
            store.put("k1", 1, kind="space")
            store.get("k1")
            assert cache.stats.hits == 1
            assert store.stats is cache.stats


class TestBoundedMemoryTier:
    """A store opened without ``memory=`` keeps a bounded LRU tier."""

    def test_evicted_key_reads_back_from_sqlite(self, store):
        for i in range(MEMORY_TIER_ENTRIES + 1):
            store.put(f"k{i}", {"i": i}, kind="space")
        assert len(store.memory) == MEMORY_TIER_ENTRIES
        disk_before = store.stats.disk_hits
        value, ok = store.get("k0")  # the least recently used: evicted
        assert ok and value == {"i": 0}
        assert store.stats.disk_hits == disk_before + 1
        assert len(store.memory) == MEMORY_TIER_ENTRIES

    def test_a_read_keeps_an_entry_in_the_tier(self, store):
        store.put("kept", "value", kind="space")
        for i in range(MEMORY_TIER_ENTRIES - 1):
            store.put(f"k{i}", i, kind="space")
        assert store.get("kept") == ("value", True)  # now most recent
        store.put("one-more", 0, kind="space")
        disk_before = store.stats.disk_hits
        assert store.get("kept") == ("value", True)
        assert store.stats.disk_hits == disk_before  # a memory hit
        assert store.get("k0") == (0, True)  # evicted instead
        assert store.stats.disk_hits == disk_before + 1

    def test_given_cache_is_not_bounded(self, tmp_path):
        cache = ResultCache()
        with ArtifactStore(tmp_path / "s", memory=cache) as store:
            for i in range(MEMORY_TIER_ENTRIES + 10):
                store.put(f"k{i}", i, kind="space")
        assert len(cache) == MEMORY_TIER_ENTRIES + 10

    def test_invalidation_drops_the_entry_from_the_tier(self, store):
        store.put("parent", 1, kind="space")
        store.put("child", 2, kind="frontier", deps=["parent"])
        assert store.invalidate_downstream("parent") == ["child"]
        assert store.memory.peek("child", None) is None
        assert store.get("child") == (None, False)
