"""CLI store integration: flag matrix, require-warm, store subcommands."""

from __future__ import annotations

import filecmp
import json
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, run, runner_for
from repro.cli import main as cli_main
from repro.store import ResultStore, StoreWarning, encode_record

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "specs"

SWEEP = {
    "kind": "sweep",
    "name": "cli-store-sweep",
    "scenario": {"depth": 4, "density": 6, "sampling_period": 600.0},
    "protocols": ["xmac"],
    "sweep": {"parameter": "max_delay", "values": [2.0, 4.0]},
    "solver": {"grid_points": 15},
}

CAMPAIGN = {
    "kind": "campaign",
    "name": "cli-store-campaign",
    "scenarios": ["paper-default"],
    "protocols": ["xmac", "lmac"],
    "campaign": {"replications": 2, "base_seed": 1, "horizon": 300.0},
    "solver": {"grid_points": 15},
}


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def trees_identical(left, right):
    left_files = {p.relative_to(left): p for p in sorted(left.rglob("*")) if p.is_file()}
    right_files = {p.relative_to(right): p for p in sorted(right.rglob("*")) if p.is_file()}
    return left_files.keys() == right_files.keys() and all(
        filecmp.cmp(str(left_files[k]), str(right_files[k]), shallow=False)
        for k in left_files
    )


class TestFlagMatrix:
    def test_neither_flag(self, capsys, tmp_path):
        assert cli_main(["run", write_spec(tmp_path, SWEEP)]) == 0
        out = capsys.readouterr().out
        assert "# store:" not in out
        assert "+store" not in out

    def test_store_alone_cold_then_warm(self, capsys, tmp_path):
        spec = write_spec(tmp_path, SWEEP)
        store = str(tmp_path / "store")
        assert cli_main(["run", spec, "--store", store]) == 0
        cold = capsys.readouterr().out
        assert "# store: 0 hits / 2 misses / 2 puts" in cold
        assert "+cache+store" in cold
        assert cli_main(["run", spec, "--store", store]) == 0
        warm = capsys.readouterr().out
        assert "# store: 2 hits / 0 misses / 0 puts" in warm

    def test_no_cache_alone(self, capsys, tmp_path):
        assert cli_main(["run", write_spec(tmp_path, SWEEP), "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "# store:" not in out
        assert "+cache" not in out

    def test_both_flags_bypass_the_store_entirely(self, capsys, tmp_path):
        spec = write_spec(tmp_path, SWEEP)
        store = str(tmp_path / "store")
        assert cli_main(["run", spec, "--store", store, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "# --no-cache: solve cache and result store both bypassed" in out
        assert "# store:" not in out
        assert not (tmp_path / "store").exists()  # never even created

    def test_runtime_commands_accept_store(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code = cli_main(
            ["sweep", "xmac", "--vary", "max-delay", "--values", "2.0", "4.0",
             "--depth", "4", "--density", "6", "--sampling-period", "600",
             "--grid-points", "15", "--store", store]
        )
        assert code == 0
        assert "# store: 0 hits / 2 misses / 2 puts" in capsys.readouterr().out


class TestRequireWarm:
    def test_cold_run_exits_3(self, capsys, tmp_path):
        spec = write_spec(tmp_path, SWEEP)
        store = str(tmp_path / "store")
        assert cli_main(["run", spec, "--store", store, "--require-warm"]) == 3
        assert "not warm" in capsys.readouterr().err

    def test_warm_run_exits_0(self, capsys, tmp_path):
        spec = write_spec(tmp_path, SWEEP)
        store = str(tmp_path / "store")
        assert cli_main(["run", spec, "--store", store]) == 0
        capsys.readouterr()
        assert cli_main(["run", spec, "--store", store, "--require-warm"]) == 0
        assert "satisfied" in capsys.readouterr().out

    def test_without_store_is_a_usage_error(self, capsys, tmp_path):
        spec = write_spec(tmp_path, SWEEP)
        assert cli_main(["run", spec, "--require-warm"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_with_no_cache_is_a_usage_error(self, capsys, tmp_path):
        spec = write_spec(tmp_path, SWEEP)
        store = str(tmp_path / "store")
        code = cli_main(["run", spec, "--store", store, "--no-cache", "--require-warm"])
        assert code == 2
        # A spec that turns the cache off bypasses the store the same way,
        # so it cannot satisfy --require-warm either.
        uncached = write_spec(tmp_path, dict(SWEEP, runtime={"cache": False}), "uncached.json")
        assert cli_main(["run", uncached, "--store", store, "--require-warm"]) == 2
        assert "--require-warm needs --store and the solve cache" in capsys.readouterr().err


class TestEveryKindReadsThroughTheStore:
    def test_validate_spec_is_stored_and_replayed(self, capsys, tmp_path):
        spec = str(EXAMPLES / "validate.json")
        store = str(tmp_path / "store")
        assert cli_main(["run", spec, "--store", store, "--require-warm"]) == 3
        assert "# store: 0 hits / 1 misses / 1 puts" in capsys.readouterr().out
        assert cli_main(["run", spec, "--store", store, "--require-warm"]) == 0
        out = capsys.readouterr().out
        assert "# store: 1 hits / 0 misses / 0 puts" in out
        assert "satisfied (zero fresh results)" in out
        assert ResultStore(store).counts_by_kind() == {"replication": 1}

    @pytest.mark.parametrize(
        "name, counts", [("solve", {"solve": 3}), ("campaign", {"solve": 4, "replication": 8})]
    )
    def test_undecodable_payloads_are_misses(self, capsys, tmp_path, name, counts):
        # Every record keeps a valid envelope and integrity hash around a
        # payload of the wrong shape: each lookup is a warned, corrupt miss,
        # and the run that recomputes the result rewrites the record.
        spec = str(EXAMPLES / f"{name}.json")
        store = tmp_path / "store"
        assert cli_main(["run", spec, "--store", str(store)]) == 0
        records = sorted((store / "records").rglob("*.json"))

        def spoil():
            for path in records:
                record = json.loads(path.read_text())
                path.write_text(encode_record(path.stem, record["kind"], {"shape": "wrong"}))

        spoil()
        assert ResultStore(store).counts_by_kind() == counts
        reopened = ResultStore(store)
        loaded = ExperimentSpec.from_file(spec)
        with pytest.warns(StoreWarning) as warned:
            run(loaded, runner=runner_for(loaded, store=reopened))
        assert reopened.stats().corrupt == len(records)
        malformed = {str(w.message).split("malformed ")[1].split(" payload")[0] for w in warned}
        assert malformed == set(counts)

        spoil()
        capsys.readouterr()
        with pytest.warns(StoreWarning):
            assert cli_main(["run", spec, "--store", str(store), "--require-warm"]) == 3
        n = len(records)
        assert f"# store: 0 hits / {n} misses / {n} puts" in capsys.readouterr().out
        # The records were repaired: the next run is warm.
        assert cli_main(["run", spec, "--store", str(store), "--require-warm"]) == 0
        assert f"# store: {n} hits / 0 misses / 0 puts" in capsys.readouterr().out


class TestWarmArtifactIdentity:
    def test_warm_rerun_writes_identical_bytes(self, capsys, tmp_path):
        spec = write_spec(tmp_path, SWEEP)
        store = str(tmp_path / "store")
        cold_out = tmp_path / "cold.json"
        warm_out = tmp_path / "warm.json"
        assert cli_main(["run", spec, "--store", store, "--out", str(cold_out)]) == 0
        assert cli_main(["run", spec, "--store", store, "--out", str(warm_out)]) == 0
        assert cold_out.read_bytes() == warm_out.read_bytes()


class TestShardMergeIdentity:
    def _merge_shards(self, capsys, tmp_path, spec, count):
        """Run ``count`` round-robin shards into their own stores, merge them."""
        for index in range(count):
            assert cli_main(
                ["run", spec, "--shard", f"{index}/{count}",
                 "--store", str(tmp_path / f"shard{index}")]
            ) == 0
        capsys.readouterr()
        merged = tmp_path / "merged"
        shards = [str(tmp_path / f"shard{index}") for index in range(count)]
        assert cli_main(["store", "merge", *shards, "--out", str(merged)]) == 0
        assert f"# merged {count} store(s)" in capsys.readouterr().out
        return merged

    def test_sharded_campaign_merges_to_cold_identical_state(self, capsys, tmp_path):
        spec = write_spec(tmp_path, CAMPAIGN)
        cold_store = tmp_path / "cold-store"
        cold_out = tmp_path / "cold.json"
        assert cli_main(
            ["run", spec, "--store", str(cold_store), "--out", str(cold_out)]
        ) == 0

        # The 1×2 campaign round-robins into two 1×1 shards.
        merged = self._merge_shards(capsys, tmp_path, spec, 2)
        assert trees_identical(cold_store, merged)

        # Replaying the full spec against the merged store is fully warm
        # and writes a byte-identical artifact.
        warm_out = tmp_path / "warm.json"
        code = cli_main(
            ["run", spec, "--store", str(merged), "--require-warm",
             "--out", str(warm_out)]
        )
        assert code == 0
        assert cold_out.read_bytes() == warm_out.read_bytes()

    def test_three_shards_of_a_two_by_two_campaign_merge_to_the_cold_store(
        self, capsys, tmp_path
    ):
        # Shard 0/3 holds paper-default/xmac and high-rate/lmac: no shard
        # is a full scenario × protocol grid, and each runs just its cells.
        spec = write_spec(tmp_path, dict(CAMPAIGN, scenarios=["paper-default", "high-rate"]))
        cold_store = tmp_path / "cold-store"
        assert cli_main(["run", spec, "--store", str(cold_store)]) == 0
        capsys.readouterr()
        assert cli_main(["run", spec, "--shard", "0/3", "--no-cache"]) == 0
        shard = capsys.readouterr().out
        assert "campaign: 2 unit(s), 2 scenario(s) × 2 protocol(s)" in shard
        merged = self._merge_shards(capsys, tmp_path, spec, 3)
        assert trees_identical(cold_store, merged)
        assert cli_main(["run", spec, "--store", str(merged), "--require-warm"]) == 0


class TestStoreSubcommands:
    def _populate(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SWEEP)
        store = tmp_path / "store"
        assert cli_main(["run", spec, "--store", str(store)]) == 0
        capsys.readouterr()
        return store

    def test_stats(self, capsys, tmp_path):
        store = self._populate(tmp_path, capsys)
        assert cli_main(["store", "stats", str(store)]) == 0
        out = capsys.readouterr().out
        assert "2 record(s) (solve: 2)" in out
        assert "bytes" in out  # the stats() snapshot includes disk usage

    def test_verify_clean(self, capsys, tmp_path):
        store = self._populate(tmp_path, capsys)
        assert cli_main(["store", "verify", str(store)]) == 0
        assert "all clean" in capsys.readouterr().out

    def test_verify_corrupt_exits_1(self, capsys, tmp_path):
        store = self._populate(tmp_path, capsys)
        victim = next((store / "records").rglob("*.json"))
        victim.write_text("{ not json")
        assert cli_main(["store", "verify", str(store)]) == 1
        assert "corrupt" in capsys.readouterr().out

    def test_gc_drop_corrupt(self, capsys, tmp_path):
        store = self._populate(tmp_path, capsys)
        victim = next((store / "records").rglob("*.json"))
        victim.write_text("{ not json")
        (store / "tmp" / "orphan.tmp").write_text("partial")
        assert cli_main(["store", "gc", str(store), "--drop-corrupt"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 temp file(s), 1 corrupt record(s)" in out
        assert cli_main(["store", "verify", str(store)]) == 0

    def test_merge_conflict_is_a_cli_error(self, capsys, tmp_path):
        from repro.store import ResultStore, key_digest

        digest = key_digest(("replication", "contested"))
        payload = {"seed": 1, "energy": 1.0, "delay": None, "delivery_ratio": 1.0,
                   "generated": 1, "delivered": 1, "dropped": 0}
        ResultStore(tmp_path / "a").put(digest, payload, kind="replication")
        ResultStore(tmp_path / "b").put(
            digest, dict(payload, energy=2.0), kind="replication"
        )
        code = cli_main(
            ["store", "merge", str(tmp_path / "a"), str(tmp_path / "b"),
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "merge conflict" in capsys.readouterr().err

    def test_maintenance_on_missing_store_is_an_error(self, capsys, tmp_path):
        assert cli_main(["store", "stats", str(tmp_path / "nowhere")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
