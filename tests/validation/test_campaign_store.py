"""Campaign × result store: warm replay, resume after a kill, shard merge."""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, plan, run
from repro.runtime import SerialExecutor, build_runner
from repro.store import ResultStore, merge_stores
from repro.validation import campaign_to_json

REPLICATIONS = 3


def campaign(*protocols):
    """The campaign these tests store: paper-default, 3 replications of 300 s."""
    return (
        ExperimentSpec.experiment("campaign")
        .with_scenarios("paper-default")
        .with_protocols(*(protocols or ("xmac",)))
        .with_campaign(replications=REPLICATIONS, horizon=300.0)
        .with_solver(grid_points=15)
    )


def campaign_bytes(source, runner):
    """The campaign artifact of a spec or plan run on ``runner``."""
    return campaign_to_json(run(source, runner=runner).raw)


class DiesMidCampaign(Exception):
    """Stand-in for a SIGKILL'd worker/process."""


class _KillingExecutor(SerialExecutor):
    """Serial executor that dies after simulating ``survive`` payloads.

    Mimics an interrupted campaign: everything simulated before the "kill"
    has already been written behind to the store, the rest never ran.
    """

    workers = 1

    def __init__(self, survive: int) -> None:
        self.survive = survive

    def describe(self) -> str:
        return "killing[1]"

    def map_ordered(self, fn, items, on_result=None):
        results = []
        for index, item in enumerate(items):
            if index >= self.survive:
                raise DiesMidCampaign(f"killed after {self.survive} simulations")
            result = fn(item)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results


class _CountingExecutor(SerialExecutor):
    """Serial executor that counts how many payloads it actually ran."""

    workers = 1

    def __init__(self) -> None:
        self.calls = 0

    def describe(self) -> str:
        return "counting[1]"

    def map_ordered(self, fn, items, on_result=None):
        items = list(items)
        self.calls += len(items)
        results = []
        for index, item in enumerate(items):
            result = fn(item)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results


class TestWarmReplay:
    def test_second_run_simulates_nothing(self, tmp_path):
        spec = campaign()
        store = ResultStore(tmp_path / "store")
        cold = campaign_bytes(spec, build_runner(workers=1, store=store))
        assert store.stats().puts > 0

        counting = _CountingExecutor()
        warm_store = ResultStore(tmp_path / "store")
        warm_runner = build_runner(workers=1, store=warm_store)
        warm_runner._executor = counting  # inject: count replication dispatches
        warm = campaign_bytes(spec, warm_runner)
        assert counting.calls == 0  # every replication answered from disk
        assert warm_store.stats().puts == 0
        assert warm == cold

    def test_store_replay_matches_uncached_run(self, tmp_path):
        spec = campaign()
        baseline = campaign_bytes(spec, build_runner(workers=1))
        store = ResultStore(tmp_path / "store")
        stored = campaign_bytes(spec, build_runner(workers=1, store=store))
        replayed = campaign_bytes(
            spec, build_runner(workers=1, store=ResultStore(tmp_path / "store"))
        )
        assert stored == baseline
        assert replayed == baseline


class TestResumeAfterKill:
    def test_killed_campaign_resumes_byte_identically(self, tmp_path):
        spec = campaign()
        cold_bytes = campaign_bytes(spec, build_runner(workers=1))

        # First attempt dies after one replication; that replication must
        # already be on disk (write-behind happens per payload batch, and
        # the partial batch raised before returning).
        store = ResultStore(tmp_path / "store")
        runner = build_runner(workers=1, store=store)
        runner._executor = _KillingExecutor(survive=1)
        with pytest.raises(DiesMidCampaign):
            run(spec, runner=runner)

        # Resume with a fresh process-equivalent state over the same store:
        # only the never-simulated replications run, and the artifact is
        # byte-identical to the uninterrupted cold run.
        resumed_store = ResultStore(tmp_path / "store")
        counting = _CountingExecutor()
        resumed_runner = build_runner(workers=1, store=resumed_store)
        resumed_runner._executor = counting
        resumed = campaign_bytes(spec, resumed_runner)
        # Exactly the work the kill destroyed is redone: the one completed
        # replication (and the stage-1 solve) come from the store.
        assert counting.calls == REPLICATIONS - 1
        assert resumed_store.stats().hits >= 2  # solve + surviving replication
        assert resumed == cold_bytes


class TestShardedCampaign:
    def test_shards_merge_to_cold_identical_artifact(self, tmp_path):
        # Shard by protocol (the round-robin ``--shard I/N`` shape), merge
        # the two stores, then replay the full campaign warm.
        full = campaign("xmac", "lmac")
        cold = campaign_bytes(full, build_runner(workers=1))

        for index in range(2):
            shard_store = ResultStore(tmp_path / f"shard{index}")
            run(plan(full).shard(index, 2), runner=build_runner(workers=1, store=shard_store))

        merge_stores([tmp_path / "shard0", tmp_path / "shard1"], tmp_path / "merged")
        counting = _CountingExecutor()
        warm_runner = build_runner(
            workers=1, store=ResultStore(tmp_path / "merged")
        )
        warm_runner._executor = counting
        warm = campaign_bytes(full, warm_runner)
        assert counting.calls == 0
        assert warm == cold
