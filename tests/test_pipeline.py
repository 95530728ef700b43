"""Stage drivers: pinned shop output, and the ledger when a stage fails."""
from __future__ import annotations

import json
import sys
import time
from decimal import Decimal

import pytest

from synthweaver import cli, pipeline
from synthweaver.config import parse_config
from synthweaver.errors import TransportError
from synthweaver.oracle import MockTransport, RawCompletion, Usage
from synthweaver.runstore import RunStore
from tests.conftest import shop_config_dict, write_config

# The shop fixture at seed 7. A change that alters these bytes or totals
# changes what the pipeline produces, at whatever worker count.
SHOP_CONTENT_HASH = "64a87fa3c64e81dafada73ad79dbbe7bafc7e2b4cb6220bf5d0e9ce945f590f6"
SHOP_LEDGER = {"calls": 183, "tokens": 155_550, "total_cost_usd": "0.475800"}
SHOP_COLLECT_USD = "0.369200"


def ledger_totals(run) -> dict:
    ledger = json.loads((run / "ledger.json").read_text())
    return {
        "calls": ledger["calls"],
        "tokens": ledger["prompt_tokens"] + ledger["completion_tokens"],
        "total_cost_usd": ledger["total_cost_usd"],
    }


def collect_spend(run) -> str:
    return json.loads((run / "ledger.json").read_text())["by_site_stage"]["shop"]["collect"]


def content_hash(run) -> str:
    return json.loads((run / "manifest.json").read_text())["dataset"]["content_hash"]


@pytest.mark.parametrize("workers", ["1", "4"])
def test_shop_output_is_pinned(tmp_path, capsys, workers):
    config = write_config(tmp_path)
    for command in ("explore", "collect", "refine", "export", "stats"):
        code = cli.main([command, "--config", str(config), "--run", "r", "--workers", workers])
        assert code == cli.EXIT_OK, capsys.readouterr().err
    run = tmp_path / "runs" / "r"
    assert content_hash(run) == SHOP_CONTENT_HASH
    assert ledger_totals(run) == SHOP_LEDGER
    stats = json.loads((run / "stats.json").read_text())
    assert stats["overall"]["collection_cost_usd"] == collect_spend(run) == SHOP_COLLECT_USD


def test_failed_stage_keeps_ledger_and_resumes(tmp_path, monkeypatch):
    raw = shop_config_dict(runs_dir=str(tmp_path / "runs"))
    raw["oracle"]["backoff_base_s"] = 0
    config = parse_config(raw, base_dir=tmp_path)
    store = RunStore(tmp_path / "runs" / "r")

    # Count every completion served; the endpoint goes down after `limit`.
    served = []
    limit = [None]
    complete = MockTransport.complete

    def counted(self, prompt):
        if limit[0] is not None and len(served) >= limit[0]:
            raise TransportError("endpoint down")
        served.append(prompt)
        return complete(self, prompt)

    monkeypatch.setattr(MockTransport, "complete", counted)
    pipeline.run_explore(config, store)
    limit[0] = len(served) + 40
    with pytest.raises(TransportError):
        pipeline.run_collect(config, store)
    assert ledger_totals(store.root)["calls"] == len(served) == 25 + 40
    assert "collect" not in store.load_state()["stages"]

    limit[0] = None
    for stage in (pipeline.run_collect, pipeline.run_refine, pipeline.run_export,
                  pipeline.run_stats):
        stage(config, store)
    assert content_hash(store.root) == SHOP_CONTENT_HASH
    # The task cut off mid-episode is collected again: the resumed run pays
    # for more calls than a clean one, and the ledger counts every one.
    assert ledger_totals(store.root)["calls"] == len(served) > SHOP_LEDGER["calls"]
    # Stats report the collect spend the ledger saw, the lost attempts included.
    stats = json.loads((store.root / "stats.json").read_text())
    spent = collect_spend(store.root)
    assert stats["overall"]["collection_cost_usd"] == spent
    assert Decimal(spent) > Decimal(SHOP_COLLECT_USD)


def test_collection_cost_counts_tasks_that_never_validate(tmp_path, monkeypatch):
    config = parse_config(shop_config_dict(runs_dir=str(tmp_path / "runs")), base_dir=tmp_path)
    store = RunStore(tmp_path / "runs" / "r")
    pipeline.run_explore(config, store)
    doomed = next(store.read_records("tasks.jsonl"))["text"]
    complete = MockTransport.complete

    def junk_for_doomed(self, prompt):
        if prompt.variables.get("high_level_task") == doomed:
            return RawCompletion("no JSON here", Usage(100, 20))
        return complete(self, prompt)

    monkeypatch.setattr(MockTransport, "complete", junk_for_doomed)
    before = Decimal(json.loads((store.root / "ledger.json").read_text())["total_cost_usd"])
    assert pipeline.run_collect(config, store) == {"tasks": 15, "trajectories": 14}
    after = Decimal(json.loads((store.root / "ledger.json").read_text())["total_cost_usd"])
    for stage in (pipeline.run_refine, pipeline.run_export, pipeline.run_stats):
        stage(config, store)
    stats = json.loads((store.root / "stats.json").read_text())
    # The doomed task's rejected replies are part of what collect spent.
    assert Decimal(stats["overall"]["collection_cost_usd"]) == after - before
    assert stats["by_site"]["shop"]["collection_cost_usd"] == collect_spend(store.root)


def test_map_jobs_starts_no_job_after_one_raised():
    started = []

    def job(kind):
        if kind == "sleep":
            time.sleep(0.2)
        elif kind == "raise":
            raise TransportError("endpoint down")
        else:
            started.append(kind)

    with pytest.raises(TransportError):
        pipeline._map_jobs(2, ["sleep", "raise", "record", "record", "record"], job)
    assert started == []


def test_dead_endpoint_is_not_retried_per_queued_task(tmp_path, monkeypatch):
    raw = shop_config_dict(runs_dir=str(tmp_path / "runs"), workers=4)
    raw["oracle"]["backoff_base_s"] = 0
    config = parse_config(raw, base_dir=tmp_path)
    store = RunStore(tmp_path / "runs" / "r")
    pipeline.run_explore(config, store)
    failed = []

    def down(self, prompt):
        failed.append(prompt)
        raise TransportError("endpoint down")

    monkeypatch.setattr(MockTransport, "complete", down)
    with pytest.raises(TransportError):
        pipeline.run_collect(config, store)
    # At most the tasks already running retry; no queued task starts.
    assert len(failed) <= config.workers * config.oracle.transport_retries


def test_parallel_explore_commits_every_site_whole(tmp_path):
    # More workers than cores and a short switch interval, so site commits
    # race; a lost state update or interleaved records would show here.
    raw = shop_config_dict(runs_dir=str(tmp_path / "runs"), workers=8)
    raw["sites"] = [dict(raw["sites"][0], name=f"shop{i}") for i in range(8)]
    config = parse_config(raw, base_dir=tmp_path)
    store = RunStore(tmp_path / "runs" / "r")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counts = pipeline.run_explore(config, store)
    finally:
        sys.setswitchinterval(interval)
    names = [site.name for site in config.sites]
    assert sorted(store.load_state()["explored_sites"]) == names
    sites = [r["site"] for r in store.read_records("tasks.jsonl")]
    assert len(sites) == counts["tasks"] == 8 * 15
    runs = [site for i, site in enumerate(sites) if i == 0 or sites[i - 1] != site]
    assert sorted(runs) == names  # each site's tasks form one block
