"""Stage drivers: pinned shop output, the ledger when a stage fails, and
worker-count invariance of the overlapped oracle calls."""
from __future__ import annotations

import errno
import hashlib
import json
import shutil
import sys
import threading
import time
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest

from synthweaver import cli, explorer, pipeline, refiner, runstore
from synthweaver.actions import render_action
from synthweaver.config import OracleSettings, parse_config
from synthweaver.dataset import export_dataset
from synthweaver.environment import SimulatorSession
from synthweaver.errors import BudgetExhausted, TransportError
from synthweaver.oracle import (
    CostLedger, MockScript, MockTransport, OracleClient, RawCompletion, RefineDecision, Usage)
from synthweaver.runstore import RunStore
from tests.conftest import SHOP_MOCK, shop_config_dict, write_config

# The shop fixture at seed 7. A change that alters these bytes or totals
# changes what the pipeline produces, at whatever worker count.
SHOP_CONTENT_HASH = "64a87fa3c64e81dafada73ad79dbbe7bafc7e2b4cb6220bf5d0e9ce945f590f6"
SHOP_LEDGER = {"calls": 183, "tokens": 155_550, "total_cost_usd": "0.475800"}
SHOP_COLLECT_USD = "0.369200"
# SHA-256 of the files of that run, at one worker, whose bytes run formats 1
# to 4 share, and of formats 3 and 4's `judgments.jsonl`; for `stats.json`,
# format 1's file without its `oracle` key, which copied `ledger.json`.
SHOP_DIGESTS = {
    "ledger.json": "66c6f9db5004ca7729009e81ec07d15d50d25357266a5895b6a90709b93c643e",
    "stats.json": "aa79ff76be38579d1ff38876732707f165cb3b3b0274a110db8fb297c1cfde4c",
    "triplets.jsonl": "e66036709d9d3307f98676d1660f5b7ac1b4607c5da42e5df482068c9c138964",
    "observations.jsonl": "a765d91b5b8c870ad1faaa4938e30a53037e02f28438ddb6902e3a41e338a13e",
    "judgments.jsonl": "a28ef8ffdf98e562ca64cda232b794c2f5dedbf7ea25103ce4b20d40e1004b3f",
    "dataset/dataset.jsonl": "02aaa0a8a602bdc2818b4aa188184278f87dfe5cf0dc4971623d3fc0c0252122",
    "dataset/observations.jsonl":
        "9c565fb5bcad66f613b5f8380e043b3bbdd96b5279d982bded7fe0cd7a72e4d8",
    "dataset/manifest.json": "a8bd756b12d84b5353f3515055619659bea7ca4f3944a2ea21c03c11fa8c60d4",
}


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


def stage_events(store):
    return [r for r in store.read_records("events.jsonl") if r["kind"].startswith("stage.")]


def finished_stages(store):
    """The stages that finished: each a `stage.end` event with outcome ok."""
    return [r["stage"] for r in stage_events(store)
            if r["kind"] == "stage.end" and r["outcome"] == "ok"]


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


def test_shop_run_stores_each_fact_once(tmp_path, capsys):
    config = write_config(tmp_path)
    for command in ("explore", "collect", "refine", "export", "stats"):
        assert cli.main([command, "--config", str(config), "--run", "r"]) == cli.EXIT_OK
    run = tmp_path / "runs" / "r"
    for path in run.rglob("*"):
        if path.is_file():
            text = path.read_text()
            for key in ('"task_type"', '"refine_count"', '"stages"', '"task_snapshot"',
                        '"trigger_reason"'):
                assert key not in text, (path.name, key)
    assert "oracle" not in json.loads((run / "stats.json").read_text())
    digests = {name: hashlib.sha256((run / name).read_bytes()).hexdigest()
               for name in SHOP_DIGESTS}
    assert digests == SHOP_DIGESTS


def test_judgments_are_edits_over_the_raw_steps(tmp_path):
    # Each judgment names the raw steps it keeps. Applied to the raw records
    # outside the pipeline, the judgments give the pinned dataset.
    config, store = shop_store(tmp_path, "r")
    for stage in (pipeline.run_explore, pipeline.run_collect, pipeline.run_refine):
        stage(config, store)
    raw = {t.id: t for t in pipeline._raw_trajectories(store, store.observations())}
    judgments = {j.trajectory_id: j for j in map(
        refiner.judgment_from_dict, store.read_records("judgments.jsonl"))}
    assert list(judgments) == list(raw)
    for tid, judgment in judgments.items():
        n_steps = len(raw[tid].steps)
        assert all(0 <= i < n_steps for i in judgment.order), tid
        if judgment.decision is RefineDecision.KEEP:
            assert judgment.order == tuple(range(n_steps)), tid
        if judgment.decision is RefineDecision.DROP:
            assert judgment.order == () and judgment.reason, tid
    refined = {tid: refiner.apply_edits(raw[tid], j) for tid, j in judgments.items()}

    modify, appended = judgments["t-shop-0007"], judgments["t-shop-0011"]
    assert (modify.end, appended.end) == (refiner.EditEnd.MODIFY, refiner.EditEnd.APPEND)
    for judgment, added in ((modify, 0), (appended, 1)):
        steps, raw_steps = refined[judgment.trajectory_id].steps, raw[judgment.trajectory_id].steps
        assert len(steps) == len(judgment.order) + added
        assert [s.observation.ref for s in steps[:len(judgment.order)]] == [
            raw_steps[i].observation.ref for i in judgment.order]
        assert steps[-1].action.value == judgment.final_none_value
    # A modify end rewrites the last retained action; an append end keeps it.
    assert raw[modify.trajectory_id].steps[modify.order[-1]].action.kind.value == "stop"
    assert (render_action(refined[appended.trajectory_id].steps[-2].action)
            == render_action(raw[appended.trajectory_id].steps[appended.order[-1]].action))

    kept = [t for t in refined.values() if t is not None]
    result = export_dataset(kept, tmp_path / "out", window=config.context_window)
    assert result.manifest["content_hash"] == SHOP_CONTENT_HASH


def test_export_decodes_only_the_trajectories_a_judgment_keeps(tmp_path, monkeypatch):
    config, store = shop_store(tmp_path, "r")
    for stage in (pipeline.run_explore, pipeline.run_collect, pipeline.run_refine):
        stage(config, store)
    decoded = []
    decode = pipeline.trajectory_from_dict

    def counted(record, observations):
        decoded.append(record["task"]["id"])
        return decode(record, observations)

    monkeypatch.setattr(pipeline, "trajectory_from_dict", counted)
    result = pipeline.run_export(config, store)
    kept = [r["trajectory_id"] for r in store.read_records("judgments.jsonl")
            if r["decision"] != "drop"]
    assert decoded == kept and len(kept) == 14
    assert result.manifest["content_hash"] == SHOP_CONTENT_HASH


def test_stats_decodes_each_raw_trajectory_once(tmp_path, monkeypatch):
    config, store = shop_store(tmp_path, "r")
    for stage in (pipeline.run_explore, pipeline.run_collect, pipeline.run_refine):
        stage(config, store)
    decoded = []
    decode = pipeline.trajectory_from_dict

    def counted(record, observations):
        decoded.append(record["task"]["id"])
        return decode(record, observations)

    monkeypatch.setattr(pipeline, "trajectory_from_dict", counted)
    stats = pipeline.run_stats(config, store)
    raw = [r["task"]["id"] for r in store.read_records("trajectories_raw.jsonl")]
    assert decoded == raw and len(raw) == 15
    overall = stats["overall"]
    assert (overall["n_trajectories_raw"], overall["n_trajectories_refined"]) == (15, 14)


def test_failed_export_leaves_no_manifest_that_disagrees_with_the_files(
    tmp_path, capsys, monkeypatch
):
    # The disk fills while export rewrites the dataset of an earlier export:
    # any manifest left must describe the files, and the next export mends it.
    config = write_config(tmp_path)
    for command in ("explore", "collect", "refine", "export"):
        assert cli.main([command, "--config", str(config), "--run", "r"]) == cli.EXIT_OK
    export = ["export", "--config", str(config), "--run", "r", "--window"]
    assert cli.main([*export, "0"]) == cli.EXIT_OK
    run = tmp_path / "runs" / "r"
    data = run / "dataset"
    write_bytes = Path.write_bytes

    def full_disk(path, payload):
        if path == data / "observations.jsonl":
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_bytes(path, payload)

    monkeypatch.setattr(Path, "write_bytes", full_disk)
    with pytest.raises(OSError):
        cli.main([*export, "1"])
    monkeypatch.undo()
    files = (data / "dataset.jsonl").read_bytes() + b"\0" + (data / "observations.jsonl").read_bytes()
    manifests = {"manifest.json": ("dataset", "content_hash"),
                 "dataset/manifest.json": ("content_hash",)}
    for name, keys in manifests.items():
        if (run / name).exists():
            manifest = json.loads((run / name).read_text())
            for key in keys:
                manifest = manifest[key]
            assert manifest == hashlib.sha256(files).hexdigest(), name
    capsys.readouterr()
    assert cli.main(export[:-1]) == cli.EXIT_OK
    assert f"content_hash {SHOP_CONTENT_HASH[:16]} " in capsys.readouterr().out
    assert content_hash(run) == SHOP_CONTENT_HASH
    assert json.loads((data / "manifest.json").read_text())["content_hash"] == SHOP_CONTENT_HASH


def test_collect_threads_share_one_graph(tmp_path, monkeypatch):
    # At 4 workers, every thread's sessions read page states from the one
    # graph collect loads for the site: one object per state, same bytes.
    config = parse_config(
        shop_config_dict(runs_dir=str(tmp_path / "runs"), workers=4), base_dir=tmp_path)
    store = RunStore(tmp_path / "runs" / "r")
    pipeline.run_explore(config, store)
    seen = []
    observe = SimulatorSession.observe

    def recorded(self):
        obs = observe(self)
        page_state = (self.current_page, tuple(sorted(self.state.items())), self.scrolled)
        seen.append((threading.get_ident(), page_state, obs))
        return obs

    monkeypatch.setattr(SimulatorSession, "observe", recorded)
    pipeline.run_collect(config, store)
    assert len({thread for thread, _, _ in seen}) > 1
    objects: dict = {}
    for _, page_state, obs in seen:
        objects.setdefault(page_state, set()).add(id(obs))
    assert all(len(ids) == 1 for ids in objects.values())
    for stage in (pipeline.run_refine, pipeline.run_export):
        stage(config, store)
    assert content_hash(store.root) == SHOP_CONTENT_HASH


class StrictSession:
    """A session that lets a stage reach only observe, execute and close."""

    SURFACE = ("observe", "execute", "close")

    def __init__(self, inner, used: set):
        object.__setattr__(self, "_parts", (inner, used))

    def __getattribute__(self, name):
        if name not in StrictSession.SURFACE:
            raise AssertionError(f"a stage reached session.{name}")
        inner, used = object.__getattribute__(self, "_parts")
        used.add(name)
        return getattr(inner, name)

    def __setattr__(self, name, value):
        raise AssertionError(f"a stage set session.{name}")


def test_stages_use_only_observe_execute_and_close(tmp_path, monkeypatch):
    config = parse_config(shop_config_dict(runs_dir=str(tmp_path / "runs")), base_dir=tmp_path)
    store = RunStore(tmp_path / "runs" / "r")
    used: set = set()
    make_session_factory = pipeline.make_session_factory

    def strict_factory(site, config):
        factory = make_session_factory(site, config)
        return lambda: StrictSession(factory(), used)

    monkeypatch.setattr(pipeline, "make_session_factory", strict_factory)
    pipeline.run_explore(config, store)
    pipeline.run_collect(config, store)
    assert used == set(StrictSession.SURFACE)
    for stage in (pipeline.run_refine, pipeline.run_export):
        stage(config, store)
    assert content_hash(store.root) == SHOP_CONTENT_HASH


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
    assert "collect" not in finished_stages(store)
    end = stage_events(store)[-1]
    assert (end["kind"], end["stage"], end["outcome"], end["oracle_calls"]) == (
        "stage.end", "collect", "error", 40)

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


def raise_second(index, on_caller, barrier):
    if index == 0:
        time.sleep(0.2)
    else:
        raise TransportError("endpoint down")


def raise_on_pool(index, on_caller, barrier):
    if on_caller:
        time.sleep(0.2)
    else:
        raise TransportError("endpoint down")


def interrupt_caller(index, on_caller, barrier):
    if on_caller:
        raise KeyboardInterrupt
    time.sleep(0.2)


def raise_both(index, on_caller, barrier):
    # Both jobs run at once; the second raises first.
    barrier.wait(timeout=5)
    if index == 0:
        time.sleep(0.05)
        raise TransportError("job 0")
    raise BudgetExhausted("job 1")


@pytest.mark.parametrize("first_two, raised", [
    (raise_second, TransportError),
    (raise_on_pool, TransportError),
    (interrupt_caller, KeyboardInterrupt),
    (raise_both, TransportError),
])
def test_map_starts_no_job_after_one_raised(first_two, raised):
    # Two workers run the first two jobs, one on the calling thread and one
    # on a pool thread; every later job only records that it started.
    caller = threading.current_thread()
    barrier = threading.Barrier(2)
    started = []

    def job(index):
        if index < 2:
            first_two(index, threading.current_thread() is caller, barrier)
        else:
            started.append(index)

    client = OracleClient(MockTransport(MockScript.load(str(SHOP_MOCK))), CostLedger(),
                          OracleSettings(), stage="", workers=2)
    try:
        with pytest.raises(raised):
            client.map(job, range(5))
    finally:
        client.close()
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


def test_parallel_explore_commits_every_site_whole(tmp_path, monkeypatch):
    # More workers than cores and a short switch interval, so site commits
    # race; a lost state update or interleaved records would show here. On
    # the HTTP stand-in every site's proposals also share the stage's pool.
    Served(monkeypatch, (), http=True)
    for http in (False, True):
        config, store = shop_store(tmp_path, f"http{http}", http=http, workers=8)
        config = replace(config, sites=tuple(
            replace(config.sites[0], name=f"shop{i}") for i in range(8)))
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
        assert runs == names  # each site's tasks form one block, in site order


MOCK_COMPLETE = MockTransport.complete


class Served:
    """Serves the shop mock's replies, recording every completion served.

    With `http`, it stands in for `pipeline.HttpTransport`, so the stages run
    as on a network endpoint (explore overlaps its proposals, and the other
    stages run 2 x `workers` jobs at once); otherwise it wraps
    `MockTransport`. Every call sleeps `latency` seconds, except calls of `template` (one name or a tuple):
    those are numbered in the order they are sent, and call n sleeps
    `delay(n)` seconds instead. From call `fail_at` on, that call's prompt
    sleeps `delay(fail_at)` and raises a TransportError on every attempt.
    `peak` is the most calls of `template` in flight at once. Once `down` is
    set and that many completions were served, every attempt raises a
    TransportError.
    """

    def __init__(self, monkeypatch, template, delay=lambda n: 0.0, fail_at=None,
                 latency=0.0, http=False):
        templates = (template,) if isinstance(template, str) else tuple(template)
        self.lock = threading.Lock()
        self.served = []
        self.sent = []
        self.finished = []
        self.active = self.peak = 0
        self.down = None

        def wrapped(transport, prompt):
            mine = prompt.template.value in templates
            with self.lock:
                down = self.down is not None and len(self.served) >= self.down
                n = len(self.sent) if mine else None
                if mine:
                    self.sent.append(prompt.text)
                failing = mine and fail_at is not None and len(self.sent) > fail_at \
                    and prompt.text == self.sent[fail_at]
                self.active += mine
                self.peak = max(self.peak, self.active)
            try:
                if down:
                    raise TransportError("endpoint down")
                time.sleep(latency if n is None else delay(fail_at if failing else n))
                if failing:
                    raise TransportError("endpoint down")
                reply = MOCK_COMPLETE(transport, prompt)
                with self.lock:
                    self.served.append(prompt.text)
                    if n is not None:
                        self.finished.append(n)
                return reply
            finally:
                with self.lock:
                    self.active -= mine

        if http:
            class StandIn:
                """Takes `HttpTransport`'s arguments; answers from the shop mock."""

                def __init__(self, *args, **kwargs):
                    self.script = MockScript.load(str(SHOP_MOCK))

                complete = wrapped

            monkeypatch.setattr(pipeline, "HttpTransport", StandIn)
        else:
            monkeypatch.setattr(MockTransport, "complete", wrapped)

    def served_of_template(self):
        sent = set(self.sent)
        return sorted(text for text in self.served if text in sent)


def shop_store(tmp_path, name, http=False, oracle=(), **overrides):
    raw = shop_config_dict(runs_dir=str(tmp_path / "runs"), **overrides)
    if http:
        # Never contacted: `Served(http=True)` stands in for the transport.
        raw["oracle"] = {"backend": "http", "model": "shop",
                         "endpoint_url": "http://127.0.0.1:9/v1/chat/completions"}
    raw["oracle"].update(oracle, backoff_base_s=0)
    return parse_config(raw, base_dir=tmp_path), RunStore(tmp_path / "runs" / name)


def explore_at(tmp_path, monkeypatch, workers, **overrides):
    # Within each group of four, earlier proposals sleep longer, so at four
    # workers they finish in reverse order.
    served = Served(monkeypatch, "propose_task", delay=lambda n: 0.005 * (4 - n % 4),
                    http=True)
    config, store = shop_store(tmp_path, f"w{workers}", http=True, workers=workers,
                               **overrides)
    pipeline.run_explore(config, store)
    return served, store


def test_explore_records_follow_probe_order_at_any_worker_count(tmp_path, monkeypatch):
    one, inline = explore_at(tmp_path, monkeypatch, 1)
    four, pooled = explore_at(tmp_path, monkeypatch, 4)
    assert four.finished != sorted(four.finished)  # replies did arrive out of order
    assert four.peak > 1
    for name in ("tasks.jsonl", "triplets.jsonl"):
        assert (pooled.root / name).read_bytes() == (inline.root / name).read_bytes()
    assert ledger_totals(pooled.root) == ledger_totals(inline.root)


def test_task_cap_makes_the_proposals_of_one_worker(tmp_path, monkeypatch):
    one, inline = explore_at(tmp_path, monkeypatch, 1, max_tasks_per_site=3)
    four, pooled = explore_at(tmp_path, monkeypatch, 4, max_tasks_per_site=3)
    assert four.served_of_template() == one.served_of_template()
    assert len(one.served_of_template()) >= 3
    assert (pooled.root / "tasks.jsonl").read_bytes() == (inline.root / "tasks.jsonl").read_bytes()
    assert len(list(pooled.read_records("tasks.jsonl"))) == 3


def test_failed_proposal_raises_once_in_flight_calls_are_paid(tmp_path, monkeypatch):
    # The fifth proposal fails slowly; the ones sent after it are slower
    # still, so they are in flight when its turn to commit comes.
    served = Served(monkeypatch, "propose_task", delay=lambda n: 0.02 if n <= 4 else 0.2,
                    fail_at=4, http=True)
    config, store = shop_store(tmp_path, "r", http=True, workers=4)
    with pytest.raises(TransportError):
        pipeline.run_explore(config, store)
    at_raise = len(served.served)
    assert ledger_totals(store.root)["calls"] == at_raise
    assert served.active == 0
    assert served.peak > 1
    time.sleep(0.1)
    assert len(served.served) == at_raise  # nothing served after the raise
    assert "explore" not in finished_stages(store)

    Served(monkeypatch, (), http=True)
    for stage in (pipeline.run_explore, pipeline.run_collect, pipeline.run_refine,
                  pipeline.run_export, pipeline.run_stats):
        stage(config, store)
    assert content_hash(store.root) == SHOP_CONTENT_HASH


@pytest.mark.parametrize("workers", [2, 4])
def test_explore_keeps_at_most_two_calls_per_worker_in_flight(tmp_path, monkeypatch, workers):
    # Every site crawls on its own worker and overlaps its proposals; all of
    # them share the stage's one pool.
    served = Served(monkeypatch, ("categorize", "propose_task"), delay=lambda n: 0.01,
                    http=True)
    config, store = shop_store(tmp_path, "r", http=True, workers=workers)
    config = replace(config, sites=tuple(
        replace(config.sites[0], name=f"shop{i}") for i in range(4)))
    pipeline.run_explore(config, store)
    assert workers < served.peak <= 2 * workers


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_one_site_fills_two_calls_per_worker(tmp_path, monkeypatch, workers):
    # One crawl thread calls the client directly, so the pool takes the other
    # 2 x workers - 1 slots and a categorize overlaps the site's proposals.
    served = Served(monkeypatch, ("categorize", "propose_task"),
                    delay=lambda n: 0.01 + 0.01 * (n % 2), http=True)
    config, store = shop_store(tmp_path, "r", http=True, workers=workers)
    pipeline.run_explore(config, store)
    assert served.peak <= 2 * workers
    if workers > 1:
        assert served.peak > workers + 1


def test_failed_proposal_stops_the_crawl_at_once(tmp_path, monkeypatch):
    # The first proposal takes 200 ms and the fifth fails at once: the crawl
    # must not categorize another page while it waits for the first.
    served = Served(monkeypatch, "propose_task", delay=lambda n: 0.2 if n == 0 else 0.0,
                    fail_at=4, http=True)
    lock = threading.Lock()
    log = []
    categorize, propose = explorer.categorize_page, explorer.propose_task

    def logged_categorize(oracle, obs, *, site):
        with lock:
            log.append("categorize")
        return categorize(oracle, obs, site=site)

    def logged_propose(oracle, site, description):
        try:
            return propose(oracle, site, description)
        except TransportError:
            with lock:
                log.append("failed")
            raise

    monkeypatch.setattr(explorer, "categorize_page", logged_categorize)
    monkeypatch.setattr(explorer, "propose_task", logged_propose)
    config, store = shop_store(tmp_path, "r", http=True, workers=4)
    with pytest.raises(TransportError):
        pipeline.run_explore(config, store)
    assert "failed" in log
    assert "categorize" not in log[log.index("failed"):]
    assert ledger_totals(store.root)["calls"] == len(served.served)

    monkeypatch.undo()
    Served(monkeypatch, (), http=True)
    for stage in STAGES:
        stage(config, store)
    assert content_hash(store.root) == SHOP_CONTENT_HASH


def test_failed_site_sends_no_further_proposal(tmp_path, monkeypatch):
    # The other sites' proposals take 50 ms each, so shop1's later proposals
    # wait in the stage pool's queue when its third one fails, 30 ms in.
    Served(monkeypatch, (), http=True)
    lock = threading.Lock()
    log = []
    started = {}
    propose = explorer.propose_task
    explore_site = explorer.Explorer.explore_site

    def logged(oracle, site, description):
        with lock:
            log.append(("start", site.name))
            n = started[site.name] = started.get(site.name, 0) + 1
        if site.name != "shop1":
            time.sleep(0.05)
        elif n == 3:
            time.sleep(0.03)
            raise TransportError("endpoint down")
        return propose(oracle, site, description)

    def recorded(self, site, session):
        try:
            return explore_site(self, site, session)
        except TransportError:
            with lock:
                log.append(("raised", site.name))
            raise

    monkeypatch.setattr(explorer, "propose_task", logged)
    monkeypatch.setattr(explorer.Explorer, "explore_site", recorded)
    config, store = shop_store(tmp_path, "r", http=True, workers=4)
    config = replace(config, sites=tuple(
        replace(config.sites[0], name=f"shop{i}") for i in range(4)))
    with pytest.raises(TransportError):
        pipeline.run_explore(config, store)
    after = log[log.index(("raised", "shop1")):]
    assert ("start", "shop1") not in after
    assert {name for kind, name in after if kind == "start"}  # the pool kept sending


def test_quality_judges_overlap_and_keep_stats_bytes(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path)
    for command in ("explore", "collect", "refine", "export"):
        assert cli.main([command, "--config", str(config), "--run", "w1"]) == cli.EXIT_OK
    runs = tmp_path / "runs"
    shutil.copytree(runs / "w1", runs / "w4")
    peaks = {}
    for workers in ("1", "4"):
        served = Served(monkeypatch, "judge_quality", delay=lambda n: 0.02)
        code = cli.main(["stats", "--config", str(config), "--run", f"w{workers}",
                         "--workers", workers, "--judge-quality"])
        assert code == cli.EXIT_OK, capsys.readouterr().err
        peaks[workers] = served.peak
    assert peaks["1"] == 1 and peaks["4"] > 1
    assert (runs / "w4" / "stats.json").read_bytes() == (runs / "w1" / "stats.json").read_bytes()


def test_a_stage_appends_its_events_through_one_handle(tmp_path, monkeypatch):
    config, store = shop_store(tmp_path, "r")
    opened = []

    def recorded(path, *args, **kwargs):
        handle = open(path, *args, **kwargs)
        if path == store.path("events.jsonl"):
            opened.append(handle)
        return handle

    monkeypatch.setattr(runstore, "open", recorded, raising=False)
    pipeline.run_explore(config, store)
    assert len(opened) == 1 and opened[0].closed

    def down(self, prompt):
        raise TransportError("endpoint down")

    monkeypatch.setattr(MockTransport, "complete", down)
    with pytest.raises(TransportError):
        pipeline.run_collect(config, store)
    assert len(opened) == 2 and opened[1].closed
    assert stage_events(store)[-1]["outcome"] == "error"
    assert len(stage_events(store)) == 4


def test_every_stage_writes_timed_start_and_end_events(tmp_path):
    config, store = shop_store(tmp_path, "r")
    for stage in (pipeline.run_explore, pipeline.run_collect, pipeline.run_refine,
                  pipeline.run_export, pipeline.run_stats):
        stage(config, store)
    events = stage_events(store)
    names = ["explore", "collect", "refine", "export", "stats"]
    assert [(e["kind"], e["stage"]) for e in events] == [
        (kind, name) for name in names for kind in ("stage.start", "stage.end")
    ]
    ends = [e for e in events if e["kind"] == "stage.end"]
    assert all(e["outcome"] == "ok" and e["duration_ms"] >= 0 for e in ends)
    assert [e["oracle_calls"] for e in ends] == [25, 142, 15, 0, 1]
    assert sum(e["oracle_calls"] for e in ends) == SHOP_LEDGER["calls"]
    spent = sum(Decimal(e["cost_usd"]) for e in ends)
    assert str(spent) == SHOP_LEDGER["total_cost_usd"]
    assert ends[1]["cost_usd"] == SHOP_COLLECT_USD
    # Each stage's client charges its own stage, so each stage.end's spend is
    # that stage's entry in the ledger; export calls no oracle.
    by_stage = store.read_json("ledger.json")["by_site_stage"]["shop"]
    assert sorted(by_stage) == sorted(["explore", "collect", "refine", "stats"])
    for end in ends:
        spent = Decimal(by_stage.get(end["stage"], "0"))
        assert Decimal(end["cost_usd"]) == spent, end["stage"]
    assert Decimal(ends[3]["cost_usd"]) == 0


# ----------------------------------------------------------------------
# collect on a network oracle: 2 x workers episodes, committed in task order
# ----------------------------------------------------------------------

COLLECT = ("next_action", "refine_task")
JUDGES = ("refine_trajectory", "judge_diversity", "judge_quality")
STAGES = (pipeline.run_explore, pipeline.run_collect, pipeline.run_refine,
          pipeline.run_export, pipeline.run_stats)
RECORDS = ("trajectories_raw.jsonl", "collect_failures.jsonl", "judgments.jsonl")


def record_bytes(run) -> dict:
    """The record and dataset files, which keep their bytes at any worker count."""
    files = {name: (run / name).read_bytes() if (run / name).exists() else None
             for name in ("tasks.jsonl", "triplets.jsonl", *RECORDS)}
    files.update({str(path.relative_to(run)): path.read_bytes()
                  for path in sorted((run / "dataset").rglob("*")) if path.is_file()})
    return files


@pytest.fixture(scope="module")
def one_worker_bytes(tmp_path_factory):
    """The record files of the shop run on the mock at one worker."""
    tmp_path = tmp_path_factory.mktemp("one_worker")
    config, store = shop_store(tmp_path, "mock")
    for stage in STAGES:
        stage(config, store)
    return record_bytes(store.root)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_speculative_collect_keeps_the_mock_bytes(tmp_path, monkeypatch, workers,
                                                  one_worker_bytes):
    # Each episode asks in turn, so a network oracle sends the mock's calls;
    # later tasks finish first, and the records still follow task order.
    config, mock = shop_store(tmp_path, "mock", workers=workers)
    for stage in STAGES:
        stage(config, mock)
    Served(monkeypatch, COLLECT, delay=lambda n: 0.002 * (3 - n % 3), http=True)
    config, http = shop_store(tmp_path, "http", http=True, workers=workers)
    for stage in STAGES:
        stage(config, http)
    assert content_hash(http.root) == SHOP_CONTENT_HASH
    assert ledger_totals(http.root) == SHOP_LEDGER
    assert record_bytes(http.root) == record_bytes(mock.root) == one_worker_bytes


@pytest.mark.parametrize("workers", [1, 4])
def test_collect_failures_keep_task_order(tmp_path, monkeypatch, workers):
    # Three tasks never get a valid reply, and the others finish out of order.
    config, mock = shop_store(tmp_path, "mock")
    pipeline.run_explore(config, mock)
    doomed = {r["text"] for r in list(mock.read_records("tasks.jsonl"))[1::5]}
    reply_for = MockScript.reply_for

    def junk_for_doomed(script, prompt):
        if prompt.variables.get("high_level_task") in doomed:
            return RawCompletion("no JSON here", Usage(100, 20))
        return reply_for(script, prompt)

    monkeypatch.setattr(MockScript, "reply_for", junk_for_doomed)
    pipeline.run_collect(config, mock)
    Served(monkeypatch, COLLECT, delay=lambda n: 0.002 * (3 - n % 3), http=True)
    config, http = shop_store(tmp_path, "http", http=True, workers=workers)
    pipeline.run_explore(config, http)
    assert pipeline.run_collect(config, http) == {"tasks": 15, "trajectories": 12}
    for name in ("trajectories_raw.jsonl", "collect_failures.jsonl"):
        assert (http.root / name).read_bytes() == (mock.root / name).read_bytes(), name


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_collect_fills_two_calls_per_worker(tmp_path, monkeypatch, workers):
    served = Served(monkeypatch, COLLECT, delay=lambda n: 0.01, http=True)
    config, store = shop_store(tmp_path, "r", http=True, workers=workers)
    pipeline.run_explore(config, store)
    pipeline.run_collect(config, store)
    assert workers < served.peak <= 2 * workers


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_a_stage_runs_at_most_two_threads_per_worker(tmp_path, monkeypatch, workers):
    # The stage's one pool has 2 x workers - 1 threads; the caller runs jobs
    # too. A sampler thread counts the threads besides its own and the
    # caller's while four sites go through explore, collect, refine and stats.
    served = Served(monkeypatch, ("categorize", "propose_task") + COLLECT + JUDGES,
                    delay=lambda n: 0.002, http=True)
    config, store = shop_store(tmp_path, "r", http=True, workers=workers)
    config = replace(config, sites=tuple(
        replace(config.sites[0], name=f"shop{i}") for i in range(4)))
    before = threading.active_count()
    extra = []
    done = threading.Event()

    def sample():
        while not done.wait(0.001):
            extra.append(threading.active_count() - before - 1)

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        pipeline.run_explore(config, store)
        pipeline.run_collect(config, store)
        pipeline.run_refine(config, store)
        pipeline.run_stats(config, store, judge_quality=True)
    finally:
        done.set()
        sampler.join()
    assert max(extra) <= 2 * workers - 1
    assert served.peak <= 2 * workers
    if workers > 1:
        assert served.peak > workers


def test_failed_check_raises_once_in_flight_calls_are_paid(tmp_path, monkeypatch):
    # The tenth task check fails at once; every other call takes 50 ms, so
    # the other episodes' calls are still in flight.
    served = Served(monkeypatch, "refine_task", fail_at=10, latency=0.05, http=True)
    config, store = shop_store(tmp_path, "r", http=True)
    pipeline.run_explore(config, store)
    with pytest.raises(TransportError):
        pipeline.run_collect(config, store)
    at_raise = len(served.served)
    assert ledger_totals(store.root)["calls"] == at_raise
    time.sleep(0.1)
    assert len(served.served) == at_raise  # nothing served after the raise
    assert "collect" not in finished_stages(store)

    Served(monkeypatch, COLLECT, http=True)
    for stage in STAGES[1:]:
        stage(config, store)
    assert content_hash(store.root) == SHOP_CONTENT_HASH


def charged_totals(monkeypatch) -> list:
    """The ledger's running total after each charge, in charge order."""
    totals = []
    order = threading.Lock()
    add = CostLedger.add

    def recorded(ledger, usage, cost, **kwargs):
        with order:
            add(ledger, usage, cost, **kwargs)
            totals.append(ledger.total_cost)

    monkeypatch.setattr(CostLedger, "add", recorded)
    return totals


def overshoot(totals, budget) -> int:
    """Calls charged after the spend reached `budget`."""
    reached = next(i for i, total in enumerate(totals) if total >= budget)
    return len(totals) - 1 - reached


@pytest.mark.parametrize("workers", [1, 4])
def test_collect_budget_overshoot_is_bounded(tmp_path, monkeypatch, workers):
    # Up to 2 x workers episodes have a call in flight when the cap is
    # crossed; none sends another, and no queued task starts.
    Served(monkeypatch, COLLECT, delay=lambda n: 0.005, http=True)
    config, store = shop_store(tmp_path, "r", http=True, workers=workers)
    pipeline.run_explore(config, store)
    budget = Decimal(ledger_totals(store.root)["total_cost_usd"]) + Decimal("0.1")
    config, store = shop_store(tmp_path, "r", http=True, workers=workers,
                               oracle={"budget_usd": str(budget)})
    totals = charged_totals(monkeypatch)
    with pytest.raises(BudgetExhausted):
        pipeline.run_collect(config, store)
    assert overshoot(totals, budget) <= 2 * workers
    assert ledger_totals(store.root)["calls"] == len(totals) + 25


@pytest.mark.parametrize("workers", [1, 4])
def test_explore_budget_overshoot_is_bounded(tmp_path, monkeypatch, workers):
    # The crawl keeps proposing while earlier proposals are in flight; once
    # the cap is hit, queued proposals are not sent and the crawl stops.
    Served(monkeypatch, ("categorize", "propose_task"), delay=lambda n: 0.005, http=True)
    config, store = shop_store(tmp_path, "uncapped", http=True, workers=workers)
    pipeline.run_explore(config, store)
    budget = Decimal(ledger_totals(store.root)["total_cost_usd"]) / 2
    config, store = shop_store(tmp_path, "r", http=True, workers=workers,
                               oracle={"budget_usd": str(budget)})
    totals = charged_totals(monkeypatch)
    with pytest.raises(BudgetExhausted):
        pipeline.run_explore(config, store)
    assert overshoot(totals, budget) <= 2 * workers
    assert ledger_totals(store.root)["calls"] == len(totals)


# ----------------------------------------------------------------------
# refine and stats on a network oracle: their jobs submit nothing, so they
# take the pool
# ----------------------------------------------------------------------

@pytest.mark.parametrize("http", [False, True], ids=["mock", "http"])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_refine_fills_two_calls_per_worker_on_http(tmp_path, monkeypatch, workers, http):
    # On an HTTP oracle, refine and the stats judges judge on the whole pool
    # and the calling thread; on the mock, one trajectory per worker.
    Served(monkeypatch, (), http=http)
    config, store = shop_store(tmp_path, "r", http=http, workers=workers)
    pipeline.run_explore(config, store)
    pipeline.run_collect(config, store)
    peaks = {}
    for template, stage in (
            ("refine_trajectory", pipeline.run_refine),
            ("judge_quality", lambda c, s: pipeline.run_stats(c, s, judge_quality=True))):
        served = Served(monkeypatch, template, delay=lambda n: 0.01, http=http)
        stage(config, store)
        peaks[template] = served.peak
    for peak in peaks.values():
        if http:
            assert workers < peak <= 2 * workers
        else:
            assert peak <= workers


def test_refine_width_changes_no_record(tmp_path, monkeypatch):
    # Within each pair, the first judgment sleeps longer, so judgments in
    # flight finish out of job order; refine commits them in job order, so
    # `judgments.jsonl` keeps the mock's bytes.
    config, mock = shop_store(tmp_path, "mock")
    for stage in STAGES:
        stage(config, mock)
    Served(monkeypatch, "refine_trajectory", delay=lambda n: 0.002 * (2 - n % 2), http=True)
    stats = set()
    for workers in (1, 4):
        config, http = shop_store(tmp_path, f"http{workers}", http=True, workers=workers)
        for stage in STAGES:
            stage(config, http)
        assert (http.root / "judgments.jsonl").read_bytes() == (
            mock.root / "judgments.jsonl").read_bytes(), workers
        assert content_hash(http.root) == SHOP_CONTENT_HASH
        assert ledger_totals(http.root) == SHOP_LEDGER
        stats.add((http.root / "stats.json").read_bytes())
    assert len(stats) == 1


@pytest.mark.parametrize("workers", [1, 4])
def test_refine_budget_overshoot_is_bounded(tmp_path, monkeypatch, workers):
    # A refine judgment costs $0.0026, so the cap is crossed by the second
    # one charged while up to 2 x workers are in flight; no queued
    # trajectory is judged after that.
    Served(monkeypatch, "refine_trajectory", delay=lambda n: 0.005, http=True)
    config, store = shop_store(tmp_path, "r", http=True, workers=workers)
    pipeline.run_explore(config, store)
    pipeline.run_collect(config, store)
    before = ledger_totals(store.root)
    budget = Decimal(before["total_cost_usd"]) + Decimal("0.004")
    config, store = shop_store(tmp_path, "r", http=True, workers=workers,
                               oracle={"budget_usd": str(budget)})
    totals = charged_totals(monkeypatch)
    with pytest.raises(BudgetExhausted):
        pipeline.run_refine(config, store)
    assert overshoot(totals, budget) <= 2 * workers
    assert ledger_totals(store.root)["calls"] == before["calls"] + len(totals)


# ----------------------------------------------------------------------
# fault injection: the endpoint goes down at any call, and the run resumes
# ----------------------------------------------------------------------

def endpoint_down_cases():
    """Every call k of the shop run, each on one setting, round-robin."""
    settings = [(False, 1), (True, 1), (False, 4), (True, 4)]
    for k in range(SHOP_LEDGER["calls"]):
        http, workers = settings[k % len(settings)]
        oracle = "http" if http else "mock"
        yield pytest.param(http, workers, k, id=f"{oracle}-w{workers}-k{k}")


@pytest.mark.parametrize("http, workers, k", endpoint_down_cases())
def test_resume_after_the_endpoint_goes_down_at_any_call(tmp_path, monkeypatch, http,
                                                         workers, k, one_worker_bytes):
    served = Served(monkeypatch, (), http=http)
    served.down = k
    config, store = shop_store(tmp_path, "r", http=http, workers=workers)
    with pytest.raises(TransportError):
        for stage in STAGES:
            stage(config, store)
    assert ledger_totals(store.root)["calls"] == len(served.served)

    served.down = None
    for stage in STAGES:
        stage(config, store)
    assert content_hash(store.root) == SHOP_CONTENT_HASH
    assert ledger_totals(store.root)["calls"] == len(served.served)
    assert record_bytes(store.root) == one_worker_bytes


# ----------------------------------------------------------------------
# the run-level observation store
# ----------------------------------------------------------------------

def stored_refs(run) -> list[str]:
    return [json.loads(line)["ref"] for line in (run / "observations.jsonl").read_text().splitlines()]


def referenced_refs(run) -> set[str]:
    refs = set()
    for line in (run / "triplets.jsonl").read_text().splitlines():
        record = json.loads(line)
        refs |= {record["before_ref"], record["after_ref"]}
    for line in (run / "trajectories_raw.jsonl").read_text().splitlines():
        refs |= {step["observation_ref"] for step in json.loads(line)["steps"]}
    return refs


@pytest.mark.parametrize("tear", ["mid-line", "newline"])
def test_torn_observation_line_resumes_to_the_pinned_hash(tmp_path, tear):
    config, store = shop_store(tmp_path, "r")
    pipeline.run_explore(config, store)
    pipeline.run_collect(config, store)
    observations = store.root / "observations.jsonl"
    data = observations.read_bytes()
    last = data[data.rindex(b"\n", 0, -1) + 1:]
    if tear == "newline":
        observations.write_bytes(data[:-1])
    else:
        # A crash while appending the line: no record refers to it yet, so
        # the trajectory that did and every later one were never written.
        observations.write_bytes(data[:len(data) - len(last) // 2])
        ref = json.loads(last)["ref"]
        raw = store.root / "trajectories_raw.jsonl"
        lines = raw.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if ref in line)
        raw.write_text("".join(lines[:first]))
    for stage in STAGES[1:]:
        stage(config, store)
    assert content_hash(store.root) == SHOP_CONTENT_HASH
    assert observations.read_bytes().endswith(b"}\n")
    refs = stored_refs(store.root)
    assert len(refs) == len(set(refs))
    assert referenced_refs(store.root) <= set(refs)


def test_concurrent_writers_store_each_observation_once(tmp_path, monkeypatch):
    Served(monkeypatch, (), http=True)
    config, store = shop_store(tmp_path, "r", http=True, workers=4)
    for stage in STAGES:
        stage(config, store)
    refs = stored_refs(store.root)
    assert len(refs) == len(set(refs))
    assert referenced_refs(store.root) <= set(refs)
    assert content_hash(store.root) == SHOP_CONTENT_HASH
