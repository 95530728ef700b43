"""The judges `stats` asks: task diversity per site and trajectory quality,
and the prompts the trajectory judges send."""
from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from synthweaver import cli, pipeline
from synthweaver.model import Task, task_to_dict
from synthweaver.oracle import MockTransport
from synthweaver.runstore import RunStore
from tests.conftest import SHOP_MOCK, shop_client, write_config

# sha256 of each template's prompts on the shop fixture, sorted and joined by
# NUL. The judges' were taken before the trajectory judges shared one prompt
# builder; explore's and collect's before steps lost their stored index, so
# collect's history blocks are numbered by position as they were by index.
PROMPTS_SHA256 = {
    "categorize": "4a3d947067689d1c6e87f22e834d06e8233d4f2447513f870f1cbd7c2096944f",
    "propose_task": "298dca64c3985eb089acad548150b5eed1b377bda1174c9568f5e6a08b3364df",
    "next_action": "303e9b13a7d5c910f4c6ed104e7eeaea588d33456c9b2a618040df0ff4251e11",
    "refine_task": "7f47188123740a28a3efcb882a252dfd17ed0a06418c4ec99bd8162ac08fd794",
    "judge_diversity": "262d323eff669c81290b0fae4494da2390099804f1aae503855c46d8a34cbf94",
    "judge_quality": "a8bc7030c7b51eb7aba933431ba2d6851ff9eae124268512b24c8c945f3f21af",
    "refine_trajectory": "c0380987a28b5ae63b823a72f6e11b123556c8187b195414043095208e154895",
}


@pytest.fixture
def sent(monkeypatch):
    """Every prompt the mock transport answers, in order."""
    prompts = []
    complete = MockTransport.complete

    def recorded(self, prompt):
        prompts.append(prompt)
        return complete(self, prompt)

    monkeypatch.setattr(MockTransport, "complete", recorded)
    return prompts


def stage(config, run_id, command, *flags) -> int:
    return cli.main([command, "--config", str(config), "--run", run_id, *flags])


def refined_shop_run(tmp_path, mock: dict | None = None):
    """A shop run taken through refine; `mock` replaces the scripted oracle."""
    script = SHOP_MOCK
    if mock is not None:
        script = tmp_path / "mock.json"
        script.write_text(json.dumps(mock))
    config = write_config(tmp_path, oracle={"backend": "mock", "mock_script": str(script)})
    for command in ("explore", "collect", "refine"):
        assert stage(config, "r", command) == cli.EXIT_OK
    return config, tmp_path / "runs" / "r"


def judge_failures(run) -> list[dict]:
    """The `stats.judge_failed` events, without their kind and timestamp."""
    events = map(json.loads, (run / "events.jsonl").read_text().splitlines())
    return [{k: v for k, v in e.items() if k not in ("kind", "ts")}
            for e in events if e["kind"] == "stats.judge_failed"]


def shop_script(*first_rules: dict) -> dict:
    script = json.loads(SHOP_MOCK.read_text())
    return {**script, "rules": [*first_rules, *script["rules"]]}


class TestJudgeDiversity:
    def test_sample_size_limits_prompt(self, tmp_path, shop_config, sent):
        store = RunStore(tmp_path / "runs" / "r")
        store.append_records("tasks.jsonl", [
            task_to_dict(Task(id=f"t-{i}", text=f"task {i}", category="c", site="shop"))
            for i in range(10)
        ])
        config = replace(shop_config, diversity_sample_size=4)
        diversity = pipeline._judge_diversity(shop_client("stats"), config, store)
        assert diversity["shop"]["score"] == 85
        assert sum(diversity["shop"]["subscores"].values()) == 85
        assert diversity["shop"]["n_sampled"] == 4
        assert sent[0].variables["task_list_block"] == "1. task 0\n2. task 1\n3. task 2\n4. task 3"

    def test_reply_that_never_validates_reads_null(self, tmp_path, capsys):
        config, run = refined_shop_run(
            tmp_path, shop_script({"template": "judge_diversity", "raw": "no json"}))
        calls = json.loads((run / "ledger.json").read_text())["calls"]
        assert stage(config, "r", "stats") == cli.EXIT_OK, capsys.readouterr().err
        stats = json.loads((run / "stats.json").read_text())
        assert stats["diversity"] == {"shop": None}
        # One ask and two re-asks, all paid for and all in the report.
        assert json.loads((run / "ledger.json").read_text())["calls"] == calls + 3
        assert judge_failures(run) == [{"site": "shop", "judge": "diversity"}]


def test_quality_reply_that_never_validates_is_not_judged(tmp_path, capsys):
    # One of the 14 refined shop trajectories gets a reply that is never JSON.
    unjudged = {"template": "judge_quality", "raw": "no json",
                "when": {"high_level_task": "Find the price of the cheapest USB cable*"}}
    config, run = refined_shop_run(tmp_path, shop_script(unjudged))
    assert stage(config, "r", "stats", "--judge-quality") == cli.EXIT_OK, capsys.readouterr().err
    quality = json.loads((run / "stats.json").read_text())["quality"]
    assert quality == {
        "overall": {"mean_score": 80.0, "n_judged": 13},
        "by_site": {"shop": {"mean_score": 80.0, "n_judged": 13}},
    }
    raw = map(json.loads, (run / "trajectories_raw.jsonl").read_text().splitlines())
    (cable,) = [r["task"]["id"] for r in raw
                if r["task"]["text"].startswith("Find the price of the cheapest USB cable")]
    assert judge_failures(run) == [{"site": "shop", "judge": "quality", "trajectory_id": cable}]


def test_judge_prompts_keep_their_bytes(tmp_path, sent):
    config, _ = refined_shop_run(tmp_path)
    assert stage(config, "r", "stats", "--judge-quality") == cli.EXIT_OK
    digests = {}
    for template in PROMPTS_SHA256:
        texts = sorted(p.text for p in sent if p.template.value == template)
        digests[template] = hashlib.sha256("\0".join(texts).encode()).hexdigest()
    assert digests == PROMPTS_SHA256
