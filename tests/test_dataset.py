"""Dataset assembly: window splits, content-addressed export, corpus statistics."""
from __future__ import annotations

import json
import random
from decimal import Decimal
from pathlib import Path

import pytest

from synthweaver.actions import ActionKind, make_action
from synthweaver.dataset import (
    ObservationSink,
    corpus_stats,
    export_dataset,
    observation_ref,
    split_examples,
)
from synthweaver.model import Task, Terminal, Trajectory
from tests.conftest import click_action, none_action, obs, step, stop_action


def make_trajectory(n_steps: int, text="the task", task_id="t-s-0001", site="shop") -> Trajectory:
    actions = [click_action(i + 1) for i in range(n_steps - 1)] + [none_action("ans")]
    steps = tuple(
        step(a, url=f"https://s.test/p{i}") for i, a in enumerate(actions)
    )
    task = Task(id=task_id, text=text, category="c", site=site)
    return Trajectory(task=task, steps=steps, terminal=Terminal.COMPLETED_NONE)


class TestSplitExamples:
    def test_one_example_per_step(self):
        t = make_trajectory(5)
        assert len(split_examples(t)) == 5

    def test_history_is_bounded_window(self):
        t = make_trajectory(6)
        examples = split_examples(t, window=3)
        assert [len(e.history) for e in examples] == [0, 1, 2, 3, 3, 3]
        # example 4 sees steps 1..3, oldest first
        assert examples[4].history[0][1] == t.steps[1].action
        assert examples[4].history[-1][1] == t.steps[3].action

    def test_window_zero_means_no_history(self):
        examples = split_examples(make_trajectory(4), window=0)
        assert all(e.history == () for e in examples)

    def test_targets_and_observations_align(self):
        t = make_trajectory(4)
        for i, e in enumerate(split_examples(t)):
            assert e.target_action == t.steps[i].action
            assert e.current_observation == t.steps[i].observation
            assert e.task_text == t.task.text

    def test_final_task_text_everywhere(self):
        t = make_trajectory(3, text="refined final text")
        assert {e.task_text for e in split_examples(t)} == {"refined final text"}

    def test_empty_trajectory_raises(self):
        task = Task(id="t", text="x", category="c")
        with pytest.raises(ValueError, match="trajectory t has no steps"):
            Trajectory(task=task, steps=(), terminal=Terminal.COMPLETED_NONE)

    def test_negative_window_raises(self):
        with pytest.raises(ValueError):
            split_examples(make_trajectory(2), window=-1)

    def test_matches_brute_force_model(self):
        rng = random.Random("split-oracle")
        for _ in range(200):
            n = rng.randint(1, 12)
            window = rng.randint(0, 6)
            t = make_trajectory(n)
            examples = split_examples(t, window=window)
            assert len(examples) == n
            for i, e in enumerate(examples):
                expected = [(s.observation, s.action)
                            for s in t.steps[max(0, i - window):i]]
                assert list(e.history) == expected


class TestObservationRef:
    def test_screenshot_affects_ref(self):
        # Unlike change detection, the dataset address covers the screenshot.
        a, b = obs(screenshot=None), obs(screenshot="abc")
        assert observation_ref(a) != observation_ref(b)

    def test_sink_dedupes_by_content(self):
        sink = ObservationSink()
        r1 = sink.add(obs(url="https://a.test/"))
        r2 = sink.add(obs(url="https://a.test/"))
        r3 = sink.add(obs(url="https://b.test/"))
        assert r1 == r2 and r1 != r3
        assert len(sink) == 2
        assert [json.loads(line)["ref"] for line in sink.lines()] == [r1, r3]


class TestExport:
    def trajectories(self):
        return [
            make_trajectory(3, task_id="t-shop-0002"),
            make_trajectory(2, task_id="t-shop-0001"),
            make_trajectory(4, task_id="t-blog-0001", site="blog"),
        ]

    def test_record_count_and_layout(self, tmp_path):
        result = export_dataset(self.trajectories(), tmp_path / "d")
        assert result.n_records == 9
        rows = [json.loads(l) for l in (tmp_path / "d" / "dataset.jsonl").read_text().splitlines()]
        assert len(rows) == 9
        # sorted by (site, trajectory id): blog first, then shop 0001, shop 0002
        metas = [(r["meta"]["site"], r["meta"]["trajectory_id"], r["meta"]["step_index"])
                 for r in rows]
        assert metas == [
            ("blog", "t-blog-0001", 0), ("blog", "t-blog-0001", 1),
            ("blog", "t-blog-0001", 2), ("blog", "t-blog-0001", 3),
            ("shop", "t-shop-0001", 0), ("shop", "t-shop-0001", 1),
            ("shop", "t-shop-0002", 0), ("shop", "t-shop-0002", 1),
            ("shop", "t-shop-0002", 2),
        ]
        assert rows[0]["target_action"] == "click [1]"
        assert rows[3]["target_action"].startswith("none [")

    def test_observation_refs_resolve(self, tmp_path):
        export_dataset(self.trajectories(), tmp_path / "d")
        out = tmp_path / "d"
        observations = {json.loads(l)["ref"]
                        for l in (out / "observations.jsonl").read_text().splitlines()}
        for line in (out / "dataset.jsonl").read_text().splitlines():
            row = json.loads(line)
            assert row["observation_ref"] in observations
            assert all(h["obs_ref"] in observations for h in row["history"])

    def test_manifest_hashes_match_files(self, tmp_path):
        import hashlib
        result = export_dataset(self.trajectories(), tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest == result.manifest
        for name, meta in manifest["files"].items():
            digest = hashlib.sha256((tmp_path / "d" / name).read_bytes()).hexdigest()
            assert digest == meta["sha256"]

    def test_export_is_deterministic(self, tmp_path):
        a = export_dataset(self.trajectories(), tmp_path / "a")
        b = export_dataset(list(reversed(self.trajectories())), tmp_path / "b")
        assert a.manifest["content_hash"] == b.manifest["content_hash"]
        assert (tmp_path / "a" / "dataset.jsonl").read_bytes() == \
            (tmp_path / "b" / "dataset.jsonl").read_bytes()

    def test_window_changes_history_depth(self, tmp_path):
        export_dataset([make_trajectory(5)], tmp_path / "w1", window=1)
        rows = [json.loads(l)
                for l in (tmp_path / "w1" / "dataset.jsonl").read_text().splitlines()]
        assert [len(r["history"]) for r in rows] == [0, 1, 1, 1, 1]


class TestCorpusStats:
    def fixture_corpus(self):
        raw = []
        for i in range(5):
            raw.append(make_trajectory(3, task_id=f"t-shop-{i:04d}"))
        for i in range(5, 8):
            t = make_trajectory(2, task_id=f"t-shop-{i:04d}")
            task = t.task.refined(0, "the refined task", stalled=True)
            t = Trajectory(task=task, steps=t.steps[:-1] + (step(stop_action()),),
                           terminal=Terminal.STOPPED_BY_AGENT)
            raw.append(t)
        for i in range(8, 10):
            t = make_trajectory(4, task_id=f"t-shop-{i:04d}")
            t = Trajectory(task=t.task, steps=t.steps[:-1] + (step(click_action(9)),),
                           terminal=Terminal.BUDGET_EXCEEDED)
            raw.append(t)
        refined = raw[:6]
        decisions = (
            [{"site": "shop", "decision": "keep", "score": 80} for _ in range(5)]
            + [{"site": "shop", "decision": "refine", "score": 60}]
            + [{"site": "shop", "decision": "drop", "score": 10} for _ in range(4)]
        )
        return raw, refined, decisions

    def test_terminal_percentages(self):
        raw, refined, decisions = self.fixture_corpus()
        stats = corpus_stats(raw, refined, decisions, {})
        overall = stats["overall"]
        assert overall["terminal_pct"] == {
            "completed_none": 50.0, "stopped_by_agent": 30.0, "budget_exceeded": 20.0}
        assert sum(overall["terminal_pct"].values()) == 100.0
        assert overall["n_trajectories_raw"] == 10
        assert overall["n_trajectories_refined"] == 6

    def test_decision_percentages_and_scores(self):
        raw, refined, decisions = self.fixture_corpus()
        overall = corpus_stats(raw, refined, decisions, {})["overall"]
        assert overall["decision_pct"] == {"keep": 50.0, "refine": 10.0, "drop": 40.0}
        assert overall["mean_judge_score"] == round((80 * 5 + 60 + 10 * 4) / 10, 2)

    def test_mean_refines_and_steps(self):
        raw, refined, decisions = self.fixture_corpus()
        overall = corpus_stats(raw, refined, decisions, {})["overall"]
        assert overall["mean_refines"] == round(3 / 10, 2)
        # refined set: five 3-step + one 2-step
        assert overall["mean_steps"] == round((3 * 5 + 2) / 6, 2)

    def test_by_site_split(self):
        raw, refined, decisions = self.fixture_corpus()
        raw.append(make_trajectory(2, task_id="t-blog-0001", site="blog"))
        refined.append(raw[-1])
        decisions.append({"site": "blog", "decision": "keep", "score": 90})
        stats = corpus_stats(raw, refined, decisions, {})
        assert set(stats["by_site"]) == {"shop", "blog"}
        assert stats["by_site"]["blog"]["n_trajectories_raw"] == 1
        assert stats["by_site"]["shop"]["n_trajectories_raw"] == 10

    def test_costs_sum_as_decimals(self):
        raw, refined, decisions = self.fixture_corpus()
        collect_cost = {"shop": Decimal("0.7"), "blog": Decimal("0.3")}
        stats = corpus_stats(raw, refined, decisions, collect_cost)
        assert Decimal(stats["overall"]["collection_cost_usd"]) == Decimal("1.0")
        # A site with spend but no trajectory (every task failed) still shows it.
        assert stats["by_site"]["blog"]["collection_cost_usd"] == "0.3"
        assert stats["by_site"]["blog"]["n_trajectories_raw"] == 0
