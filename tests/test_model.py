"""Core records: terminal classification, lineage, fingerprints, serialization."""
from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from synthweaver.actions import ActionKind, make_action
from synthweaver.model import (
    Element,
    Observation,
    Task,
    Terminal,
    Trajectory,
    canonical_json,
    classify_terminal,
    observation_fingerprint,
    observation_from_dict,
    observation_to_dict,
    step_from_dict,
    step_to_dict,
    task_from_dict,
    task_to_dict,
    trajectory_from_dict,
    trajectory_to_dict,
)
from tests.conftest import click_action, none_action, obs, step, stop_action


def make_task(text: str = "do the thing") -> Task:
    return Task(id="t-x-0001", text=text, category="Misc")


class TestClassifyTerminal:
    def test_completed_none(self):
        steps = (step(click_action()), step(none_action("answer")))
        assert classify_terminal(steps, 30) is Terminal.COMPLETED_NONE

    def test_stopped_by_agent(self):
        steps = (step(stop_action("blocked")),)
        assert classify_terminal(steps, 30) is Terminal.STOPPED_BY_AGENT

    def test_budget_exceeded(self):
        steps = tuple(step(click_action()) for _ in range(4))
        assert classify_terminal(steps, 4) is Terminal.BUDGET_EXCEEDED

    def test_stop_wins_over_budget(self):
        steps = tuple(step(click_action()) for _ in range(3)) + (step(stop_action()),)
        assert classify_terminal(steps, 4) is Terminal.STOPPED_BY_AGENT

    def test_non_terminal_raises(self):
        steps = (step(click_action()),)
        with pytest.raises(ValueError):
            classify_terminal(steps, 30)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            classify_terminal((), 30)


class TestTaskLineage:
    def test_refined_records_prior_text(self):
        task = make_task("original")
        refined = task.refined(3, "rewritten", stalled=True)
        assert refined.text == "rewritten"
        assert refined.id == task.id
        assert len(refined.lineage) == 1
        assert refined.lineage[0].prior_text == "original"
        assert refined.lineage[0].step_index == 3
        assert refined.lineage[0].stalled is True
        assert task.lineage == ()

    def test_lineage_accumulates_in_order(self):
        task = make_task("v1")
        task = task.refined(1, "v2", stalled=False)
        task = task.refined(4, "v3", stalled=True)
        assert [e.prior_text for e in task.lineage] == ["v1", "v2"]
        assert [e.stalled for e in task.lineage] == [False, True]


class TestFingerprint:
    def test_screenshot_excluded(self):
        a = obs(screenshot=None)
        b = obs(screenshot="abc123")
        assert observation_fingerprint(a) == observation_fingerprint(b)

    def test_url_and_tree_included(self):
        base = obs()
        assert observation_fingerprint(base) != observation_fingerprint(
            obs(url="https://example.com/other")
        )
        assert observation_fingerprint(base) != observation_fingerprint(
            obs(tree='RootWebArea "t"\n  button "x" [1]')
        )

    def test_element_order_matters(self):
        a = Observation(url="u", accessibility_tree="t",
                        elements=(Element(1, "button", "a"), Element(2, "link", "b")))
        b = Observation(url="u", accessibility_tree="t",
                        elements=(Element(2, "link", "b"), Element(1, "button", "a")))
        assert observation_fingerprint(a) != observation_fingerprint(b)


def observations_of(t: Trajectory) -> dict[str, Observation]:
    return {s.observation.ref: s.observation for s in t.steps}


class TestSerialization:
    def test_observation_round_trip(self):
        o = obs(ids=(1, 2), screenshot="deadbeef")
        assert observation_from_dict(observation_to_dict(o)) == o

    def test_task_round_trip_with_lineage(self):
        task = make_task().refined(2, "new", stalled=True)
        assert task_from_dict(task_to_dict(task)) == task

    def test_task_carries_its_site(self):
        task = replace(make_task(), site="shop").refined(1, "new", stalled=False)
        data = task_to_dict(task)
        assert data["site"] == "shop"
        assert task_from_dict(data).site == "shop"
        del data["site"]
        with pytest.raises(KeyError, match="site"):
            task_from_dict(data)

    def test_step_round_trip_preserves_low_level_instruction(self):
        action = make_action(ActionKind.TYPE, 4, "abc", low_level_instruction="Type abc")
        s = step(action)
        record = step_to_dict(s)
        assert sorted(record) == ["action", "low_level_instruction", "observation_ref",
                                  "state_summary"]
        back = step_from_dict(record, {s.observation.ref: s.observation})
        assert back == s
        assert back.action.low_level_instruction == "Type abc"

    def test_trajectory_round_trip(self):
        steps = (step(click_action()), step(none_action("ok")))
        t = Trajectory(task=make_task(), steps=steps, terminal=Terminal.COMPLETED_NONE)
        back = trajectory_from_dict(trajectory_to_dict(t), observations_of(t))
        assert back == t

    def test_legacy_cost_key_still_loads(self):
        # Trajectory files once carried a per-episode cost; the ledger is
        # now the only cost account, so the key is written no more and ignored.
        steps = (step(click_action()), step(none_action("ok")))
        t = Trajectory(task=make_task(), steps=steps, terminal=Terminal.COMPLETED_NONE)
        record = trajectory_to_dict(t)
        assert "cost_usd" not in record
        assert trajectory_from_dict({**record, "cost_usd": "0.0125"}, observations_of(t)) == t

    def test_random_trajectories_round_trip(self):
        rng = random.Random("model-roundtrip")
        kinds = [click_action, lambda: make_action(ActionKind.SCROLL, None, "down"),
                 lambda: make_action(ActionKind.PRESS, None, "ctrl+a")]
        for _ in range(50):
            n = rng.randint(1, 6)
            steps = tuple(step(rng.choice(kinds)()) for _ in range(n - 1))
            steps += (step(none_action(f"ans-{rng.randint(0, 99)}")),)
            t = Trajectory(task=make_task(), steps=steps, terminal=Terminal.COMPLETED_NONE)
            assert trajectory_from_dict(trajectory_to_dict(t), observations_of(t)) == t


class TestCanonicalJson:
    def test_sorted_compact_unicode(self):
        text = canonical_json({"b": 1, "a": {"z": [1, 2], "é": "ü"}})
        assert text == '{"a":{"z":[1,2],"é":"ü"},"b":1}'

    def test_stable_under_insertion_order(self):
        a = canonical_json({"x": 1, "y": 2})
        b = canonical_json({"y": 2, "x": 1})
        assert a == b

    def test_round_trips_through_json(self):
        payload = {"k": ["a", {"n": 3}], "m": None}
        assert json.loads(canonical_json(payload)) == payload
