"""Collection stage: stall detection, in-flight task rewrites, the episode loop."""
from __future__ import annotations

import itertools
from decimal import Decimal

import pytest

from synthweaver.collector import (
    Collector,
    StallDetector,
    error_signature,
    normalize_url,
)
from synthweaver.environment import SimulatorSession
from synthweaver.model import Task, Terminal, Trajectory
from tests.conftest import make_client, shop_client


def make_task(text: str, task_id: str = "t-shop-0000") -> Task:
    return Task(id=task_id, text=text, category="c", site="shop")


class TestNormalizeUrl:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("https://a.test/x/", "https://a.test/x"),
            ("https://a.test/x#frag", "https://a.test/x"),
            ("https://a.test/x/#frag", "https://a.test/x"),
            ("https://a.test/x", "https://a.test/x"),
            ("https://a.test/", "https://a.test"),
            ("https://a.test/x#a#b", "https://a.test/x"),
        ],
    )
    def test_table(self, raw, expected):
        assert normalize_url(raw) == expected

    def test_signature_uses_first_error_line(self):
        sig = error_signature("https://a.test/x/", "boom\ndetails follow")
        assert sig == ("https://a.test/x", "boom")


class TestStallDetector:
    def detector(self, noop=3, repeat=2) -> StallDetector:
        return StallDetector(noop_threshold=noop, repeat_threshold=repeat)

    def test_fires_on_noop_streak(self):
        d = self.detector()
        assert not d.record(changed=False, url="u", error=None)
        assert not d.record(changed=False, url="u", error=None)
        assert d.record(changed=False, url="u", error=None)

    def test_change_resets_streak(self):
        d = self.detector()
        d.record(changed=False, url="u", error=None)
        d.record(changed=False, url="u", error=None)
        d.record(changed=True, url="u", error=None)
        assert not d.record(changed=False, url="u", error=None)
        assert not d.record(changed=False, url="u", error=None)
        assert d.record(changed=False, url="u", error=None)

    def test_fires_on_repeated_error_signature(self):
        d = self.detector()
        assert not d.record(changed=False, url="https://a.test/p", error="denied")
        assert d.record(changed=False, url="https://a.test/p/", error="denied\nmore")

    def test_distinct_signatures_do_not_fire(self):
        d = self.detector()
        assert not d.record(changed=False, url="https://a.test/p", error="denied")
        assert not d.record(changed=False, url="https://a.test/q", error="denied")

    def test_changed_step_with_error_resets(self):
        d = self.detector()
        d.record(changed=False, url="u", error="e")
        d.record(changed=True, url="u", error="e")
        assert not d.record(changed=False, url="u", error="e")

    def test_counters_clear_after_firing(self):
        d = self.detector()
        d.record(changed=False, url="u", error="e")
        assert d.record(changed=False, url="u", error="e")  # signature fired
        assert not d.record(changed=False, url="u", error="e")
        assert d.record(changed=False, url="u", error="e")  # fires again from scratch

    def test_exhaustive_streak_semantics(self):
        # Against a brute-force model over every changed/unchanged pattern of
        # length <= 8, with no errors involved.
        for length in range(1, 9):
            for pattern in itertools.product([True, False], repeat=length):
                d = self.detector(noop=3, repeat=2)
                streak = 0
                for i, changed in enumerate(pattern):
                    expected = False
                    if changed:
                        streak = 0
                    else:
                        streak += 1
                        if streak >= 3:
                            expected = True
                            streak = 0
                    got = d.record(changed=changed, url="u", error=None)
                    assert got == expected, (pattern, i)


def text_at(trajectory: Trajectory, index: int) -> str:
    """The task text in force at raw step `index`, read from the lineage."""
    return next((ev.prior_text for ev in trajectory.task.lineage if ev.step_index >= index),
                trajectory.task.text)


def shop_collector(config, events=None):
    client = shop_client("collect")
    hook = (lambda k, d: events.append((k, d))) if events is not None else (lambda k, d: None)
    return Collector(client, config, on_event=hook)


class TestCollectShop:
    def test_simple_completion(self, shop_config, shop_graph):
        collector = shop_collector(shop_config)
        task = make_task("Find the price of the cheapest USB cable sold on MegaShop")
        t = collector.collect_trajectory(task, SimulatorSession(shop_graph))
        assert t.terminal is Terminal.COMPLETED_NONE
        assert len(t.steps) == 3
        assert t.task.lineage == ()
        assert collector.oracle.ledger.stage_cost_by_site("collect")["shop"] > Decimal("0")
        assert t.steps[-1].action.value.endswith("$3.99")

    def test_budget_exhaustion(self, shop_config, shop_graph):
        collector = shop_collector(shop_config)
        task = make_task("Monitor the homepage banner area for new promotional announcements")
        t = collector.collect_trajectory(task, SimulatorSession(shop_graph))
        assert t.terminal is Terminal.BUDGET_EXCEEDED
        assert len(t.steps) == shop_config.step_budget == 30

    def test_stop_terminal(self, shop_config, shop_graph):
        collector = shop_collector(shop_config)
        task = make_task("Check the price and availability of the 4K TV in Electronics")
        t = collector.collect_trajectory(task, SimulatorSession(shop_graph))
        assert t.terminal is Terminal.STOPPED_BY_AGENT
        assert t.steps[-1].action.kind.value == "stop"

    def test_stall_refinement(self, shop_config, shop_graph):
        events = []
        collector = shop_collector(shop_config, events)
        task = make_task(
            "Sort the 'vitamin supplements' search results by price to find the cheapest product available"
        )
        t = collector.collect_trajectory(task, SimulatorSession(shop_graph))
        assert t.terminal is Terminal.COMPLETED_NONE
        assert len(t.task.lineage) == 1
        assert t.task.lineage[0].stalled is True
        assert t.task.lineage[0].step_index == 3
        assert t.task.text.startswith("Identify the product")
        # steps 0-3 ran under the original text, 4+ under the refined text
        assert [text_at(t, i) for i in (0, 3)] == [task.text] * 2
        assert [text_at(t, i) for i in (4, len(t.steps) - 1)] == [t.task.text] * 2
        refined_events = [d for k, d in events if k == "collect.refined"]
        assert refined_events and refined_events[0]["stalled"] is True

    def test_exists_ui_refinement(self, shop_config, shop_graph):
        collector = shop_collector(shop_config)
        task = make_task("Arrange the Health & Household products from least to most expensive")
        t = collector.collect_trajectory(task, SimulatorSession(shop_graph))
        assert len(t.task.lineage) == 1
        assert t.task.lineage[0].stalled is False

    def test_missing_args_refinement(self, shop_config, shop_graph):
        collector = shop_collector(shop_config)
        task = make_task("Update your MegaShop account password to a new secure value")
        t = collector.collect_trajectory(task, SimulatorSession(shop_graph))
        assert len(t.task.lineage) == 1
        assert t.task.lineage[0].stalled is False
        assert t.steps[-1].action.value == "Signed in as demo"


class TestNextActionCorrection:
    def test_phantom_element_gets_one_reask(self, shop_config, shop_graph):
        script = {
            "schema_version": 1,
            "rules": [
                {"template": "next_action", "scope": "high_level_task", "replies": [
                    {"state_observation_summary": "s", "reasoning": "r",
                     "next_action": {"low-level_instruction": "click ghost",
                                     "action": {"type": "click", "element_id": 999, "value": ""}}},
                    {"state_observation_summary": "s", "reasoning": "r",
                     "next_action": {"low-level_instruction": "answer",
                                     "action": {"type": "none", "element_id": "",
                                                "value": "done"}}},
                ]},
                {"template": "refine_task",
                 "reply": {"Analysis": "ok", "Need-to-Refine": "no", "High-Level-Task": ""}},
            ],
        }
        client = make_client(script)
        collector = Collector(client, shop_config)
        task = make_task("anything")
        t = collector.collect_trajectory(task, SimulatorSession(shop_graph))
        # the corrected reply (the `none`) is the one recorded; no ghost click executes
        assert len(t.steps) == 1
        assert t.steps[0].action.kind.value == "none"

    def test_element_not_found_becomes_step_error(self, shop_config, shop_graph):
        # A live browser can lose an element between observe() and execute();
        # that must surface as a step error, not a crash.
        from synthweaver.errors import ElementNotFound

        class StaleSession:
            def __init__(self, inner):
                self.inner = inner

            def observe(self):
                return self.inner.observe()

            def execute(self, action):
                if action.kind.value == "click":
                    raise ElementNotFound("element 3 went stale")
                return self.inner.execute(action)

        script = {
            "schema_version": 1,
            "rules": [
                {"template": "next_action", "scope": "high_level_task", "replies": [
                    {"state_observation_summary": "s", "reasoning": "r",
                     "next_action": {"low-level_instruction": "click it",
                                     "action": {"type": "click", "element_id": 3, "value": ""}}},
                    {"state_observation_summary": "s", "reasoning": "r",
                     "next_action": {"low-level_instruction": "answer",
                                     "action": {"type": "none", "element_id": "",
                                                "value": "done"}}},
                ]},
                {"template": "refine_task",
                 "reply": {"Analysis": "ok", "Need-to-Refine": "no", "High-Level-Task": ""}},
            ],
        }
        events = []
        client = make_client(script)
        collector = Collector(client, shop_config, on_event=lambda k, d: events.append((k, d)))
        session = StaleSession(SimulatorSession(shop_graph))
        t = collector.collect_trajectory(make_task("x"), session)
        step_events = [d for k, d in events if k == "collect.step"]
        assert step_events[0]["error"] == "element 3 went stale"
        assert step_events[0]["changed"] is False
        assert t.terminal is Terminal.COMPLETED_NONE


class TestRefineCap:
    def test_refines_stop_at_cap(self, shop_config, shop_graph):
        # The checker demands a rewrite after every step; the cap must hold.
        script = {
            "schema_version": 1,
            "rules": [
                {"template": "next_action", "reply":
                    {"state_observation_summary": "s", "reasoning": "r",
                     "next_action": {"low-level_instruction": "scroll",
                                     "action": {"type": "scroll", "element_id": "",
                                                "value": "down"}}}},
                {"template": "refine_task", "scope": "current_high_level_task", "reply":
                    {"Analysis": "still wrong", "Need-to-Refine": "yes",
                     "High-Level-Task": "rewrite of {{current_high_level_task}}"}},
            ],
        }
        from dataclasses import replace
        config = replace(shop_config, step_budget=10)
        client = make_client(script)
        collector = Collector(client, config)
        t = collector.collect_trajectory(make_task("v0"), SimulatorSession(shop_graph))
        assert len(t.task.lineage) == config.max_refines_per_task == 4
        assert t.terminal is Terminal.BUDGET_EXCEEDED
        # four nested rewrites then the checker is never consulted again
        assert t.task.text.count("rewrite of") == 4


class TestCollectOne:
    def test_failures_become_records(self, shop_config, shop_graph):
        script = {
            "schema_version": 1,
            "rules": [
                {"template": "next_action", "raw": "never json"},
            ],
        }
        events = []
        client = make_client(script)
        collector = Collector(client, shop_config, on_event=lambda k, d: events.append((k, d)))
        tasks = [make_task("a", "t-shop-0001"), make_task("b", "t-shop-0002")]
        failed = [
            collector.collect_one(task, lambda: SimulatorSession(shop_graph)) for task in tasks
        ]
        assert [f["task_id"] for f in failed] == ["t-shop-0001", "t-shop-0002"]
        assert all(f["site"] == "shop" for f in failed)
        assert [k for k, _ in events] == ["collect.failed", "collect.failed"]
