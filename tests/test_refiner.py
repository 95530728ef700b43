"""Post-hoc refinement: summaries, edit application, judge-driven outcomes."""
from __future__ import annotations

import pytest

from synthweaver.actions import ActionKind, make_action
from synthweaver.environment import SimulatorSession
from synthweaver.errors import EditContractViolation
from synthweaver.model import Task, Terminal, Trajectory
from synthweaver.oracle.replies import RefineDecision, RefineTrajectoryReply
from synthweaver.refiner import Refiner, apply_edits, summarize_trajectory
from tests.conftest import (
    click_action, make_client, none_action, shop_client, step, stop_action,
)


def make_task(text: str = "the task") -> Task:
    return Task(id="t-s-0001", text=text, category="c", site="shop")


def make_trajectory(actions, terminal=Terminal.COMPLETED_NONE, text="the task") -> Trajectory:
    steps = tuple(step(i, a, task=text, summary=f"summary {i}") for i, a in enumerate(actions))
    return Trajectory(task=make_task(text), steps=steps, terminal=terminal)


def reply(**overrides) -> RefineTrajectoryReply:
    base = dict(task="the task", score=80, decision=RefineDecision.KEEP,
                order=(0, 1), modify_end=False, append_end=False,
                final_none_value="fin", drop_reason="", modification_reason="")
    base.update(overrides)
    return RefineTrajectoryReply(**base)


class TestSummarize:
    def test_layout_and_zero_based_indices(self):
        t = make_trajectory([click_action(1), none_action("the answer")])
        text = summarize_trajectory(t)
        lines = text.splitlines()
        assert lines[0] == "Length of trajectory: 2"
        assert lines[1] == "High-level task: the task"
        assert lines[2] == "State 0: summary 0"
        assert lines[3] == "Action 0: click [1]"
        assert lines[4] == "State 1: summary 1"
        assert lines[5] == "Action 1: none [the answer]"

    def test_falls_back_to_url_without_summary(self):
        t = Trajectory(task=make_task(),
                       steps=(step(0, none_action("x"), url="https://a.test/p"),),
                       terminal=Terminal.COMPLETED_NONE)
        assert "State 0: https://a.test/p" in summarize_trajectory(t)


class TestApplyEdits:
    def test_keep_returns_trajectory_unchanged(self):
        t = make_trajectory([click_action(1), none_action("ans")])
        out = apply_edits(t, reply())
        assert out is t

    def test_keep_without_final_answer_violates(self):
        t = make_trajectory([click_action(1), stop_action("gave up")],
                            terminal=Terminal.STOPPED_BY_AGENT)
        with pytest.raises(EditContractViolation):
            apply_edits(t, reply())

    def test_drop_returns_none(self):
        t = make_trajectory([click_action(1), none_action("ans")])
        out = apply_edits(t, reply(decision=RefineDecision.DROP, order=(),
                                   final_none_value="", drop_reason="bad"))
        assert out is None

    def test_refine_subset_reindexes(self):
        t = make_trajectory([click_action(1), click_action(2), click_action(3),
                             none_action("ans")])
        out = apply_edits(t, reply(decision=RefineDecision.REFINE, order=(0, 2, 3)))
        assert [s.index for s in out.steps] == [0, 1, 2]
        assert [s.action for s in out.steps] == [click_action(1), click_action(3),
                                                 none_action("ans")]
        assert out.terminal is Terminal.COMPLETED_NONE
        assert out.task == t.task

    def test_modify_end_replaces_terminal_action(self):
        t = make_trajectory([click_action(1), stop_action("quit")],
                            terminal=Terminal.STOPPED_BY_AGENT)
        out = apply_edits(t, reply(decision=RefineDecision.REFINE, order=(0, 1),
                                   modify_end=True, final_none_value="the real answer"))
        assert out.steps[-1].action == make_action(ActionKind.NONE, None, "the real answer")
        assert out.steps[-1].observation == t.steps[-1].observation

    def test_append_end_adds_final_step(self):
        t = make_trajectory([click_action(1), click_action(2), stop_action("quit")],
                            terminal=Terminal.STOPPED_BY_AGENT)
        out = apply_edits(t, reply(decision=RefineDecision.REFINE, order=(0, 1),
                                   append_end=True, final_none_value="found it"))
        assert len(out.steps) == 3
        assert out.steps[-1].action.value == "found it"
        # the appended step reuses the last retained observation
        assert out.steps[-1].observation == t.steps[1].observation
        assert out.steps[-1].task_snapshot == t.task.text

    def test_append_after_terminal_violates(self):
        t = make_trajectory([click_action(1), none_action("ans")])
        with pytest.raises(EditContractViolation):
            apply_edits(t, reply(decision=RefineDecision.REFINE, order=(0, 1),
                                 append_end=True, final_none_value="x"))

    def test_mid_sequence_terminal_violates(self):
        t = make_trajectory([none_action("early"), click_action(1), none_action("ans")])
        with pytest.raises(EditContractViolation):
            apply_edits(t, reply(decision=RefineDecision.REFINE, order=(0, 2)))

    def test_refine_must_end_in_none(self):
        t = make_trajectory([click_action(1), none_action("ans")])
        with pytest.raises(EditContractViolation):
            apply_edits(t, reply(decision=RefineDecision.REFINE, order=(0,)))

    def test_refine_empty_order_violates(self):
        t = make_trajectory([click_action(1), none_action("ans")])
        with pytest.raises(EditContractViolation):
            apply_edits(t, reply(decision=RefineDecision.REFINE, order=()))


def collect_shop(shop_config, shop_graph, text):
    from synthweaver.collector import Collector
    client = shop_client()
    collector = Collector(client, shop_config)
    task = Task(id="t-shop-0001", text=text, category="c", site="shop")
    trajectory = collector.collect_trajectory(task, SimulatorSession(shop_graph))
    return Refiner(client, shop_config), trajectory


class TestRefinerOutcomes:
    def test_keep(self, shop_config, shop_graph):
        refiner, t = collect_shop(shop_config, shop_graph,
                                  "Find the price of the cheapest USB cable sold on MegaShop")
        out = refiner.refine_trajectory(t)
        assert out.decision == "keep" and out.score == 92
        assert out.refined is t

    def test_drop_records_reason(self, shop_config, shop_graph):
        refiner, t = collect_shop(
            shop_config, shop_graph,
            "Monitor the homepage banner area for new promotional announcements")
        out = refiner.refine_trajectory(t)
        assert out.decision == "drop"
        assert out.refined is None
        assert "exhausted its budget" in out.drop_reason

    def test_modify_end_repairs_a_stop(self, shop_config, shop_graph):
        refiner, t = collect_shop(shop_config, shop_graph,
                                  "Check the price and availability of the 4K TV in Electronics")
        assert t.terminal is Terminal.STOPPED_BY_AGENT
        out = refiner.refine_trajectory(t)
        assert out.decision == "refine"
        assert out.refined.terminal is Terminal.COMPLETED_NONE
        assert out.refined.steps[-1].action.value == \
            "The 4K TV is listed at $299.00 on its product page"

    def test_append_end_repairs_a_stop(self, shop_config, shop_graph):
        refiner, t = collect_shop(shop_config, shop_graph,
                                  "Sign in with saved credentials and check for unread notifications")
        out = refiner.refine_trajectory(t)
        assert out.decision == "refine"
        assert len(out.refined.steps) == 5  # four retained + appended answer
        assert out.refined.steps[-1].action.kind is ActionKind.NONE

    def test_unparseable_judge_reply_degrades_to_drop(self, shop_config, shop_graph):
        t = make_trajectory([click_action(1), none_action("ans")])
        client = make_client({
            "schema_version": 1,
            "rules": [{"template": "refine_trajectory", "raw": "not json, ever"}],
        })
        refiner = Refiner(client, shop_config)
        out = refiner.refine_trajectory(t)
        assert out.decision == "drop"
        assert out.drop_reason == "unparseable judge reply"
        assert out.score is None

    @pytest.mark.parametrize("edit", ["modify_end", "append_end"])
    def test_final_answer_that_breaks_the_grammar_degrades_to_drop(self, shop_config, edit):
        t = make_trajectory([click_action(1), stop_action("quit")],
                            terminal=Terminal.STOPPED_BY_AGENT)
        client = make_client({
            "schema_version": 1,
            "rules": [{"template": "refine_trajectory", "reply": {
                "task": "the task", "score": 50, "decision": "refine",
                "order": [0, 1] if edit == "modify_end" else [0],
                "modify_end": edit == "modify_end", "append_end": edit == "append_end",
                "final_none_value": "the [answer] is 42", "drop_reason": "",
                "modification_reason": "repair the end"}}],
        })
        out = Refiner(client, shop_config).refine_trajectory(t)
        assert out.decision == "drop"
        assert out.drop_reason == "unparseable judge reply"
        assert client.ledger.calls == 3  # the reply was asked again, twice

    def test_edit_contract_violation_degrades_to_drop(self, shop_config):
        # Judge keeps a trajectory that ends in a stop: structurally valid
        # reply, impossible edit.
        t = make_trajectory([click_action(1), stop_action("quit")],
                            terminal=Terminal.STOPPED_BY_AGENT)
        client = make_client({
            "schema_version": 1,
            "rules": [{"template": "refine_trajectory", "reply": {
                "task": "the task", "score": 50, "decision": "keep", "order": [0, 1],
                "modify_end": False, "append_end": False,
                "final_none_value": "pretend", "drop_reason": "",
                "modification_reason": ""}}],
        })
        events = []
        refiner = Refiner(client, shop_config, on_event=lambda k, d: events.append((k, d)))
        out = refiner.refine_trajectory(t)
        assert out.decision == "drop"
        assert "final answer" in out.drop_reason
        assert events and events[0][0] == "refine.drop"
