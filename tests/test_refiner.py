"""Post-hoc refinement: summaries, edit application, judge-driven outcomes."""
from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from synthweaver.actions import ActionKind, make_action
from synthweaver.environment import SimulatorSession
from synthweaver.errors import EditContractViolation
from synthweaver.model import Task, Terminal, Trajectory, canonical_json
from synthweaver.oracle.replies import RefineDecision
from synthweaver.refiner import (
    EditEnd, Judgment, Refiner, apply_edits, judgment_from_dict, summarize_trajectory,
)
from tests.conftest import (
    click_action, make_client, none_action, shop_client, step, stop_action,
)


def make_task(text: str = "the task") -> Task:
    return Task(id="t-s-0001", text=text, category="c", site="shop")


def make_trajectory(actions, terminal=Terminal.COMPLETED_NONE, text="the task") -> Trajectory:
    steps = tuple(step(a, summary=f"summary {i}") for i, a in enumerate(actions))
    return Trajectory(task=make_task(text), steps=steps, terminal=terminal)


def judgment(**overrides) -> Judgment:
    base = dict(site="shop", trajectory_id="t-s-0001", decision=RefineDecision.KEEP,
                score=80, order=(0, 1), end=EditEnd.KEEP, final_none_value="", reason="")
    base.update(overrides)
    return Judgment(**base)


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
                       steps=(step(none_action("x"), url="https://a.test/p"),),
                       terminal=Terminal.COMPLETED_NONE)
        assert "State 0: https://a.test/p" in summarize_trajectory(t)


class TestApplyEdits:
    def test_keep_returns_trajectory_unchanged(self):
        t = make_trajectory([click_action(1), none_action("ans")])
        out = apply_edits(t, judgment())
        assert out is t

    def test_keep_without_final_answer_violates(self):
        t = make_trajectory([click_action(1), stop_action("gave up")],
                            terminal=Terminal.STOPPED_BY_AGENT)
        with pytest.raises(EditContractViolation):
            apply_edits(t, judgment())

    def test_drop_returns_none(self):
        t = make_trajectory([click_action(1), none_action("ans")])
        out = apply_edits(t, judgment(decision=RefineDecision.DROP, order=(), reason="bad"))
        assert out is None

    def test_refine_subset_reindexes(self):
        t = make_trajectory([click_action(1), click_action(2), click_action(3),
                             none_action("ans")])
        out = apply_edits(t, judgment(decision=RefineDecision.REFINE, order=(0, 2, 3)))
        assert [s.action for s in out.steps] == [click_action(1), click_action(3),
                                                 none_action("ans")]
        # A step's index is its position: raw step 2 is the edited one's step 1.
        assert "State 1: summary 2" in summarize_trajectory(out).splitlines()
        assert out.terminal is Terminal.COMPLETED_NONE
        assert out.task == t.task

    def test_modify_end_replaces_terminal_action(self):
        t = make_trajectory([click_action(1), stop_action("quit")],
                            terminal=Terminal.STOPPED_BY_AGENT)
        out = apply_edits(t, judgment(decision=RefineDecision.REFINE, order=(0, 1),
                                      end=EditEnd.MODIFY, final_none_value="the real answer"))
        assert out.steps[-1].action == make_action(ActionKind.NONE, None, "the real answer")
        assert out.steps[-1].observation == t.steps[-1].observation

    def test_append_end_adds_final_step(self):
        t = make_trajectory([click_action(1), click_action(2), stop_action("quit")],
                            terminal=Terminal.STOPPED_BY_AGENT)
        out = apply_edits(t, judgment(decision=RefineDecision.REFINE, order=(0, 1),
                                      end=EditEnd.APPEND, final_none_value="found it"))
        assert len(out.steps) == 3
        assert out.steps[-1].action.value == "found it"
        # the appended step reuses the last retained observation
        assert out.steps[-1].observation == t.steps[1].observation

    def test_append_after_terminal_violates(self):
        t = make_trajectory([click_action(1), none_action("ans")])
        with pytest.raises(EditContractViolation):
            apply_edits(t, judgment(decision=RefineDecision.REFINE, order=(0, 1),
                                    end=EditEnd.APPEND, final_none_value="x"))

    def test_mid_sequence_terminal_violates(self):
        t = make_trajectory([none_action("early"), click_action(1), none_action("ans")])
        with pytest.raises(EditContractViolation):
            apply_edits(t, judgment(decision=RefineDecision.REFINE, order=(0, 2)))

    def test_refine_must_end_in_none(self):
        t = make_trajectory([click_action(1), none_action("ans")])
        with pytest.raises(EditContractViolation):
            apply_edits(t, judgment(decision=RefineDecision.REFINE, order=(0,)))

    @pytest.mark.parametrize("order", [(0, 2), (-1,)])
    def test_order_naming_a_step_not_recorded_violates(self, order):
        t = make_trajectory([click_action(1), none_action("ans")])
        with pytest.raises(EditContractViolation, match="names a step not recorded"):
            apply_edits(t, judgment(decision=RefineDecision.REFINE, order=order))

    def test_order_naming_a_step_twice_violates(self):
        # The reply parser refuses a repeat too, but a stored judgment is
        # applied without it.
        t = make_trajectory([click_action(1), click_action(2), none_action("ans")])
        with pytest.raises(EditContractViolation, match="names a step twice"):
            apply_edits(t, judgment(decision=RefineDecision.REFINE, order=(0, 0, 1, 2)))

    def test_refine_empty_order_violates(self):
        t = make_trajectory([click_action(1), none_action("ans")])
        with pytest.raises(EditContractViolation):
            apply_edits(t, judgment(decision=RefineDecision.REFINE, order=()))


class TestJudgmentRecord:
    def test_round_trip(self):
        j = judgment(decision=RefineDecision.REFINE, order=(0, 2), end=EditEnd.APPEND,
                     final_none_value="found it", reason="cut a detour")
        record = json.loads(canonical_json(asdict(j)))
        assert record == {"site": "shop", "trajectory_id": "t-s-0001", "decision": "refine",
                          "score": 80, "order": [0, 2], "end": "append",
                          "final_none_value": "found it", "reason": "cut a detour"}
        assert judgment_from_dict(record) == j

    @pytest.mark.parametrize("key,value,error", [
        ("end", "truncate", ValueError), ("decision", "maybe", ValueError),
        ("order", 3, TypeError), ("extra", 1, TypeError),
    ])
    def test_bad_record_is_refused(self, key, value, error):
        record = {**asdict(judgment()), key: value}
        with pytest.raises(error):
            judgment_from_dict(record)


def collect_shop(shop_config, shop_graph, text):
    from synthweaver.collector import Collector
    client = shop_client()
    collector = Collector(client, shop_config)
    task = Task(id="t-shop-0001", text=text, category="c", site="shop")
    trajectory = collector.collect_trajectory(task, SimulatorSession(shop_graph))
    return Refiner(client), trajectory


class TestRefinerOutcomes:
    def test_keep(self, shop_config, shop_graph):
        refiner, t = collect_shop(shop_config, shop_graph,
                                  "Find the price of the cheapest USB cable sold on MegaShop")
        out = refiner.refine_trajectory(t)
        assert out.decision == "keep" and out.score == 92
        assert (out.order, out.end, out.final_none_value, out.reason) == (
            tuple(range(len(t.steps))), EditEnd.KEEP, "", "")
        assert apply_edits(t, out) is t

    def test_drop_records_reason(self, shop_config, shop_graph):
        refiner, t = collect_shop(
            shop_config, shop_graph,
            "Monitor the homepage banner area for new promotional announcements")
        out = refiner.refine_trajectory(t)
        assert out.decision == "drop"
        assert (out.order, out.end, out.final_none_value) == ((), EditEnd.KEEP, "")
        assert apply_edits(t, out) is None
        assert "exhausted its budget" in out.reason

    def test_modify_end_repairs_a_stop(self, shop_config, shop_graph):
        refiner, t = collect_shop(shop_config, shop_graph,
                                  "Check the price and availability of the 4K TV in Electronics")
        assert t.terminal is Terminal.STOPPED_BY_AGENT
        out = refiner.refine_trajectory(t)
        assert out.decision == "refine" and out.end is EditEnd.MODIFY
        assert out.final_none_value == "The 4K TV is listed at $299.00 on its product page"
        refined = apply_edits(t, out)
        assert refined.terminal is Terminal.COMPLETED_NONE
        assert refined.steps[-1].action.value == out.final_none_value

    def test_append_end_repairs_a_stop(self, shop_config, shop_graph):
        refiner, t = collect_shop(shop_config, shop_graph,
                                  "Sign in with saved credentials and check for unread notifications")
        out = refiner.refine_trajectory(t)
        assert out.decision == "refine" and out.end is EditEnd.APPEND
        refined = apply_edits(t, out)
        assert len(refined.steps) == 5  # four retained + appended answer
        assert refined.steps[-1].action.kind is ActionKind.NONE

    def test_unparseable_judge_reply_degrades_to_drop(self):
        t = make_trajectory([click_action(1), none_action("ans")])
        client = make_client({
            "schema_version": 1,
            "rules": [{"template": "refine_trajectory", "raw": "not json, ever"}],
        })
        refiner = Refiner(client)
        out = refiner.refine_trajectory(t)
        assert out.decision == "drop"
        assert out.reason == "unparseable judge reply"
        assert out.score is None

    @pytest.mark.parametrize("edit", ["modify_end", "append_end"])
    def test_final_answer_that_breaks_the_grammar_degrades_to_drop(self, edit):
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
        out = Refiner(client).refine_trajectory(t)
        assert out.decision == "drop"
        assert out.reason == "unparseable judge reply"
        assert client.ledger.calls == 3  # the reply was asked again, twice

    def test_edit_contract_violation_degrades_to_drop(self):
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
        refiner = Refiner(client, on_event=lambda k, d: events.append((k, d)))
        out = refiner.refine_trajectory(t)
        assert out.decision == "drop"
        assert "final answer" in out.reason
        assert (out.order, out.score) == ((), 50)
        assert events and events[0][0] == "refine.drop"
