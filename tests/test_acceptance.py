"""Acceptance gate: eleven checks, one printed pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they print;
without -s the per-criterion verdict still shows as the test result.
"""
from __future__ import annotations

import itertools
import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from decimal import Decimal

import pytest

from synthweaver import cli
from synthweaver.actions import (
    Action,
    ActionKind,
    make_action,
    parse_action,
    render_action,
)
from synthweaver.collector import Collector, StallDetector
from synthweaver.config import parse_config
from synthweaver.dataset import corpus_stats, split_examples
from synthweaver.environment import SimulatorSession, load_site_graph
from synthweaver.errors import (
    EditContractViolation,
    InvalidAction,
    MalformedAction,
    SchemaViolation,
)
from synthweaver.explorer import sample_probes
from synthweaver.model import Observation, Step, Task, Terminal, Trajectory
from synthweaver.oracle import TemplateName, extract_json, parse_reply, render
from synthweaver.refiner import apply_edits
from tests.conftest import SHOP_GRAPH, make_client, shop_config_dict, write_config


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} {name}: PASS")


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

_WORDS = ("find", "the", "cheapest", "cable", "price", "42", "on", "page", "2024")


def _phrase(rng: random.Random, n_min: int = 1, n_max: int = 5) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(n_min, n_max)))


def _random_action(rng: random.Random, kind: ActionKind) -> Action:
    if kind in (ActionKind.CLICK, ActionKind.HOVER):
        return make_action(kind, rng.randrange(100_000))
    if kind is ActionKind.TYPE:
        return make_action(kind, rng.randrange(100_000), _phrase(rng))
    if kind is ActionKind.PRESS:
        combos = ("", "enter", "ctrl+a", "meta+shift+p", "tab")
        return make_action(kind, None, rng.choice(combos))
    if kind is ActionKind.SCROLL:
        return make_action(kind, None, rng.choice(("up", "down")))
    if kind is ActionKind.GOTO:
        return make_action(kind, None, f"https://site.example/{_phrase(rng, 1, 2).replace(' ', '/')}?q={rng.randrange(10)}")
    if kind in (ActionKind.GO_BACK, ActionKind.GO_FORWARD):
        return make_action(kind, None)
    return make_action(kind, None, _phrase(rng))  # none / stop


def _obs(tag: str) -> Observation:
    return Observation(
        url=f"https://acc.example/{tag}",
        accessibility_tree=f'RootWebArea "{tag}"\n  button "b" [1]',
        elements=(),
    )


def _step(n: int, action: Action, tag: str | None = None) -> Step:
    """A step whose page tag (unless given) and summary carry the number `n`."""
    return Step(
        observation=_obs(tag if tag is not None else f"p{n}"),
        action=action,
        state_summary=f"s{n}",
    )


def _trajectory(steps: list[Step], terminal: Terminal, tag: str = "acc") -> Trajectory:
    task = Task(
        id=f"t-{tag}-0001",
        text="Answer the question",
        category="catalog",
    )
    return Trajectory(task=task, steps=tuple(steps), terminal=terminal)


def _completed_trajectory(rng: random.Random, k: int) -> Trajectory:
    """k steps: k-1 random non-terminal actions, then a final answered none."""
    steps = []
    for i in range(k - 1):
        roll = rng.randrange(3)
        if roll == 0:
            action = make_action(ActionKind.CLICK, rng.randrange(50))
        elif roll == 1:
            action = make_action(ActionKind.SCROLL, None, "down")
        else:
            action = make_action(ActionKind.TYPE, rng.randrange(50), _phrase(rng))
        steps.append(_step(i, action))
    steps.append(_step(k - 1, make_action(ActionKind.NONE, None, f"answer {k}")))
    return _trajectory(steps, Terminal.COMPLETED_NONE)


MALFORMED_WIRES = [
    "", "click", "click []", "click [x]", "click [-1]", "click [1] [2]",
    "type [1]", "type [] [text]", "type [1] []", "hover", "press",
    "scroll [sideways]", "scroll []", "goto []", "go_back [1]",
    "go_forward [x]", "none []", "none", "stop []", "frobnicate [1]",
    "CLICK [1]", "click [1] trailing",
]


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_01_action_grammar_round_trip():
    with criterion(1, "action-grammar"):
        rng = random.Random("acceptance-1")
        kinds = list(ActionKind)
        start = time.perf_counter()
        for i in range(10_000):
            kind = kinds[i % len(kinds)] if i < len(kinds) else rng.choice(kinds)
            action = _random_action(rng, kind)
            assert parse_action(render_action(action)) == action
        elapsed = time.perf_counter() - start
        assert len(MALFORMED_WIRES) >= 20
        for wire in MALFORMED_WIRES:
            with pytest.raises((MalformedAction, InvalidAction)):
                parse_action(wire)
        assert elapsed < 5.0, f"10k round-trips took {elapsed:.2f}s"


def test_02_stall_predicate_exhaustive():
    with criterion(2, "stall-predicate"):
        sequences = 0
        for length in range(0, 7):
            for bits in itertools.product((True, False), repeat=length):
                detector = StallDetector(noop_threshold=3, repeat_threshold=2)
                streak = 0
                for changed in bits:
                    if changed:
                        streak = 0
                        expected = False
                    else:
                        streak += 1
                        expected = streak >= 3
                        if expected:
                            streak = 0
                    fired = detector.record(
                        changed=changed, url="https://acc.example/p", error=None
                    )
                    assert fired == expected, f"sequence {bits}"
                sequences += 1
        assert sequences == 127

        detector = StallDetector(noop_threshold=3, repeat_threshold=2)
        first = detector.record(
            changed=False, url="https://acc.example/p#top", error="timeout\nstack"
        )
        second = detector.record(
            changed=False, url="https://acc.example/p/", error="timeout\nother stack"
        )
        assert (first, second) == (False, True)

        detector = StallDetector(noop_threshold=3, repeat_threshold=2)
        assert detector.record(changed=False, url="https://a.example/p", error="x") is False
        assert detector.record(changed=False, url="https://a.example/q", error="x") is False


def test_03_categorized_sampling():
    with criterion(3, "categorized-sampling"):
        def pool(n: int) -> list[Action]:
            return [
                make_action(ActionKind.CLICK, i, "", f"Click element {i}")
                for i in range(n)
            ]

        for size in range(0, 6):
            picked = sample_probes(random.Random(f"size-{size}"), pool(size), 2)
            assert len(picked) == min(2, size)

        counts: Counter[int] = Counter()
        five = pool(5)
        n_seeds = 1000
        for seed in range(n_seeds):
            for probe in sample_probes(random.Random(f"acc3-{seed}"), five, 2):
                counts[probe.element_id] += 1
        for element_id in range(5):
            freq = counts[element_id] / n_seeds
            assert 0.35 <= freq <= 0.45, f"element {element_id} frequency {freq}"


def test_04_edit_order_validation():
    with criterion(4, "edit-order-validation"):
        rng = random.Random("acceptance-4")
        task_text = "Answer the question"
        for _ in range(10_000):
            k = rng.randint(1, 12)
            decision = rng.choice(("keep", "refine", "drop"))
            style = rng.randrange(6)
            if style == 0:
                order = list(range(k))
            elif style == 1:
                order = sorted(rng.sample(range(k), rng.randint(0, k)))
            elif style == 2:
                order = [rng.randrange(-2, k + 2) for _ in range(rng.randint(1, k))]
            elif style == 3:
                order = []
            elif style == 4:
                order = sorted(rng.sample(range(k), rng.randint(1, k)))
                order.append(order[rng.randrange(len(order))])
            else:
                order = rng.sample(range(k), rng.randint(0, k))
            payload = {
                "task": task_text,
                "score": rng.randint(0, 100),
                "decision": decision,
                "order": order,
                "modify_end": False,
                "append_end": False,
                "final_none_value": "" if decision == "drop" else "final answer",
                "drop_reason": "weak trajectory" if decision == "drop" else "",
                "modification_reason": "",
            }
            in_range = all(0 <= i < k for i in order)
            no_dups = len(set(order)) == len(order)
            expected_ok = in_range and no_dups
            if decision == "keep":
                expected_ok = expected_ok and order == list(range(k))
            if decision == "drop":
                expected_ok = expected_ok and order == []
            try:
                parse_reply(
                    TemplateName.REFINE_TRAJECTORY,
                    payload,
                    context={"k": k, "expected_task": task_text},
                )
                accepted = True
            except SchemaViolation:
                accepted = False
            assert accepted == expected_ok, f"k={k} decision={decision} order={order}"

        # A structurally valid keep of a trajectory without a final answer
        # must not survive application: it becomes a drop, never a kept record.
        stopped = _trajectory(
            [_step(0, make_action(ActionKind.CLICK, 1)),
             _step(1, make_action(ActionKind.STOP, None, "stuck"))],
            Terminal.STOPPED_BY_AGENT,
        )
        keep = parse_reply(
            TemplateName.REFINE_TRAJECTORY,
            {
                "task": stopped.task.text, "score": 90, "decision": "keep",
                "order": [0, 1], "modify_end": False, "append_end": False,
                "final_none_value": "looks done", "drop_reason": "",
                "modification_reason": "",
            },
            context={"k": 2, "expected_task": stopped.task.text},
        )
        with pytest.raises(EditContractViolation):
            apply_edits(stopped, keep)


def test_05_edit_application_fidelity():
    with criterion(5, "edit-application-fidelity"):
        rng = random.Random("acceptance-5")
        final_value = "the final answer"
        for _ in range(1000):
            k = rng.randint(2, 12)
            trajectory = _completed_trajectory(rng, k)
            mode = rng.choice(("plain", "modify", "append"))
            if mode == "plain":
                body = sorted(rng.sample(range(k - 1), rng.randint(0, k - 1)))
                order = body + [k - 1]
            else:
                order = sorted(rng.sample(range(k - 1), rng.randint(1, k - 1)))
            reply = parse_reply(
                TemplateName.REFINE_TRAJECTORY,
                {
                    "task": trajectory.task.text,
                    "score": rng.randint(0, 100),
                    "decision": "refine",
                    "order": order,
                    "modify_end": mode == "modify",
                    "append_end": mode == "append",
                    "final_none_value": final_value,
                    "drop_reason": "",
                    "modification_reason": "trimmed",
                },
                context={"k": k, "expected_task": trajectory.task.text},
            )
            out = apply_edits(trajectory, reply)
            assert out is not None
            assert len(out.steps) <= len(trajectory.steps) + 1
            last = out.steps[-1].action
            assert last.kind is ActionKind.NONE and last.value
            assert out.task is trajectory.task

            if mode == "plain":
                assert len(out.steps) == len(order)
                for j, i in enumerate(order):
                    assert out.steps[j] == trajectory.steps[i]
            elif mode == "modify":
                assert len(out.steps) == len(order)
                for j, i in enumerate(order[:-1]):
                    assert out.steps[j] == trajectory.steps[i]
                end = out.steps[-1]
                source = trajectory.steps[order[-1]]
                assert end.observation == source.observation
                assert end.action == make_action(ActionKind.NONE, None, final_value)
            else:
                assert len(out.steps) == len(order) + 1
                for j, i in enumerate(order):
                    assert out.steps[j] == trajectory.steps[i]
                appended = out.steps[-1]
                assert appended.observation == trajectory.steps[order[-1]].observation
                assert appended.action == make_action(ActionKind.NONE, None, final_value)

        # Case-study shape: a 21-step trajectory whose middle is a 12-step
        # repeated-click loop refines down to the 9 essential steps.
        steps = [_step(0, make_action(ActionKind.CLICK, 1), tag="start")]
        for i in range(1, 13):
            steps.append(_step(i, make_action(ActionKind.CLICK, 7), tag="loop"))
        for i in range(13, 20):
            steps.append(_step(i, make_action(ActionKind.CLICK, 20 + i)))
        steps.append(_step(20, make_action(ActionKind.NONE, None, "The total is $128")))
        long_trajectory = _trajectory(steps, Terminal.COMPLETED_NONE, tag="loopy")
        order = [0] + list(range(13, 21))
        reply = parse_reply(
            TemplateName.REFINE_TRAJECTORY,
            {
                "task": long_trajectory.task.text, "score": 75, "decision": "refine",
                "order": order, "modify_end": False, "append_end": False,
                "final_none_value": "The total is $128", "drop_reason": "",
                "modification_reason": "removed the repeated-click loop",
            },
            context={"k": 21, "expected_task": long_trajectory.task.text},
        )
        out = apply_edits(long_trajectory, reply)
        assert len(out.steps) == 9
        assert out.steps[-1].action.kind is ActionKind.NONE
        for j, i in enumerate(order):
            assert out.steps[j].observation == long_trajectory.steps[i].observation
            assert out.steps[j].action == long_trajectory.steps[i].action


def test_06_training_example_split():
    with criterion(6, "training-example-split"):
        rng = random.Random("acceptance-6")
        for _ in range(1000):
            k = rng.randint(1, 15)
            window = rng.randint(0, 6)
            trajectory = _completed_trajectory(rng, k)
            examples = split_examples(trajectory, window=window)
            assert len(examples) == k
            for i, example in enumerate(examples):
                full = trajectory.steps[:i]
                truncated = full[-window:] if window > 0 else ()
                expected = tuple((s.observation, s.action) for s in truncated)
                assert example.history == expected
                assert example.current_observation == trajectory.steps[i].observation
                assert example.target_action == trajectory.steps[i].action
                assert example.task_text == trajectory.task.text

        ten = _completed_trajectory(random.Random("acceptance-6-default"), 10)
        assert split_examples(ten) == split_examples(ten, window=3)


def test_07_budget_semantics(tmp_path):
    with criterion(7, "budget-semantics"):
        script = {
            "schema_version": 1,
            "default_usage": {"prompt_tokens": 10, "completion_tokens": 5},
            "rules": [
                {
                    "template": "next_action",
                    "reply": {
                        "state_observation_summary": "Still browsing the page.",
                        "reasoning": "Keep scanning for the answer.",
                        "next_action": {
                            "low-level_instruction": "Scroll down the page",
                            "action": {"type": "scroll", "value": "down"},
                        },
                    },
                },
                {
                    "template": "refine_task",
                    "reply": {
                        "Analysis": "The page supports the task; keep going.",
                        "Need-to-Refine": "no",
                        "High-Level-Task": "",
                    },
                },
            ],
        }
        config = parse_config(shop_config_dict(runs_dir=str(tmp_path / "runs")))
        collector = Collector(make_client(script), config)
        task = Task(
            id="t-shop-9001",
            text="Find a page that does not exist",
            category="catalog",
            site="shop",
        )
        session = SimulatorSession(load_site_graph(SHOP_GRAPH))
        trajectory = collector.collect_trajectory(task, session)
        assert len(trajectory.steps) == 30
        assert trajectory.terminal is Terminal.BUDGET_EXCEEDED

        stats = corpus_stats([trajectory], [], [], {})
        pct = stats["overall"]["terminal_pct"]
        assert pct["budget_exceeded"] == 100.0
        assert sum(pct.values()) == 100.0


def test_08_end_to_end_determinism(tmp_path):
    with criterion(8, "end-to-end-determinism"):
        config = write_config(tmp_path)
        start = time.perf_counter()
        for run_id, workers in (("a", "1"), ("b", "1"), ("w4", "4")):
            for command in ("explore", "collect", "refine", "export"):
                code = cli.main([
                    command, "--config", str(config), "--run", run_id,
                    "--workers", workers,
                ])
                assert code == cli.EXIT_OK
        elapsed = time.perf_counter() - start
        runs = tmp_path / "runs"

        def manifest(run_id: str) -> dict:
            return json.loads((runs / run_id / "dataset" / "manifest.json").read_text())

        assert manifest("a")["content_hash"] == manifest("b")["content_hash"]
        dataset_a = (runs / "a" / "dataset" / "dataset.jsonl").read_bytes()
        dataset_b = (runs / "b" / "dataset" / "dataset.jsonl").read_bytes()
        assert dataset_a == dataset_b

        def record_set(run_id: str, name: str) -> frozenset[str]:
            return frozenset((runs / run_id / name).read_text().splitlines())

        for name in ("tasks.jsonl", "trajectories_raw.jsonl", "judgments.jsonl"):
            assert record_set("a", name) == record_set("w4", name), name
        assert manifest("w4")["content_hash"] == manifest("a")["content_hash"]
        assert elapsed < 60.0, f"three pipeline runs took {elapsed:.1f}s"


def test_09_stats_partition():
    with criterion(9, "stats-partition"):
        trajectories: list[Trajectory] = []
        for i in range(5):
            steps = [_step(0, make_action(ActionKind.CLICK, 1)),
                     _step(1, make_action(ActionKind.NONE, None, f"answer {i}"))]
            trajectories.append(_trajectory(steps, Terminal.COMPLETED_NONE, tag=f"c{i}"))
        for i in range(3):
            steps = [_step(0, make_action(ActionKind.CLICK, 1)),
                     _step(1, make_action(ActionKind.STOP, None, "cannot finish"))]
            trajectories.append(_trajectory(steps, Terminal.STOPPED_BY_AGENT, tag=f"s{i}"))
        for i in range(2):
            steps = [_step(j, make_action(ActionKind.CLICK, 1)) for j in range(4)]
            trajectories.append(_trajectory(steps, Terminal.BUDGET_EXCEEDED, tag=f"b{i}"))

        stats = corpus_stats(trajectories, [], [], {})
        pct = stats["overall"]["terminal_pct"]
        assert pct == {
            "completed_none": 50.0,
            "stopped_by_agent": 30.0,
            "budget_exceeded": 20.0,
        }
        assert sum(pct.values()) == 100.0


EXTRACT_CASES = [
    ('{"a": 1}', {"a": 1}),
    ('```json\n{"a": 1}\n```', {"a": 1}),
    ('```\n{"a": {"b": 2}}\n```', {"a": {"b": 2}}),
    ('The verdict follows.\n{"a": 1}', {"a": 1}),
    ('{"a": 1}\nHope this helps!', {"a": 1}),
    ('Sure! Here is the JSON:\n```json\n{"score": 10}\n```\nDone.', {"score": 10}),
    ('{"text": "a {brace} inside"}', {"text": "a {brace} inside"}),
    ('{"text": "closing } inside"}', {"text": "closing } inside"}),
    ('{broken then {"a": 1}', {"a": 1}),
    ('{\n  "a": [1, 2,\n       3]\n}', {"a": [1, 2, 3]}),
    ('{"é": "ü"}', {"é": "ü"}),
    ('{"quote": "she said \\"hi\\""}', {"quote": 'she said "hi"'}),
    ('[{"a": 1}]', {"a": 1}),
    ('﻿ \n {"a": 1}', {"a": 1}),
    ('{"first": 1} {"second": 2}', {"first": 1}),
    ('prefix {"nested": {"deep": {"x": 1}}} suffix', {"nested": {"deep": {"x": 1}}}),
    ('{"a": true, "b": null}', {"a": True, "b": None}),
]


def test_10_oracle_robustness():
    with criterion(10, "oracle-robustness"):
        assert len(EXTRACT_CASES) >= 15
        for raw, expected in EXTRACT_CASES:
            assert extract_json(raw) == expected, raw

        base = {
            "task": "t", "score": 50, "decision": "refine", "order": [0, 1],
            "modify_end": False, "append_end": False,
            "final_none_value": "done", "drop_reason": "",
            "modification_reason": "",
        }
        context = {"k": 3, "expected_task": "t"}
        with pytest.raises(SchemaViolation, match="duplicate"):
            parse_reply(TemplateName.REFINE_TRAJECTORY, {**base, "order": [0, 0]}, context=context)
        with pytest.raises(SchemaViolation, match="out of range"):
            parse_reply(TemplateName.REFINE_TRAJECTORY, {**base, "order": [0, 3]}, context=context)

        diversity = {
            "score": 86,
            "subscores": {
                "intent_variety": 26, "action_diversity": 20,
                "goal_coverage": 20, "redundancy_minimization": 20,
            },
            "analysis": "varied",
            "representative_examples": ["a"],
        }
        with pytest.raises(SchemaViolation):
            parse_reply(TemplateName.JUDGE_DIVERSITY, diversity)

        with pytest.raises(SchemaViolation):
            parse_reply(
                TemplateName.REFINE_TASK,
                {"Analysis": "fine", "Need-to-Refine": "no",
                 "High-Level-Task": "a replacement task"},
            )
        with pytest.raises(SchemaViolation):
            parse_reply(
                TemplateName.REFINE_TASK,
                {"Analysis": "conflict", "Need-to-Refine": "yes", "High-Level-Task": ""},
            )


def test_11_cost_ledger_additivity():
    with criterion(11, "cost-ledger-additivity"):
        usages = [(37 * b % 997 + 1, 53 * b % 499 + 1) for b in range(25)]
        rules = [
            {
                "template": "judge_quality",
                "when": {"trajectory": f"bucket-{b} *"},
                "reply": {"score": 50, "analysis": "fine"},
                "usage": {"prompt_tokens": p, "completion_tokens": c},
            }
            for b, (p, c) in enumerate(usages)
        ]
        client = make_client({"schema_version": 1, "rules": rules},
                             prompt_cost_per_token="0.0000017",
                             completion_cost_per_token="0.0000093")
        pricing = client.pricing

        expected = Decimal("0")
        expected_prompt = 0
        for i in range(400):
            p, c = usages[i % 25]
            prompt = render(
                TemplateName.JUDGE_QUALITY, {"trajectory": f"bucket-{i % 25} case {i}"}
            )
            client.call(prompt)
            expected += p * pricing.prompt_per_token + c * pricing.completion_per_token
            expected_prompt += p

        ledger = client.ledger
        assert ledger.calls == 400
        assert ledger.total_prompt_tokens == expected_prompt
        assert ledger.total_cost == expected
        snapshot = ledger.snapshot()
        assert Decimal(snapshot["total_cost_usd"]) == expected
