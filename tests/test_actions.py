"""Action grammar: parse/render round-trips and validation rules."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

from synthweaver.actions import (
    Action,
    ActionKind,
    make_action,
    parse_action,
    render_action,
)
from synthweaver.errors import InvalidAction, MalformedAction

ROUND_TRIPS = [
    "click [7]",
    "click [0]",
    "type [12] [hello world]",
    "type [3] [  padded  ]",
    "hover [99]",
    "press [ctrl+a]",
    "press []",
    "scroll [up]",
    "scroll [down]",
    "goto [https://example.com/a?b=c]",
    "go_back",
    "go_forward",
    "none [the answer is 42]",
    "stop [cannot finish]",
]


@pytest.mark.parametrize("wire", ROUND_TRIPS)
def test_round_trip_identity(wire):
    action = parse_action(wire)
    assert render_action(action) == wire
    assert parse_action(render_action(action)) == action


def test_whitespace_is_normalized_on_render():
    action = parse_action("  click   [4]  ")
    assert render_action(action) == "click [4]"


def test_type_value_may_contain_open_bracket():
    action = parse_action("type [1] [a [b]")
    assert action.value == "a [b"


@pytest.mark.parametrize(
    "wire",
    [
        "",
        "click",
        "click []",
        "click [x]",
        "click [-1]",
        "click [²]",  # a digit int() does not read
        "click [1] [2]",
        "type [1]",
        "type [] [text]",
        "type [1] []",
        "hover",
        "press",
        "scroll [sideways]",
        "scroll []",
        "goto []",
        "go_back [1]",
        "go_forward [x]",
        "none []",
        "none",
        "stop []",
        "frobnicate [1]",
        "CLICK [1]",
        "click [1] trailing",
    ],
)
def test_malformed_wire_rejected(wire):
    with pytest.raises(MalformedAction):
        parse_action(wire)


def test_parse_rejects_non_string():
    with pytest.raises(MalformedAction):
        parse_action(None)  # type: ignore[arg-type]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind=ActionKind.CLICK, element_id=None),
        dict(kind=ActionKind.CLICK, element_id=-2),
        dict(kind=ActionKind.CLICK, element_id=True),
        dict(kind=ActionKind.CLICK, element_id=1, value="x"),
        dict(kind=ActionKind.HOVER, element_id=1, value="x"),
        dict(kind=ActionKind.TYPE, element_id=1, value=""),
        dict(kind=ActionKind.TYPE, element_id=1, value="a]b"),
        dict(kind=ActionKind.PRESS, element_id=3, value="ctrl+a"),
        dict(kind=ActionKind.SCROLL, element_id=None, value="left"),
        dict(kind=ActionKind.SCROLL, element_id=None, value=""),
        dict(kind=ActionKind.GOTO, element_id=None, value=""),
        dict(kind=ActionKind.GO_BACK, element_id=None, value="x"),
        dict(kind=ActionKind.GO_FORWARD, element_id=1),
        dict(kind=ActionKind.NONE, element_id=None, value=""),
        dict(kind=ActionKind.STOP, element_id=None, value=""),
        dict(kind=ActionKind.NONE, element_id=0, value="done"),
    ],
)
def test_invalid_combinations_rejected(kwargs):
    with pytest.raises(InvalidAction):
        Action(**kwargs)


def test_press_value_may_be_empty():
    action = make_action(ActionKind.PRESS, None, "")
    assert render_action(action) == "press []"


def test_make_action_accepts_kind_strings():
    assert make_action("Click", 3).kind is ActionKind.CLICK
    assert make_action(" scroll ", None, "down").value == "down"
    with pytest.raises(InvalidAction):
        make_action("tap", 3)


def test_low_level_instruction_excluded_from_equality():
    a = make_action(ActionKind.CLICK, 5, low_level_instruction="Click the button")
    b = make_action(ActionKind.CLICK, 5, low_level_instruction="something else")
    assert a == b
    assert hash(a) == hash(b)
    assert a.low_level_instruction != b.low_level_instruction


def test_value_bracket_rejected_everywhere():
    for kind, eid in [(ActionKind.NONE, None), (ActionKind.STOP, None), (ActionKind.GOTO, None)]:
        with pytest.raises(InvalidAction):
            make_action(kind, eid, "has ] inside")


def readme_wire_forms() -> list[str]:
    """The forms in the README's "Action grammar" block, one per kind."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("\n## Action grammar\n"):]
    block = section.split("```\n", 1)[1].split("\n```", 1)[0]
    return [form for line in block.splitlines() for form in re.split(r"\s{2,}", line.strip())]


def test_readme_action_grammar_block_matches_the_table():
    forms = readme_wire_forms()
    assert sorted(form.split()[0] for form in forms) == sorted(kind.value for kind in ActionKind)
    # `scroll [up|down]` stands for both of its forms.
    for form in forms:
        for wire in ("scroll [up]", "scroll [down]") if form == "scroll [up|down]" else (form,):
            assert render_action(parse_action(wire)) == wire
