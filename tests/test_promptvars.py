"""Prompt variable builders: the text blocks substituted into templates."""
from __future__ import annotations

from synthweaver.actions import ActionKind, make_action
from synthweaver.model import Element, Observation
from synthweaver.promptvars import (
    describe_interaction,
    element_lines,
    history_hint,
    img_info,
    page_context,
    state_action_block,
    task_examples_block,
    task_list_block,
)
from tests.conftest import click_action, step


def sample_obs() -> Observation:
    return Observation(
        url="https://a.test/",
        accessibility_tree='RootWebArea "A"\n  button "Buy" [4]',
        elements=(Element(4, "button", "Buy"), Element(5, "link", "Help")),
    )


def test_element_lines_format():
    lines = element_lines(sample_obs().elements).splitlines()
    assert lines == ['[4] button "Buy"', '[5] link "Help"']
    assert element_lines(()) == "(no elements)"


def test_page_context_falls_back_when_empty():
    assert page_context(sample_obs()).startswith("RootWebArea")
    empty = Observation(url="u", accessibility_tree="")
    assert page_context(empty) == "(empty page)"


def test_img_info_reflects_screenshot_presence():
    assert "attached" in img_info(
        Observation(url="u", accessibility_tree="t", screenshot_ref="abc"))
    assert "accessibility tree" in img_info(
        Observation(url="u", accessibility_tree="t"))


class TestDescribeInteraction:
    def test_prefers_low_level_instruction(self):
        action = make_action(ActionKind.CLICK, 4, low_level_instruction="Click the Buy button")
        assert describe_interaction(action, sample_obs()) == "Click the Buy button"

    def test_synthesizes_click_description(self):
        action = make_action(ActionKind.CLICK, 4)
        assert describe_interaction(action, sample_obs()) == 'Click the "Buy" button'

    def test_synthesizes_type_description(self):
        action = make_action(ActionKind.TYPE, 5, "hello")
        assert describe_interaction(action, sample_obs()) == 'Type "hello" into the "Help" link'

    def test_synthesizes_hover_description(self):
        action = make_action(ActionKind.HOVER, 5)
        assert describe_interaction(action, sample_obs()) == 'Hover over the "Help" link'


class TestHistoryBlocks:
    def test_empty_history(self):
        assert state_action_block(()) == "(none)"
        assert "first step" in history_hint(()).lower()

    def test_state_action_block_lines(self):
        s0 = step(click_action(4), summary="home page")
        s1 = step(make_action(ActionKind.SCROLL, None, "down",
                              low_level_instruction="Scroll down"))
        block = state_action_block((s0, s1))
        lines = block.splitlines()
        assert lines[0] == "State 0: home page"
        assert lines[1] == "Action 0: click [4]"
        assert lines[2] == "State 1: https://example.com/"  # url fallback
        assert lines[3] == "Action 1: scroll [down] (Scroll down)"

    def test_state_action_block_numbers_from_start(self):
        # A history window is numbered by its steps' places in the episode.
        block = state_action_block((step(click_action(4)), step(click_action(5))), 7)
        assert [line.split(":")[0] for line in block.splitlines()] == [
            "State 7", "Action 7", "State 8", "Action 8"]

    def test_history_hint_counts_and_stall_suffix(self):
        steps = (step(click_action(1)), step(click_action(2)))
        hint = history_hint(steps)
        assert "2" in hint and "oldest first" in hint
        stalled = history_hint(steps, stalled=True)
        assert stalled.startswith(hint)
        assert "no visible progress" in stalled


def test_task_examples_block():
    assert task_examples_block(()) == "(no examples provided)"
    block = task_examples_block(("find a", "do b"))
    assert block.splitlines() == ["- find a", "- do b"]


def test_task_list_block_numbers_from_one():
    block = task_list_block(["alpha", "beta"])
    assert block.splitlines() == ["1. alpha", "2. beta"]
