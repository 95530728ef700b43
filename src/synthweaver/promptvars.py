"""Builders for the string variables the prompt templates consume.

Every stage renders observations, elements, and histories through these
helpers so the same page always produces the same prompt bytes.
"""

from __future__ import annotations

from .actions import Action, ActionKind, render_action
from .model import Element, Observation, Step


def element_lines(elements: tuple[Element, ...]) -> str:
    """One line per addressable element, in page order."""
    if not elements:
        return "(no elements)"
    return "\n".join(f'[{e.id}] {e.role} "{e.name}"' for e in elements)


def page_context(obs: Observation) -> str:
    return obs.accessibility_tree if obs.accessibility_tree else "(empty page)"


def img_info(obs: Observation) -> str:
    if obs.screenshot_ref:
        return "A screenshot of the current page is attached."
    return "No screenshot is available; rely on the accessibility tree."


def describe_interaction(action: Action, before: Observation) -> str:
    """Human-readable sentence for one executed probe."""
    if action.low_level_instruction:
        return action.low_level_instruction
    name = ""
    role = "element"
    for e in before.elements:
        if e.id == action.element_id:
            name, role = e.name, e.role or "element"
            break
    if action.kind is ActionKind.TYPE:
        return f'Type "{action.value}" into the "{name}" {role}'
    if action.kind is ActionKind.HOVER:
        return f'Hover over the "{name}" {role}'
    return f'Click the "{name}" {role}'


def state_action_block(steps: tuple[Step, ...], start: int = 0) -> str:
    """Numbered state/action pairs for history sections, oldest first; the
    first is numbered `start`, its index in the episode."""
    if not steps:
        return "(none)"
    lines: list[str] = []
    for index, step in enumerate(steps, start):
        summary = step.state_summary or step.observation.url
        lines.append(f"State {index}: {summary}")
        wire = render_action(step.action)
        if step.action.low_level_instruction:
            wire = f"{wire} ({step.action.low_level_instruction})"
        lines.append(f"Action {index}: {wire}")
    return "\n".join(lines)


def history_hint(steps: tuple[Step, ...], *, stalled: bool = False) -> str:
    if not steps:
        hint = "This is the first step; there are no previous state-action pairs."
    else:
        hint = (
            f"The {len(steps)} most recent state-action pairs are listed below, "
            "oldest first."
        )
    if stalled:
        hint += " The most recent actions made no visible progress (repeated no-ops or errors)."
    return hint


def task_examples_block(examples: tuple[str, ...]) -> str:
    if not examples:
        return "(no examples provided)"
    return "\n".join(f"- {text}" for text in examples)


def task_list_block(task_texts: list[str]) -> str:
    """Numbered task list for the diversity judge."""
    return "\n".join(f"{i}. {text}" for i, text in enumerate(task_texts, start=1))
