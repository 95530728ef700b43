"""Post-hoc trajectory refinement: keep, reorder-and-repair, or drop.

A judge oracle reads a step-indexed summary of each finished trajectory and
returns an edit program, which its parser validates into a `Judgment`: the
retained raw step indices and what happens to the end. Refine names it by
the trajectory's site and id and stores one per trajectory; an edit that
breaks the contract is stored as a drop. `apply_edits`, a pure function,
turns a raw trajectory and its judgment into the cleaned trajectory, which
ends in a final `none` answer; export and stats call it as they read the
raw records. `judge_trajectory` also asks `stats`' quality judge.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from .actions import ActionKind, make_action, render_action
from .errors import EditContractViolation, SchemaViolation
from .model import Step, Terminal, Trajectory
from .oracle import EditEnd, Judgment, OracleClient, RefineDecision, TemplateName, render
from .runstore import EventHook, noop_event


def summarize_trajectory(trajectory: Trajectory) -> str:
    """Step-indexed text block the judge reads; indices match edit orders."""
    lines = [
        f"Length of trajectory: {len(trajectory.steps)}",
        f"High-level task: {trajectory.task.text}",
    ]
    for index, step in enumerate(trajectory.steps):
        summary = step.state_summary or step.observation.url or "(no summary)"
        wire = render_action(step.action)
        lines.append(f"State {index}: {summary}")
        lines.append(f"Action {index}: {wire}")
    return "\n".join(lines)


def judge_trajectory(
    oracle: OracleClient,
    template: TemplateName,
    trajectory: Trajectory,
    context: dict[str, Any] | None = None,
) -> Any:
    """The judge's validated reply about one whole trajectory, or None when
    no reply validates."""
    prompt = render(
        template,
        {
            "trajectory": summarize_trajectory(trajectory),
            # Extra variable: lets scripted mocks address one trajectory.
            "high_level_task": trajectory.task.text,
        },
    )
    try:
        return oracle.call(prompt, site=trajectory.site, context=context)
    except SchemaViolation:
        return None


def judgment_from_dict(d: dict[str, Any]) -> Judgment:
    """A stored judgment; a missing or unknown key is a TypeError."""
    return Judgment(**{**d, "decision": RefineDecision(d["decision"]),
                       "order": tuple(d["order"]), "end": EditEnd(d["end"])})


def apply_edits(trajectory: Trajectory, judgment: Judgment) -> Trajectory | None:
    """The trajectory a judgment leaves of a raw one; None means it is dropped.

    Raises EditContractViolation when the order names a step not recorded or
    one step twice, or when the edited step list would not end in a final
    non-empty `none` or retains a terminal action mid-sequence.
    """
    if judgment.decision is RefineDecision.DROP:
        return None
    if judgment.decision is RefineDecision.KEEP:
        last = trajectory.steps[-1].action
        if last.kind is not ActionKind.NONE or not last.value:
            raise EditContractViolation("kept trajectory does not end in a final answer")
        return trajectory

    if not all(0 <= i < len(trajectory.steps) for i in judgment.order):
        raise EditContractViolation(f"order {list(judgment.order)} names a step not recorded")
    if len(set(judgment.order)) != len(judgment.order):
        raise EditContractViolation(f"order {list(judgment.order)} names a step twice")
    retained = [trajectory.steps[i] for i in judgment.order]
    if not retained:
        raise EditContractViolation("refine retained no steps")
    if judgment.end is EditEnd.MODIFY:
        answer = make_action(ActionKind.NONE, None, judgment.final_none_value)
        retained[-1] = replace(retained[-1], action=answer)
    elif judgment.end is EditEnd.APPEND:
        last = retained[-1]
        if last.action.kind in (ActionKind.NONE, ActionKind.STOP):
            raise EditContractViolation(
                "append_end after a terminal action would leave it mid-sequence"
            )
        answer = make_action(ActionKind.NONE, None, judgment.final_none_value)
        retained.append(Step(observation=last.observation, action=answer))
    for position, step in enumerate(retained[:-1]):
        if step.action.kind in (ActionKind.NONE, ActionKind.STOP):
            raise EditContractViolation(
                f"terminal action retained mid-sequence at position {position}"
            )
    last = retained[-1]
    if last.action.kind is not ActionKind.NONE or not last.action.value:
        raise EditContractViolation("edited trajectory does not end in a final answer")
    return Trajectory(task=trajectory.task, steps=tuple(retained), terminal=Terminal.COMPLETED_NONE)


class Refiner:
    def __init__(self, oracle: OracleClient, *, on_event: EventHook = noop_event) -> None:
        self.oracle = oracle
        self.on_event = on_event

    def refine_trajectory(self, trajectory: Trajectory) -> Judgment:
        """Judge one trajectory; judge failures and edits that break the
        contract degrade to drops, never raise."""
        parsed: Judgment | None = judge_trajectory(
            self.oracle,
            TemplateName.REFINE_TRAJECTORY,
            trajectory,
            {"k": len(trajectory.steps), "expected_task": trajectory.task.text},
        )
        if parsed is None:
            return self._drop(trajectory, None, "unparseable judge reply")
        judgment = replace(parsed, site=trajectory.site, trajectory_id=trajectory.id)
        try:
            refined = apply_edits(trajectory, judgment)
        except EditContractViolation as exc:
            return self._drop(trajectory, judgment.score, str(exc))
        if refined is None:
            return self._drop(trajectory, judgment.score, judgment.reason)
        self.on_event(
            "refine.decision",
            {
                "site": trajectory.site,
                "trajectory_id": trajectory.id,
                "decision": judgment.decision.value,
                "score": judgment.score,
                "kept_steps": len(refined.steps),
            },
        )
        return judgment

    def _drop(self, trajectory: Trajectory, score: int | None, reason: str) -> Judgment:
        self.on_event(
            "refine.drop",
            {"site": trajectory.site, "trajectory_id": trajectory.id, "reason": reason},
        )
        return Judgment(
            site=trajectory.site,
            trajectory_id=trajectory.id,
            decision=RefineDecision.DROP,
            score=score,
            reason=reason,
        )
