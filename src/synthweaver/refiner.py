"""Post-hoc trajectory refinement: keep, reorder-and-repair, or drop.

A judge oracle reads a step-indexed summary of each finished trajectory and
returns an edit program. Applying the edits either yields a cleaned
trajectory that ends in a final `none` answer, or a drop record.
`judge_trajectory` also asks `stats`' quality judge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .actions import ActionKind, make_action, render_action
from .config import RunConfig
from .errors import EditContractViolation, SchemaViolation
from .model import Step, Terminal, Trajectory
from .oracle import (
    OracleClient,
    RefineDecision,
    RefineTrajectoryReply,
    TemplateName,
    render,
)
from .runstore import EventHook, noop_event


def summarize_trajectory(trajectory: Trajectory) -> str:
    """Step-indexed text block the judge reads; indices match edit orders."""
    lines = [
        f"Length of trajectory: {len(trajectory.steps)}",
        f"High-level task: {trajectory.task.text}",
    ]
    for step in trajectory.steps:
        summary = step.state_summary or step.observation.url or "(no summary)"
        wire = render_action(step.action)
        lines.append(f"State {step.index}: {summary}")
        lines.append(f"Action {step.index}: {wire}")
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


def apply_edits(
    trajectory: Trajectory, reply: RefineTrajectoryReply
) -> Trajectory | None:
    """Apply a validated edit program; None means the trajectory is dropped.

    Raises EditContractViolation when the edited step list would not end in
    a final non-empty `none`, or retains a terminal action mid-sequence.
    """
    if reply.decision is RefineDecision.DROP:
        return None
    if reply.decision is RefineDecision.KEEP:
        last = trajectory.steps[-1].action
        if last.kind is not ActionKind.NONE or not last.value:
            raise EditContractViolation("kept trajectory does not end in a final answer")
        return trajectory

    retained = [trajectory.steps[i] for i in reply.order]
    if not retained:
        raise EditContractViolation("refine retained no steps")
    final_task = trajectory.task.text
    if reply.modify_end:
        last = retained[-1]
        retained[-1] = replace(
            last,
            action=make_action(ActionKind.NONE, None, reply.final_none_value),
        )
    elif reply.append_end:
        last = retained[-1]
        if last.action.kind in (ActionKind.NONE, ActionKind.STOP):
            raise EditContractViolation(
                "append_end after a terminal action would leave it mid-sequence"
            )
        retained.append(
            Step(
                index=len(retained),
                observation=last.observation,
                action=make_action(ActionKind.NONE, None, reply.final_none_value),
                task_snapshot=final_task,
            )
        )
    for position, step in enumerate(retained[:-1]):
        if step.action.kind in (ActionKind.NONE, ActionKind.STOP):
            raise EditContractViolation(
                f"terminal action retained mid-sequence at position {position}"
            )
    last = retained[-1]
    if last.action.kind is not ActionKind.NONE or not last.action.value:
        raise EditContractViolation("edited trajectory does not end in a final answer")
    reindexed = tuple(
        step if step.index == i else replace(step, index=i)
        for i, step in enumerate(retained)
    )
    return Trajectory(task=trajectory.task, steps=reindexed, terminal=Terminal.COMPLETED_NONE)


@dataclass(frozen=True)
class RefineOutcome:
    site: str
    trajectory_id: str
    decision: str
    score: int | None
    refined: Trajectory | None
    drop_reason: str


class Refiner:
    def __init__(
        self,
        oracle: OracleClient,
        config: RunConfig,
        *,
        on_event: EventHook = noop_event,
    ) -> None:
        self.oracle = oracle
        self.config = config
        self.on_event = on_event

    def refine_trajectory(self, trajectory: Trajectory) -> RefineOutcome:
        """Judge one trajectory; judge failures degrade to drops, never raise."""
        parsed: RefineTrajectoryReply | None = judge_trajectory(
            self.oracle,
            TemplateName.REFINE_TRAJECTORY,
            trajectory,
            {"k": len(trajectory.steps), "expected_task": trajectory.task.text},
        )
        if parsed is None:
            return self._drop(trajectory, None, "unparseable judge reply")
        if parsed.decision is RefineDecision.DROP:
            return self._drop(trajectory, parsed.score, parsed.drop_reason)
        try:
            refined = apply_edits(trajectory, parsed)
        except EditContractViolation as exc:
            return self._drop(trajectory, parsed.score, str(exc))
        self.on_event(
            "refine.decision",
            {
                "site": trajectory.site,
                "trajectory_id": trajectory.id,
                "decision": parsed.decision.value,
                "score": parsed.score,
                "kept_steps": len(refined.steps) if refined else 0,
            },
        )
        return RefineOutcome(
            site=trajectory.site,
            trajectory_id=trajectory.id,
            decision=parsed.decision.value,
            score=parsed.score,
            refined=refined,
            drop_reason="",
        )

    def _drop(
        self, trajectory: Trajectory, score: int | None, reason: str
    ) -> RefineOutcome:
        self.on_event(
            "refine.drop",
            {"site": trajectory.site, "trajectory_id": trajectory.id, "reason": reason},
        )
        return RefineOutcome(
            site=trajectory.site,
            trajectory_id=trajectory.id,
            decision="drop",
            score=score,
            refined=None,
            drop_reason=reason,
        )
