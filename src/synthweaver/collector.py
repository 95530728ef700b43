"""Trajectory collection with in-flight task refinement.

For each task the agent oracle picks one action per step until it answers
(`none`), gives up (`stop`), or exhausts the step budget. After every
executed step a checker oracle may rewrite the task to match what the site
actually supports; a mechanical stall detector feeds that check.

An episode has one oracle call in flight at a time; the stage overlaps
episodes instead (see `pipeline.run_collect`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from .actions import Action, ActionKind, ELEMENT_KINDS, render_action
from .config import RunConfig
from .environment import TransitionOutcome
from .errors import ElementNotFound, SchemaViolation
from .model import Observation, Step, Task, Trajectory, classify_terminal
from .oracle import NextActionReply, OracleClient, RenderedPrompt, TemplateName, render
from .promptvars import element_lines, history_hint, img_info, page_context, state_action_block
from .runstore import EventHook, noop_event


def normalize_url(url: str) -> str:
    """Loop signatures compare URLs without fragments or trailing slashes."""
    return url.split("#", 1)[0].rstrip("/")


def error_signature(url: str, error: str) -> tuple[str, str]:
    first_line = error.strip().splitlines()[0] if error.strip() else ""
    return (normalize_url(url), first_line)


@dataclass
class StallDetector:
    """Flags no-op streaks and repeated (url, error) signatures."""

    noop_threshold: int
    repeat_threshold: int
    noop_streak: int = 0
    signatures: dict[tuple[str, str], int] = field(default_factory=dict)

    def record(self, *, changed: bool, url: str, error: str | None) -> bool:
        """Record one executed step; True when a stall fired."""
        if changed:
            self.reset()
            return False
        self.noop_streak += 1
        fired = self.noop_streak >= self.noop_threshold
        if error:
            sig = error_signature(url, error)
            count = self.signatures.get(sig, 0) + 1
            self.signatures[sig] = count
            if count >= self.repeat_threshold:
                fired = True
        if fired:
            self.reset()
        return fired

    def reset(self) -> None:
        self.noop_streak = 0
        self.signatures.clear()


class Collector:
    """Collects trajectories; safe to share across worker threads because all
    mutable episode state is local to collect_trajectory."""

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

    # ------------------------------------------------------------------
    # next-action selection
    # ------------------------------------------------------------------

    def _history_vars(
        self, history: tuple[Step, ...], *, stalled: bool = False
    ) -> dict[str, str]:
        """A prompt's history sections: the episode's last `context_window`
        steps, numbered by their position in the episode."""
        window = history[-self.config.context_window :]
        return {
            "hint_for_history": history_hint(window, stalled=stalled),
            "previous_state_action": state_action_block(window, len(history) - len(window)),
        }

    def _next_action_prompt(
        self, task: Task, obs: Observation, history: tuple[Step, ...]
    ) -> RenderedPrompt:
        return render(
            TemplateName.NEXT_ACTION,
            {
                "high_level_task": task.text,
                "url": obs.url,
                "page_context": page_context(obs),
                "elements": element_lines(obs.elements),
                "img_info": img_info(obs),
                **self._history_vars(history),
            },
            images=(obs.screenshot_ref,) if obs.screenshot_ref else (),
        )

    def next_action(
        self, task: Task, obs: Observation, history: tuple[Step, ...]
    ) -> NextActionReply:
        """Pick the next action; one corrective re-ask on a bad element ref."""
        prompt = self._next_action_prompt(task, obs, history)
        reply: NextActionReply = self.oracle.call(prompt, site=task.site)
        action = reply.action
        if action.kind in ELEMENT_KINDS and not obs.has_element(action.element_id):
            correction = replace(prompt, text=(
                f"{prompt.text}\n\nYour previous choice referenced element id "
                f"[{action.element_id}], which is not on the current page. Choose "
                "again using only the element ids listed above."
            ))
            reply = self.oracle.call(correction, site=task.site)
        return reply

    # ------------------------------------------------------------------
    # task refinement check
    # ------------------------------------------------------------------

    def check_refine(
        self,
        task: Task,
        history: tuple[Step, ...],
        obs_after: Observation,
        *,
        stalled: bool,
    ) -> str | None:
        """The task rewritten to match what the site supports, or None when it
        needs no rewrite."""
        previous = [ev.prior_text for ev in task.lineage]
        prompt = render(
            TemplateName.REFINE_TASK,
            {
                "current_high_level_task": task.text,
                "previous_high_level_tasks": (
                    "\n".join(f"- {t}" for t in previous) if previous else "(none)"
                ),
                **self._history_vars(history, stalled=stalled),
                "curr_url": obs_after.url,
                "curr_state_context": page_context(obs_after),
                "img_info": img_info(obs_after),
            },
        )
        return self.oracle.call(prompt, site=task.site)

    # ------------------------------------------------------------------
    # episode loop
    # ------------------------------------------------------------------

    def collect_trajectory(self, task: Task, session: Any) -> Trajectory:
        cfg = self.config
        steps: list[Step] = []
        stall = StallDetector(
            noop_threshold=cfg.stall_noop_threshold,
            repeat_threshold=cfg.loop_repeat_threshold,
        )

        while len(steps) < cfg.step_budget:
            obs = session.observe()
            reply = self.next_action(task, obs, tuple(steps))
            action = reply.action
            index = len(steps)
            steps.append(Step(observation=obs, action=action, state_summary=reply.state_summary))
            if action.kind in (ActionKind.NONE, ActionKind.STOP):
                break
            outcome = self._execute(session, action)
            stalled = stall.record(changed=outcome.changed, url=obs.url, error=outcome.error)
            self.on_event(
                "collect.step",
                {
                    "site": task.site,
                    "task_id": task.id,
                    "index": index,
                    "action": render_action(action),
                    "changed": outcome.changed,
                    "error": outcome.error,
                    "stalled": stalled,
                },
            )
            if len(task.lineage) < cfg.max_refines_per_task:
                obs_after = session.observe()
                rewrite = self.check_refine(task, tuple(steps), obs_after, stalled=stalled)
                if rewrite is not None:
                    task = task.refined(index, rewrite, stalled=stalled)
                    stall.reset()
                    self.on_event(
                        "collect.refined",
                        {
                            "site": task.site,
                            "task_id": task.id,
                            "step_index": index,
                            "stalled": stalled,
                            "text": task.text,
                        },
                    )

        terminal = classify_terminal(tuple(steps), cfg.step_budget)
        return Trajectory(task=task, steps=tuple(steps), terminal=terminal)

    def _execute(self, session: Any, action: Action) -> TransitionOutcome:
        try:
            return session.execute(action)
        except ElementNotFound as exc:
            return TransitionOutcome(changed=False, error=str(exc))

    def collect_one(
        self, task: Task, session_factory: Callable[[], Any]
    ) -> Trajectory | dict[str, Any]:
        """Collect one task on a fresh session, closed when the task ends; a
        reply that never validates becomes a failure record instead of an
        exception."""
        session = session_factory()
        try:
            return self.collect_trajectory(task, session)
        except SchemaViolation as exc:
            failure = {"site": task.site, "task_id": task.id, "error": str(exc)}
            self.on_event("collect.failed", failure)
            return failure
        finally:
            session.close()
