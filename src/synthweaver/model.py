"""Domain records shared by every pipeline stage, plus their JSON forms.

An observation's JSON form is its stored line, `{"observation":…,"ref":…}`
in canonical JSON, where the ref is the SHA-256 of the body. The line is
encoded once per `Observation` object. Steps refer to their observation by
that ref; the line itself lives once per run, in the run directory's
`observations.jsonl`, and once per dataset, in the dataset's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping

from .actions import Action, ActionKind, parse_action, render_action
from .errors import SchemaError


class Terminal(str, Enum):
    COMPLETED_NONE = "completed_none"
    STOPPED_BY_AGENT = "stopped_by_agent"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class Element:
    """One addressable node of a page's accessibility view."""

    id: int
    role: str
    name: str
    interactive: bool = True


@dataclass(frozen=True)
class Observation:
    """What the agent sees: current view only, never the full page."""

    url: str
    accessibility_tree: str
    elements: tuple[Element, ...] = ()
    screenshot_ref: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))

    @classmethod
    def stored(cls, line: str) -> "Observation":
        """The observation of a stored line; its fields are decoded on first use.

        Only the line's end is checked here: a ValueError means it does not
        end in a ref.
        """
        if not (line.startswith('{"observation":') and line[-74:-66] == ',"ref":"'
                and line.endswith('"}')):
            raise ValueError("not a stored observation line")
        obs = object.__new__(cls)
        obs.__dict__["stored_line"] = line
        return obs

    def __getattr__(self, name: str) -> Any:
        # Python looks here only for an attribute the instance lacks, which
        # is a field of an observation made by `stored` and not decoded yet.
        if name not in _OBSERVATION_FIELDS or "stored_line" not in self.__dict__:
            raise AttributeError(name)
        decoded = observation_from_dict(json.loads(self.__dict__["stored_line"])["observation"])
        self.__dict__.update((field, decoded.__dict__[field]) for field in _OBSERVATION_FIELDS)
        return self.__dict__[name]

    @cached_property
    def stored_line(self) -> str:
        """`{"observation":…,"ref":…}` in canonical JSON, encoded once."""
        body = canonical_json(observation_to_dict(self))
        ref = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return f'{{"observation":{body},"ref":"{ref}"}}'

    @property
    def ref(self) -> str:
        """Content address: the SHA-256 of the canonical JSON body."""
        return self.stored_line[-66:-2]

    def element_ids(self) -> frozenset[int]:
        return frozenset(e.id for e in self.elements)

    def has_element(self, element_id: int) -> bool:
        return any(e.id == element_id for e in self.elements)


_OBSERVATION_FIELDS = ("url", "accessibility_tree", "elements", "screenshot_ref")
# The dataclass keeps field defaults on the class, where they would hide an
# undecoded field from `__getattr__`; its `__init__` holds its own copy.
del Observation.elements, Observation.screenshot_ref


def observation_fingerprint(obs: Observation) -> tuple[str, str, tuple[Element, ...]]:
    """The view of an observation: two are the same page state iff these are
    equal. The screenshot ref is excluded so the simulator and the browser
    adapter share one change-detection rule; element order counts."""
    return (obs.url, obs.accessibility_tree, obs.elements)


@dataclass(frozen=True)
class RefinementEvent:
    """One in-flight task rewrite: the step after which it happened, the text
    it replaced, and whether the stall detector had fired."""

    step_index: int
    prior_text: str
    stalled: bool


@dataclass(frozen=True)
class Task:
    """A high-level instruction for one site, plus its refinement lineage."""

    id: str
    text: str
    category: str
    site: str = ""
    lineage: tuple[RefinementEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "lineage", tuple(self.lineage))

    def refined(self, step_index: int, new_text: str, *, stalled: bool) -> "Task":
        """Return a copy carrying new_text, recording the prior text in lineage."""
        event = RefinementEvent(step_index, self.text, stalled)
        return replace(self, text=new_text, lineage=self.lineage + (event,))


@dataclass(frozen=True)
class Step:
    """One (observation, action) pair; its index is its position in the
    trajectory. The task text in force at raw step i is the `prior_text` of
    the first lineage event with `step_index >= i`, or else the final text."""

    observation: Observation
    action: Action
    state_summary: str = ""


@dataclass(frozen=True)
class Trajectory:
    """A finished episode of at least one step; `task` holds the final text
    and full lineage, one event per in-flight refine."""

    task: Task
    steps: tuple[Step, ...]
    terminal: Terminal

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ValueError(f"trajectory {self.task.id} has no steps")

    @property
    def id(self) -> str:
        return self.task.id

    @property
    def site(self) -> str:
        return self.task.site


def classify_terminal(steps: tuple[Step, ...], step_budget: int) -> Terminal:
    """Terminal class as a pure function of the step sequence and budget."""
    if not steps:
        raise ValueError("cannot classify an empty step sequence")
    last = steps[-1].action
    if last.kind is ActionKind.NONE and last.value:
        return Terminal.COMPLETED_NONE
    if last.kind is ActionKind.STOP:
        return Terminal.STOPPED_BY_AGENT
    if len(steps) == step_budget:
        return Terminal.BUDGET_EXCEEDED
    raise ValueError("step sequence is not terminal: last action continues and budget remains")


@dataclass(frozen=True)
class InteractionTriplet:
    """before-observation, executed action, after-observation."""

    before: Observation
    action: Action
    after: Observation


@dataclass(frozen=True)
class TrainingExample:
    """One SFT record: windowed history, current observation, target action."""

    task_text: str
    history: tuple[tuple[Observation, Action], ...]
    current_observation: Observation
    target_action: Action

    def __post_init__(self) -> None:
        object.__setattr__(self, "history", tuple(tuple(pair) for pair in self.history))


# ======================================================================
# JSON forms
# ======================================================================

def element_to_dict(e: Element) -> dict[str, Any]:
    return {"id": e.id, "role": e.role, "name": e.name, "interactive": e.interactive}


def element_from_dict(d: dict[str, Any]) -> Element:
    return Element(id=d["id"], role=d["role"], name=d["name"], interactive=d["interactive"])


def observation_to_dict(obs: Observation) -> dict[str, Any]:
    return {
        "url": obs.url,
        "accessibility_tree": obs.accessibility_tree,
        "elements": [element_to_dict(e) for e in obs.elements],
        "screenshot_ref": obs.screenshot_ref,
    }


def observation_from_dict(d: dict[str, Any]) -> Observation:
    return Observation(
        url=d["url"],
        accessibility_tree=d["accessibility_tree"],
        elements=tuple(element_from_dict(e) for e in d["elements"]),
        screenshot_ref=d.get("screenshot_ref"),
    )


def task_to_dict(task: Task) -> dict[str, Any]:
    return {
        "id": task.id,
        "text": task.text,
        "category": task.category,
        "site": task.site,
        "lineage": [
            {
                "step_index": ev.step_index,
                "prior_text": ev.prior_text,
                "stalled": ev.stalled,
            }
            for ev in task.lineage
        ],
    }


def task_from_dict(d: dict[str, Any]) -> Task:
    return Task(
        id=d["id"],
        text=d["text"],
        category=d["category"],
        site=d["site"],
        lineage=tuple(
            RefinementEvent(ev["step_index"], ev["prior_text"], ev["stalled"])
            for ev in d.get("lineage", [])
        ),
    )


def step_to_dict(step: Step) -> dict[str, Any]:
    # Actions cross file boundaries only as wire strings.
    return {
        "observation_ref": step.observation.ref,
        "action": render_action(step.action),
        "low_level_instruction": step.action.low_level_instruction,
        "state_summary": step.state_summary,
    }


def step_from_dict(d: dict[str, Any], observations: Mapping[str, Observation]) -> Step:
    """A step whose observation is looked up by its ref in `observations`."""
    try:
        observation = observations[d["observation_ref"]]
    except KeyError:
        raise SchemaError("step refers to no stored observation", field="observation_ref") from None
    action = parse_action(d["action"], d.get("low_level_instruction", ""))
    return Step(observation=observation, action=action, state_summary=d.get("state_summary", ""))


def trajectory_to_dict(t: Trajectory) -> dict[str, Any]:
    return {
        "task": task_to_dict(t.task),
        "steps": [step_to_dict(s) for s in t.steps],
        "terminal": t.terminal.value,
    }


def trajectory_from_dict(
    d: dict[str, Any], observations: Mapping[str, Observation]
) -> Trajectory:
    return Trajectory(
        task=task_from_dict(d["task"]),
        steps=tuple(step_from_dict(s, observations) for s in d["steps"]),
        terminal=Terminal(d["terminal"]),
    )


def canonical_json(value: Any) -> str:
    """Stable serialization used wherever bytes feed a content hash."""
    return json.dumps(value, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def read_json_file(path: str | Path) -> dict[str, Any]:
    """An input file's JSON object; a SchemaError naming it if it is missing,
    unreadable (a directory, say), bad, or not an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise SchemaError("file not found", path=str(path)) from None
    except OSError as exc:
        raise SchemaError(f"cannot read: {exc.strerror or exc}", path=str(path)) from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise SchemaError(f"invalid JSON: {exc}", path=str(path)) from None
    if not isinstance(data, dict):
        raise SchemaError(
            f"top level must be an object, got {type(data).__name__}", path=str(path)
        )
    return data


def check_schema_version(
    document: Mapping[str, Any], expected: int, path: str | None = None
) -> None:
    """Refuse an input document whose `schema_version` is not the JSON
    integer `expected`: `true` and `1.0` equal 1 in Python, but are not it."""
    version = document.get("schema_version")
    if type(version) is not int or version != expected:
        found = repr(version) if "schema_version" in document else "absent"
        raise SchemaError(
            f"{found}, but this version reads format {expected} only",
            path=path, field="schema_version",
        )
