"""Seeded generators for the benchmark's inputs: a site graph and an oracle script.

Every page shares one element layout (same ids, same kinds), so one
categorize rule covers every page and the script's rule count depends on the
number of reply profiles, never on the page count. What differs per page is
its URL, names, transitions and its profile slot.

A page URL looks like ``https://s7.bench.test/p0042/v3/y1``:

* ``p0042`` is the page; the home page's search routes a query that contains
  ``/p0042/`` to it through one state-guarded transition per page.
* ``v3`` is the page's profile slot (0-9). Tasks proposed on the page carry
  the URL in their text, so glob rules keyed on ``*/v3/*`` pick the task's
  reply series: trajectory length, element re-asks, schema violations, an
  in-flight rewrite and the judge decision.
* ``y1`` marks a page whose first section-link probe yields a unique task;
  ``y0`` pages only yield a task text that is already known.

Slots and yield flags are dealt from seeded permutations in exact shares, so
the seed changes which page gets which profile but not how many of each
there are: totals stay nearly constant across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any

SLOTS = 10

_WORDS = (
    "amber atlas birch cobalt delta ember fjord garnet harbor indigo juniper "
    "kestrel lagoon maple nectar onyx prairie quartz raven sierra tundra umber "
    "violet willow yarrow zephyr cedar dune falcon grove heron iris lotus meadow "
    "orchid pebble quill ridge saffron thistle"
).split()

REVISED_SUFFIX = " and report the footer note"
FALLBACK_TASK = "Browse the catalogue sections of the site"
NOTE_TEXT = "checked"


@dataclass(frozen=True)
class SiteParams:
    pages: int
    branching: int = 2
    elements: int = 16  # visible elements per page
    below_fold: int = 4
    guarded_share: float = 0.5  # pages whose Apply button needs a typed note
    noop_share: float = 0.5  # tool buttons that do nothing (half of those report an error)
    task_share: float = 1.0  # pages whose first section-link probe yields a unique task


@dataclass(frozen=True)
class ScriptParams:
    # Trajectory length mix over (short, medium, long) = 5, 8 and 12 steps.
    lengths: tuple[float, float, float] = (0.2, 0.5, 0.3)
    rewrite_rate: float = 0.2
    judge_mix: tuple[float, float, float] = (0.6, 0.3, 0.1)  # keep, refine, drop
    prose_share: float = 0.25
    violation_share: float = 0.2
    reask_share: float = 0.2
    usage: dict[str, tuple[int, int]] = field(
        default_factory=lambda: {
            "categorize": (1800, 420),
            "propose_task": (1400, 90),
            "next_action": (1600, 140),
            "refine_task": (1200, 80),
            "refine_trajectory": (1100, 160),
            "judge_diversity": (900, 120),
            "judge_quality": (900, 60),
        }
    )


@dataclass(frozen=True)
class Layout:
    """Element ids shared by every page."""

    branching: int
    elements: int

    SEARCH_BOX = 1
    SEARCH_BUTTON = 2
    HOME = 3
    UP = 4

    @property
    def sections(self) -> list[int]:
        return [5 + k for k in range(self.branching)]

    @property
    def note(self) -> int:
        return 5 + self.branching

    @property
    def apply(self) -> int:
        return 6 + self.branching

    @property
    def compare(self) -> int:
        return 7 + self.branching

    @property
    def status(self) -> int:
        return 8 + self.branching

    @property
    def fillers(self) -> list[int]:
        """Ids after the fixed block: even offsets are tool buttons, odd are text."""
        return list(range(9 + self.branching, self.elements + 1))

    def is_tool(self, element_id: int) -> bool:
        return (element_id - 9 - self.branching) % 2 == 0

    @property
    def next_page(self) -> int:
        return self.elements + 1

    @property
    def reviews(self) -> int:
        return self.elements + 2


def _exact_flags(n: int, share: float) -> list[bool]:
    """n flags with exactly round(n * share) set, spread evenly."""
    return [int((i + 1) * share + 1e-9) > int(i * share + 1e-9) for i in range(n)]


def slot_features(params: ScriptParams) -> list[dict[str, Any]]:
    """The fixed profile of each slot; independent of the seed on purpose so
    that per-record ratios stay put across seeds."""
    length_names = ("short", "medium", "long")
    lengths: list[str] = []
    for name, share in zip(length_names, params.lengths):
        lengths += [name] * round(share * SLOTS)
    lengths = (lengths + ["medium"] * SLOTS)[:SLOTS]
    decisions: list[str] = []
    for name, share in zip(("keep", "refine", "drop"), params.judge_mix):
        decisions += [name] * round(share * SLOTS)
    decisions = (decisions + ["keep"] * SLOTS)[:SLOTS]
    rewrite = _exact_flags(SLOTS, params.rewrite_rate)
    violation = _exact_flags(SLOTS, params.violation_share)
    reask = _exact_flags(SLOTS, params.reask_share)
    out = []
    # Different strides and offsets decorrelate the features across slots.
    for s in range(SLOTS):
        out.append(
            {
                "length": lengths[(s * 3) % SLOTS],
                "decision": decisions[(s * 7 + 1) % SLOTS],
                "rewrite": rewrite[(s * 3 + 2) % SLOTS],
                "violation": violation[(s * 7 + 4) % SLOTS],
                "reask": reask[(s * 9 + 5) % SLOTS],
            }
        )
    return out


# ======================================================================
# site graph
# ======================================================================

def _title(rng: random.Random) -> str:
    return " ".join(w.capitalize() for w in rng.sample(_WORDS, 2))


def generate_site(seed: int, params: SiteParams) -> dict[str, Any]:
    """Return a site-graph document (schema_version 1) for the simulator."""
    rng = random.Random(f"site:{seed}")
    layout = Layout(params.branching, params.elements)
    if params.elements < layout.status + 1:
        raise ValueError("elements too small for the fixed layout")
    if params.below_fold < 2:
        raise ValueError("below_fold must be at least 2")
    n = params.pages
    host = f"https://s{seed}.bench.test"
    order = list(range(n))
    rng.shuffle(order)
    slot = [0] * n
    yields = [False] * n
    yield_flags = _exact_flags(n // SLOTS + 1, params.task_share)
    for k, page in enumerate(order):
        slot[page] = k % SLOTS
        yields[page] = yield_flags[k // SLOTS]
    guarded = _exact_flags(n, params.guarded_share)
    rng.shuffle(guarded)

    def pid(i: int) -> str:
        return f"p{i:04d}"

    urls = [f"{host}/{pid(i)}/v{slot[i]}/y{int(yields[i])}" for i in range(n)]
    pages: dict[str, Any] = {}
    for i in range(n):
        title = _title(rng)
        children = [params.branching * i + 1 + k for k in range(params.branching)]
        parent = (i - 1) // params.branching if i else 0
        elements: list[dict[str, Any]] = [
            {"id": layout.SEARCH_BOX, "role": "textbox", "name": "Search"},
            {"id": layout.SEARCH_BUTTON, "role": "button", "name": "Search"},
            {"id": layout.HOME, "role": "link", "name": "Home"},
            {"id": layout.UP, "role": "link", "name": "Up one level"},
        ]
        tree = [
            f'RootWebArea "{title}"',
            f'  textbox "Search" [{layout.SEARCH_BOX}]: {{q}}',
            f'  button "Search" [{layout.SEARCH_BUTTON}]',
            f'  link "Home" [{layout.HOME}]',
            f'  link "Up one level" [{layout.UP}]',
        ]
        transitions: list[dict[str, Any]] = [
            {"kind": "type", "element_id": layout.SEARCH_BOX,
             "effect": {"type": "set_state", "key": "q"}},
        ]
        if i == 0:
            for j in range(n):
                transitions.append(
                    {"kind": "click", "element_id": layout.SEARCH_BUTTON,
                     "requires_state": {"q": f"*/{pid(j)}/*"},
                     "effect": {"type": "goto", "page": pid(j)}}
                )
            transitions.append(
                {"kind": "click", "element_id": layout.SEARCH_BUTTON,
                 "effect": {"type": "noop", "error": "No section matches the query."}}
            )
        transitions += [
            {"kind": "click", "element_id": layout.HOME, "effect": {"type": "goto", "page": pid(0)}},
            {"kind": "click", "element_id": layout.UP, "effect": {"type": "goto", "page": pid(parent)}},
        ]
        for k, (element_id, child) in enumerate(zip(layout.sections, children)):
            name = f"Section {_title(rng)}"
            elements.append({"id": element_id, "role": "link", "name": name})
            tree.append(f'  link "{name}" [{element_id}]')
            if child < n:
                effect = {"type": "goto", "page": pid(child)}
            else:
                effect = {"type": "noop", "error": "This section has no subsections."}
            transitions.append({"kind": "click", "element_id": element_id, "effect": effect})
        elements += [
            {"id": layout.note, "role": "textbox", "name": "Note"},
            {"id": layout.apply, "role": "button", "name": "Apply"},
            {"id": layout.compare, "role": "button", "name": "Compare"},
            {"id": layout.status, "role": "statictext", "name": "Status", "interactive": False},
        ]
        tree += [
            f'  textbox "Note" [{layout.note}]: {{note}}',
            f'  button "Apply" [{layout.apply}]',
            f'  button "Compare" [{layout.compare}]',
            f'  statictext "Status" [{layout.status}]: applied={{applied}} reviews={{reviews}}',
        ]
        transitions.append(
            {"kind": "type", "element_id": layout.note, "effect": {"type": "set_state", "key": "note"}}
        )
        apply_effect = {"type": "set_state", "key": "applied", "value": "yes"}
        if guarded[i]:
            transitions.append(
                {"kind": "click", "element_id": layout.apply,
                 "requires_state": {"note": "?*"}, "effect": apply_effect}
            )
            transitions.append(
                {"kind": "click", "element_id": layout.apply,
                 "effect": {"type": "noop", "error": "Add a note before applying."}}
            )
        else:
            transitions.append({"kind": "click", "element_id": layout.apply, "effect": apply_effect})
        for element_id in layout.fillers:
            word = rng.choice(_WORDS)
            if layout.is_tool(element_id):
                name = f"{word.capitalize()} tool"
                elements.append({"id": element_id, "role": "button", "name": name})
                tree.append(f'  button "{name}" [{element_id}]')
                roll = rng.random()
                if roll < params.noop_share / 2:
                    effect = {"type": "noop", "error": f"The {word} tool is unavailable."}
                elif roll < params.noop_share:
                    effect = {"type": "noop"}
                else:
                    effect = {"type": "set_state", "key": f"tool{element_id}", "value": "on"}
                transitions.append({"kind": "click", "element_id": element_id, "effect": effect})
            else:
                name = f"{title} {word} note {rng.randrange(1000)}"
                elements.append(
                    {"id": element_id, "role": "statictext", "name": name, "interactive": False}
                )
                tree.append(f'  statictext "{name}" [{element_id}]')
        below = [
            {"id": layout.next_page, "role": "link", "name": "Next page"},
            {"id": layout.reviews, "role": "button", "name": "Load reviews"},
        ]
        for element_id in range(layout.reviews + 1, layout.elements + params.below_fold + 1):
            below.append(
                {"id": element_id, "role": "statictext",
                 "name": f"Footer {rng.choice(_WORDS)} {rng.randrange(1000)}", "interactive": False}
            )
        transitions += [
            {"kind": "click", "element_id": layout.next_page,
             "effect": {"type": "goto", "page": pid((i + 1) % n)}},
            {"kind": "click", "element_id": layout.reviews,
             "effect": {"type": "set_state", "key": "reviews", "value": "shown"}},
        ]
        pages[pid(i)] = {
            "url": urls[i],
            "tree_template": "\n".join(tree),
            "elements": elements,
            "below_fold": below,
            "transitions": transitions,
        }
    return {"schema_version": 1, "start_page": pid(0), "pages": pages}


def site_depth(params: SiteParams) -> int:
    depth, last = 0, 0
    while last < params.pages - 1:
        last = last * params.branching + params.branching
        depth += 1
    return depth


# ======================================================================
# oracle script
# ======================================================================

def _prose(reply: dict[str, Any]) -> str:
    body = json.dumps(reply, ensure_ascii=False, indent=1)
    return f"Sure, here is my answer.\n```json\n{body}\n```\nLet me know if anything is unclear."


def _action(kind: str, element_id: int | None, value: str, lli: str, summary: str) -> dict[str, Any]:
    return {
        "state_observation_summary": summary,
        "reasoning": f"The task needs this step next: {lli}. No STOP condition applies.",
        "next_action": {
            "low-level_instruction": lli,
            "action": {"type": kind, "element_id": "" if element_id is None else element_id,
                       "value": value},
        },
    }


def _answer() -> dict[str, Any]:
    return _action("none", None, "Answer for {{high_level_task}}", "Report the answer",
                   "The requested information is on screen.")


def _path(layout: Layout) -> list[dict[str, Any]]:
    """The eleven non-terminal steps a long trajectory takes from the home page."""
    return [
        _action("type", layout.SEARCH_BOX, "{{high_level_task}}", "Search for the target section",
                "Home page with a search box."),
        _action("click", layout.SEARCH_BUTTON, "", "Run the search", "The query is typed."),
        _action("scroll", None, "down", "Scroll to the page footer", "Target section page."),
        _action("click", layout.reviews, "", "Load the reviews", "Footer controls are visible."),
        _action("type", layout.note, NOTE_TEXT, "Write a short note", "Reviews are shown."),
        _action("click", layout.apply, "", "Apply the note", "The note is typed."),
        _action("click", layout.compare, "", "Compare the items", "The note is applied."),
        _action("click", layout.sections[0], "", "Open the first subsection", "Nothing changed."),
        _action("scroll", None, "down", "Scroll to the footer", "A subsection page."),
        _action("click", layout.next_page, "", "Go to the next page", "Footer is visible."),
        _action("go_back", None, "", "Go back", "The next page is open."),
    ]


_LENGTH_STEPS = {"short": 4, "medium": 7, "long": 11}
REWRITE_AFTER = 4  # the rewrite lands on the check after the fourth step


def _revised_steps(layout: Layout) -> list[dict[str, Any]]:
    return [
        _action("click", layout.UP, "", "Go up one level", "The task was rewritten."),
        _action("scroll", None, "down", "Scroll to the footer", "The parent section."),
    ]


def _violation() -> dict[str, Any]:
    # Missing "reasoning": the client re-asks and the next series entry answers.
    return {"state_observation_summary": "Page loaded.", "next_action": {"action": {"type": "scroll"}}}


def _series(entries: list[Any], prose_share: float, offset: int) -> list[Any]:
    flags = _exact_flags(len(entries) + offset, prose_share)[offset:]
    return [_prose(e) if flag and isinstance(e, dict) else e for e, flag in zip(entries, flags)]


def trajectory_length(features: dict[str, Any]) -> int:
    if features["rewrite"]:
        return REWRITE_AFTER + 3  # two revised steps and the answer
    return _LENGTH_STEPS[features["length"]] + 1


def _judge_reply(k: int, decision: str) -> dict[str, Any]:
    reply = {
        "task": "{{high_level_task}}",
        "score": {"keep": 88, "refine": 71, "drop": 22}[decision],
        "decision": decision,
        "order": list(range(k)),
        "modify_end": False,
        "append_end": False,
        "final_none_value": "Answer for {{high_level_task}}",
        "drop_reason": "",
        "modification_reason": "",
    }
    if decision == "refine":
        reply["order"] = [i for i in range(k) if i != 2]
        reply["modification_reason"] = "Dropped a step that only scrolled."
    elif decision == "drop":
        reply.update(order=[], final_none_value="",
                     drop_reason="The trajectory wanders before answering.")
    return reply


def generate_script(seed: int, site: SiteParams, params: ScriptParams) -> dict[str, Any]:
    """Return a mock-script document whose rule count does not depend on page count."""
    layout = Layout(site.branching, site.elements)
    rng = random.Random(f"script:{seed}")
    features = slot_features(params)
    uninteractive = [layout.status]
    sections = [
        {"action": "click", "element_id": element_id, "value": "",
         "low-level_instruction": f"Open section link {k + 1} on {{{{url}}}}"}
        for k, element_id in enumerate(layout.sections)
    ]
    tools = [
        {"action": "type", "element_id": layout.SEARCH_BOX, "value": rng.choice(_WORDS),
         "low-level_instruction": "Type a query into the search box"},
        {"action": "click", "element_id": layout.SEARCH_BUTTON, "value": "",
         "low-level_instruction": "Click the search button"},
        {"action": "click", "element_id": layout.HOME, "value": "",
         "low-level_instruction": "Click the home link"},
        {"action": "click", "element_id": layout.UP, "value": "",
         "low-level_instruction": "Click the up link"},
        {"action": "type", "element_id": layout.note, "value": NOTE_TEXT,
         "low-level_instruction": "Type a note"},
        {"action": "click", "element_id": layout.apply, "value": "",
         "low-level_instruction": "Click the apply button"},
        {"action": "click", "element_id": layout.compare, "value": "",
         "low-level_instruction": "Click the compare button"},
    ]
    for element_id in layout.fillers:
        if layout.is_tool(element_id):
            tools.append({"action": "click", "element_id": element_id, "value": "",
                          "low-level_instruction": f"Click tool {element_id}"})
        else:
            uninteractive.append(element_id)
    categorize = {
        "Analysis": "Section links lead deeper into the site; the rest are page tools.",
        "Categorization": {
            "Section links": sections,
            "Page tools": tools,
            "uninteractive_elements": uninteractive,
        },
    }
    rules: list[dict[str, Any]] = [
        {"template": "categorize", "reply": _prose(categorize) if params.prose_share else categorize},
        {"template": "propose_task", "when": {"current_action_str": "Open section link 1 on *y1"},
         "reply": {"Sub-Instruction": "Open the first section link.",
                   "Analysis": "Site navigation into a subsection.",
                   "High-Level-Instruction": "Review the section reached by: {{current_action_str}}"}},
        {"template": "propose_task",
         "reply": {"Sub-Instruction": "Use a page control.",
                   "Analysis": "Information seeking across the catalogue.",
                   "High-Level-Instruction": FALLBACK_TASK}},
    ]
    path = _path(layout)
    for s, feat in enumerate(features):
        pattern = f"*/v{s}/*"
        if feat["rewrite"]:
            revised = pattern + REVISED_SUFFIX
            rules.append({"template": "next_action", "when": {"high_level_task": revised},
                          "scope": "high_level_task",
                          "replies": _series(_revised_steps(layout) + [_answer()],
                                             params.prose_share, s)})
            rules.append({"template": "refine_task",
                          "when": {"current_high_level_task": revised},
                          "reply": {"Analysis": "The rewritten task fits the page.",
                                    "Need-to-Refine": "no", "High-Level-Task": ""}})
            checks = [{"Analysis": "Progress is visible.", "Need-to-Refine": "no",
                       "High-Level-Task": ""}] * (REWRITE_AFTER - 1)
            checks.append({"Analysis": "The section has no such detail; downscope the goal.",
                           "Need-to-Refine": "yes",
                           "High-Level-Task": "{{current_high_level_task}}" + REVISED_SUFFIX})
            rules.append({"template": "refine_task", "when": {"current_high_level_task": pattern},
                          "scope": "current_high_level_task", "replies": checks})
            rules.append({"template": "refine_trajectory", "when": {"high_level_task": revised},
                          "reply": _judge_reply(trajectory_length(feat), feat["decision"])})
            steps = path[:REWRITE_AFTER]
        else:
            steps = path[: _LENGTH_STEPS[feat["length"]]] + [_answer()]
        entries: list[Any] = list(steps)
        if feat["reask"]:
            entries.insert(3, _action("click", 999, "", "Open the reviews tab", "Footer visible."))
        if feat["violation"]:
            entries.insert(2, _violation())
        rules.append({"template": "next_action", "when": {"high_level_task": pattern},
                      "scope": "high_level_task",
                      "replies": _series(entries, params.prose_share, s)})
        rules.append({"template": "refine_trajectory", "when": {"high_level_task": pattern},
                      "reply": _judge_reply(trajectory_length(feat), feat["decision"])})
    rules += [
        {"template": "next_action", "scope": "high_level_task",
         "replies": [_action("scroll", None, "down", "Scroll the page", "Any page."), _answer()]},
        {"template": "refine_task",
         "reply": {"Analysis": "The task remains consistent with the page.",
                   "Need-to-Refine": "no", "High-Level-Task": ""}},
        {"template": "refine_trajectory", "reply": _judge_reply(2, "keep")},
        {"template": "judge_diversity",
         "reply": {"score": 70, "subscores": {"intent_variety": 15, "action_diversity": 20,
                                              "goal_coverage": 20, "redundancy_minimization": 15},
                   "analysis": "Tasks cover many sections with similar intents.",
                   "representative_examples": [FALLBACK_TASK]}},
        {"template": "judge_quality", "reply": {"score": 75, "analysis": "Coherent."}},
    ]
    for rule in rules:
        prompt, completion = params.usage[rule["template"]]
        rule["usage"] = {"prompt_tokens": prompt, "completion_tokens": completion}
    return {"schema_version": 1, "default_usage": {"prompt_tokens": 1000, "completion_tokens": 100},
            "rules": rules}
