"""Strict schema validation of oracle replies, into the values the stages keep.

Every reply is validated here, so invalid shapes (duplicate edit indices,
out-of-range scores, inconsistent yes/no fields) are never observable by the
pipeline stages downstream of the oracle client. A parser checks every field
of its template's reply, also those no stage reads, and returns only what
its stage keeps: a page's categories, a task text, a next action, a rewrite
or None, a judgment, a score.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from ..actions import Action, ActionKind, make_action
from ..errors import InvalidAction, SchemaViolation
from .templates import TemplateName, UNINTERACTIVE_CATEGORY


class RefineDecision(str, Enum):
    KEEP = "keep"
    REFINE = "refine"
    DROP = "drop"


@dataclass(frozen=True)
class NextActionReply:
    state_summary: str
    action: Action


class EditEnd(str, Enum):
    """What an edit does to the end of the retained steps."""

    KEEP = "keep"
    MODIFY = "modify"  # the last retained step becomes the final answer
    APPEND = "append"  # a final answer step follows the last retained step


@dataclass(frozen=True)
class Judgment:
    """The judge's verdict on one trajectory, one line of `judgments.jsonl`
    (`dataclasses.asdict`). `order` lists the retained steps by raw index;
    `final_none_value` is the answer a `modify` or `append` end writes, else
    empty; `reason` is a drop's reason, a refine's modification reason, or
    empty for a keep. A parsed reply names no trajectory: its `site` and
    `trajectory_id` are empty until the refiner fills them."""

    site: str
    trajectory_id: str
    decision: RefineDecision
    score: int | None
    order: tuple[int, ...] = ()
    end: EditEnd = EditEnd.KEEP
    final_none_value: str = ""
    reason: str = ""


DIVERSITY_SUBSCORE_KEYS = (
    "intent_variety",
    "action_diversity",
    "goal_coverage",
    "redundancy_minimization",
)


# ======================================================================
# validation helpers
# ======================================================================

def _require(payload: dict[str, Any], key: str) -> Any:
    if key not in payload:
        raise SchemaViolation(f"missing required field {key!r}")
    return payload[key]


def _as_str(value: Any, key: str) -> str:
    if not isinstance(value, str):
        raise SchemaViolation(f"field {key!r} must be a string")
    return value


def _as_int(value: Any, key: str, lo: int | None = None, hi: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaViolation(f"field {key!r} must be an integer")
    if lo is not None and value < lo:
        raise SchemaViolation(f"field {key!r} below {lo}: {value}")
    if hi is not None and value > hi:
        raise SchemaViolation(f"field {key!r} above {hi}: {value}")
    return value


def _as_bool(value: Any, key: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaViolation(f"field {key!r} must be true or false")
    return value


def _yes_no(value: Any, key: str) -> bool:
    text = _as_str(value, key).strip().lower()
    if text == "yes":
        return True
    if text == "no":
        return False
    raise SchemaViolation(f"field {key!r} must be 'yes' or 'no', got {value!r}")


# ======================================================================
# per-template parsers
# ======================================================================

def _parse_categorize(
    payload: dict[str, Any], context: dict[str, Any]
) -> dict[str, tuple[Action, ...]]:
    """Each category's probes; a probe targets an element, so each is a
    click, type or hover."""
    _as_str(_require(payload, "Analysis"), "Analysis")
    raw = _require(payload, "Categorization")
    if not isinstance(raw, dict):
        raise SchemaViolation("Categorization must be an object")
    categories: dict[str, tuple[Action, ...]] = {}
    uninteractive: tuple[int, ...] = ()
    seen_ids: set[int] = set()
    for name, entries in raw.items():
        if name == UNINTERACTIVE_CATEGORY:
            if not isinstance(entries, list):
                raise SchemaViolation(f"{name} must be a list of element ids")
            uninteractive = tuple(_as_int(e, name) for e in entries)
            continue
        if not isinstance(entries, list):
            raise SchemaViolation(f"category {name!r} must be a list")
        parsed = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise SchemaViolation(f"category {name!r} entries must be objects")
            kind = _as_str(_require(entry, "action"), "action")
            element_id = _as_int(_require(entry, "element_id"), "element_id", lo=0)
            value = _as_str(entry.get("value", ""), "value")
            lli = _as_str(entry.get("low-level_instruction", ""), "low-level_instruction")
            try:
                parsed.append(make_action(kind, element_id, value, lli))
            except InvalidAction as exc:
                raise SchemaViolation(f"invalid probe on element {element_id}: {exc}") from None
        categories[name] = tuple(parsed)
    for pid in [p.element_id for c in categories.values() for p in c] + list(uninteractive):
        if pid in seen_ids:
            raise SchemaViolation(f"element {pid} appears in two categories")
        seen_ids.add(pid)
    known = context.get("element_ids")
    if known is not None:
        known_set = set(known)
        phantom = sorted(seen_ids - known_set)
        if phantom:
            raise SchemaViolation(f"categorized element ids not on the page: {phantom}")
        uncovered = sorted(known_set - seen_ids)
        if uncovered:
            raise SchemaViolation(f"page elements left uncategorized: {uncovered}")
    return categories


def _parse_propose_task(payload: dict[str, Any]) -> str:
    """The proposed task, its whitespace collapsed."""
    high = _as_str(_require(payload, "High-Level-Instruction"), "High-Level-Instruction")
    if not high.strip():
        raise SchemaViolation("High-Level-Instruction must be non-empty")
    _as_str(_require(payload, "Sub-Instruction"), "Sub-Instruction")
    _as_str(_require(payload, "Analysis"), "Analysis")
    return " ".join(high.split())


def _parse_next_action(payload: dict[str, Any]) -> NextActionReply:
    summary = _as_str(_require(payload, "state_observation_summary"), "state_observation_summary")
    _as_str(_require(payload, "reasoning"), "reasoning")
    nxt = _require(payload, "next_action")
    if not isinstance(nxt, dict):
        raise SchemaViolation("next_action must be an object")
    lli = _as_str(nxt.get("low-level_instruction", ""), "low-level_instruction")
    raw_action = _require(nxt, "action")
    if not isinstance(raw_action, dict):
        raise SchemaViolation("next_action.action must be an object")
    kind_raw = _as_str(_require(raw_action, "type"), "type")
    element_raw = raw_action.get("element_id", "")
    element_id: int | None
    if element_raw in ("", None):
        element_id = None
    elif isinstance(element_raw, int) and not isinstance(element_raw, bool):
        element_id = element_raw
    else:
        raise SchemaViolation(f"element_id must be an integer or '', got {element_raw!r}")
    value = raw_action.get("value", "")
    if value is None:
        value = ""
    if not isinstance(value, str):
        raise SchemaViolation(f"value must be a string or '', got {value!r}")
    try:
        action = make_action(kind_raw, element_id, value, lli)
    except InvalidAction as exc:
        raise SchemaViolation(f"invalid next action: {exc}") from None
    return NextActionReply(state_summary=summary, action=action)


def _parse_refine_task(payload: dict[str, Any]) -> str | None:
    """The rewritten task, or None when the task needs no rewrite."""
    _as_str(_require(payload, "Analysis"), "Analysis")
    need = _yes_no(_require(payload, "Need-to-Refine"), "Need-to-Refine")
    task = _as_str(_require(payload, "High-Level-Task"), "High-Level-Task")
    if need and not task.strip():
        raise SchemaViolation("Need-to-Refine=yes requires a non-empty High-Level-Task")
    if not need and task.strip():
        raise SchemaViolation("Need-to-Refine=no requires an empty High-Level-Task")
    return task.strip() if need else None


def _parse_refine_trajectory(payload: dict[str, Any], context: dict[str, Any]) -> Judgment:
    """The judgment of a trajectory of `k` steps, with an empty `site` and
    `trajectory_id`."""
    k = context.get("k")
    if not isinstance(k, int):
        raise SchemaViolation("refine_trajectory validation requires trajectory length k")
    task = _as_str(_require(payload, "task"), "task")
    expected = context.get("expected_task")
    if expected is not None and task != expected:
        raise SchemaViolation("task field must match the high-level task exactly")
    score = _as_int(_require(payload, "score"), "score", lo=0, hi=100)
    decision_raw = _as_str(_require(payload, "decision"), "decision").strip().lower()
    try:
        decision = RefineDecision(decision_raw)
    except ValueError:
        raise SchemaViolation(f"decision must be keep/refine/drop, got {decision_raw!r}") from None
    raw_order = _require(payload, "order")
    if not isinstance(raw_order, list):
        raise SchemaViolation("order must be a list of integers")
    order = tuple(_as_int(i, "order") for i in raw_order)
    for i in order:
        if i < 0 or i >= k:
            raise SchemaViolation(f"order index {i} out of range for K={k}")
    if len(set(order)) != len(order):
        raise SchemaViolation("order contains duplicate indices")
    modify_end = _as_bool(_require(payload, "modify_end"), "modify_end")
    append_end = _as_bool(_require(payload, "append_end"), "append_end")
    final_none = _as_str(_require(payload, "final_none_value"), "final_none_value")
    drop_reason = _as_str(_require(payload, "drop_reason"), "drop_reason")
    modification_reason = _as_str(
        _require(payload, "modification_reason"), "modification_reason"
    )
    if modify_end and append_end:
        raise SchemaViolation("modify_end and append_end are mutually exclusive")
    if decision is not RefineDecision.REFINE and (modify_end or append_end):
        raise SchemaViolation("modify_end/append_end apply only to refine")
    if decision is RefineDecision.KEEP and order != tuple(range(k)):
        raise SchemaViolation("keep requires the identity order [0..K-1]")
    if decision is RefineDecision.DROP:
        if order:
            raise SchemaViolation("drop requires an empty order")
        if not drop_reason.strip():
            raise SchemaViolation("drop requires a non-empty drop_reason")
        if final_none.strip():
            raise SchemaViolation("drop requires an empty final_none_value")
    elif not final_none.strip():
        raise SchemaViolation(f"{decision.value} requires a non-empty final_none_value")
    elif modify_end or append_end:
        # The edit makes it the answer of a final `none` step.
        try:
            make_action(ActionKind.NONE, None, final_none)
        except InvalidAction as exc:
            raise SchemaViolation(f"final_none_value: {exc}") from None
    end = EditEnd.MODIFY if modify_end else EditEnd.APPEND if append_end else EditEnd.KEEP
    reasons = {RefineDecision.REFINE: modification_reason, RefineDecision.DROP: drop_reason}
    return Judgment(
        site="",
        trajectory_id="",
        decision=decision,
        score=score,
        order=order,
        end=end,
        final_none_value="" if end is EditEnd.KEEP else final_none,
        reason=reasons.get(decision, ""),
    )


def _parse_diversity(payload: dict[str, Any]) -> dict[str, Any]:
    """`{"score", "subscores"}`."""
    score = _as_int(_require(payload, "score"), "score", lo=0, hi=100)
    raw_sub = _require(payload, "subscores")
    if not isinstance(raw_sub, dict):
        raise SchemaViolation("subscores must be an object")
    if set(raw_sub) != set(DIVERSITY_SUBSCORE_KEYS):
        raise SchemaViolation(
            f"subscores must have exactly the keys {', '.join(DIVERSITY_SUBSCORE_KEYS)}"
        )
    subscores = {key: _as_int(raw_sub[key], key, lo=0, hi=25) for key in DIVERSITY_SUBSCORE_KEYS}
    if sum(subscores.values()) != score:
        raise SchemaViolation("score must equal the sum of the four subscores")
    examples = _require(payload, "representative_examples")
    if not isinstance(examples, list) or not all(isinstance(e, str) for e in examples):
        raise SchemaViolation("representative_examples must be a list of strings")
    _as_str(_require(payload, "analysis"), "analysis")
    return {"score": score, "subscores": subscores}


def _parse_quality(payload: dict[str, Any]) -> int:
    """The score."""
    score = _as_int(_require(payload, "score"), "score", lo=0, hi=100)
    _as_str(_require(payload, "analysis"), "analysis")
    return score


def parse_reply(
    template: TemplateName, payload: Any, context: dict[str, Any] | None = None
) -> Any:
    """Dispatch strict validation for one template's reply payload; return
    what its stage keeps."""
    if not isinstance(payload, dict):
        raise SchemaViolation("reply must be a JSON object")
    context = context or {}
    if template is TemplateName.CATEGORIZE:
        return _parse_categorize(payload, context)
    if template is TemplateName.PROPOSE_TASK:
        return _parse_propose_task(payload)
    if template is TemplateName.NEXT_ACTION:
        return _parse_next_action(payload)
    if template is TemplateName.REFINE_TASK:
        return _parse_refine_task(payload)
    if template is TemplateName.REFINE_TRAJECTORY:
        return _parse_refine_trajectory(payload, context)
    if template is TemplateName.JUDGE_DIVERSITY:
        return _parse_diversity(payload)
    if template is TemplateName.JUDGE_QUALITY:
        return _parse_quality(payload)
    raise SchemaViolation(f"no parser for template {template!r}")
