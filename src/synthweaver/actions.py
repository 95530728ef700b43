"""The ten atomic browser interactions and their bracketed wire grammar."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidAction, MalformedAction


class ActionKind(str, Enum):
    """Interaction kinds; values double as wire keywords."""

    CLICK = "click"
    TYPE = "type"
    HOVER = "hover"
    PRESS = "press"
    SCROLL = "scroll"
    GOTO = "goto"
    GO_BACK = "go_back"
    GO_FORWARD = "go_forward"
    NONE = "none"
    STOP = "stop"


# The bracketed arguments, or slots, of the wire grammar.
ELEMENT = "element"  # a non-negative integer element id
VALUE = "value"  # a value that may be empty
TEXT = "text"  # a value that must not be empty


# The grammar: each kind's bracketed arguments in wire order. The check every
# Action passes when it is made, the parser and the renderer derive from it.
SLOTS: dict[ActionKind, tuple[str, ...]] = {
    ActionKind.CLICK: (ELEMENT,),
    ActionKind.TYPE: (ELEMENT, TEXT),
    ActionKind.HOVER: (ELEMENT,),
    ActionKind.PRESS: (VALUE,),
    ActionKind.SCROLL: (TEXT,),
    ActionKind.GOTO: (TEXT,),
    ActionKind.GO_BACK: (),
    ActionKind.GO_FORWARD: (),
    ActionKind.NONE: (TEXT,),
    ActionKind.STOP: (TEXT,),
}

# Kinds that target an element; all others must not carry an element id.
ELEMENT_KINDS = frozenset(kind for kind, slots in SLOTS.items() if ELEMENT in slots)

SCROLL_DIRECTIONS = ("up", "down")


@dataclass(frozen=True)
class Action:
    """One atomic browser interaction; one that breaks the grammar cannot be
    made (InvalidAction).

    low_level_instruction is an annotation for prompts and logs; it is
    excluded from equality so the wire round-trip is the identity.
    """

    kind: ActionKind
    element_id: int | None = None
    value: str = ""
    low_level_instruction: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        kind, element_id, value = self.kind, self.element_id, self.value
        if not isinstance(kind, ActionKind):
            raise InvalidAction(f"unknown action kind: {kind!r}")
        slots = SLOTS[kind]
        if ELEMENT in slots:
            if not isinstance(element_id, int) or isinstance(element_id, bool):
                raise InvalidAction(f"{kind.value} requires an integer element_id")
            if element_id < 0:
                raise InvalidAction("element_id must be non-negative")
        elif element_id is not None:
            raise InvalidAction(f"{kind.value} must not carry an element_id")
        if not isinstance(value, str):
            raise InvalidAction("value must be a string")
        if "]" in value:
            # No escaping exists in the wire grammar.
            raise InvalidAction("value must not contain ']'")
        if not value and TEXT in slots:
            raise InvalidAction(f"{kind.value} requires a non-empty value")
        if value and TEXT not in slots and VALUE not in slots:
            raise InvalidAction(f"{kind.value} carries no value slot")
        if kind is ActionKind.SCROLL and value not in SCROLL_DIRECTIONS:
            raise InvalidAction("scroll value must be 'up' or 'down'")


_ARGUMENTS = {
    kind: re.compile(r"\s*".join([r"\[([^\]]*)\]"] * len(slots)), re.DOTALL)
    for kind, slots in SLOTS.items()
}
_FORMATS = {
    kind: " ".join([kind.value] + ["[{0}]" if slot == ELEMENT else "[{1}]" for slot in slots])
    for kind, slots in SLOTS.items()
}

_HEAD = re.compile(r"([a-z_]+)(?:\s+(.*))?", re.DOTALL)


def parse_action(text: str, low_level_instruction: str = "") -> Action:
    """Parse a wire string into an Action; raise MalformedAction otherwise."""
    if not isinstance(text, str):
        raise MalformedAction(f"action must be a string, got {type(text).__name__}")
    head = _HEAD.fullmatch(text.strip())
    if head is None:
        raise MalformedAction(f"unrecognized action syntax: {text!r}")
    kind_word, rest = head.group(1), head.group(2) or ""
    try:
        kind = ActionKind(kind_word)
    except ValueError:
        raise MalformedAction(f"unknown action kind: {kind_word!r}") from None
    args = _ARGUMENTS[kind].fullmatch(rest)
    if args is None:
        raise MalformedAction(f"arguments do not match the {kind.value} grammar: {text!r}")

    element_id: int | None = None
    value = ""
    for slot, raw in zip(SLOTS[kind], args.groups()):
        if slot != ELEMENT:
            value = raw
        elif raw.isascii() and raw.isdigit():
            element_id = int(raw)
        else:
            raise MalformedAction(f"element_id must be a non-negative integer: {raw!r}")
    try:
        return Action(kind=kind, element_id=element_id, value=value,
                      low_level_instruction=low_level_instruction)
    except InvalidAction as exc:
        raise MalformedAction(str(exc)) from None


def render_action(action: Action) -> str:
    """Render an Action to its canonical wire string."""
    return _FORMATS[action.kind].format(action.element_id, action.value)


def make_action(
    kind: ActionKind | str,
    element_id: int | None = None,
    value: str = "",
    low_level_instruction: str = "",
) -> Action:
    """Build an Action from loosely typed parts: `kind` may be a wire word."""
    if not isinstance(kind, ActionKind):
        try:
            kind = ActionKind(str(kind).strip().lower())
        except ValueError:
            raise InvalidAction(f"unknown action kind: {kind!r}") from None
    return Action(kind, element_id, value, low_level_instruction)
