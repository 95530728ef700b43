"""Deterministic site-graph simulator behind the browser-environment interface.

A site graph is a JSON file describing pages, their elements, and the
transitions actions cause. Sessions expose observe/execute/close, the same
surface the live-browser adapter implements, so the pipeline never knows
which backend it is driving.

Both backends read a page state once: `observe()` returns one object until
the next action. An action changed the page when its views differ.
The simulator goes further: its sessions share one memo per `SiteGraph`, so
every session of a graph, on any thread, returns the same `Observation` for
the same page state, and a `goto` looks its target up in a table built once
per state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any

from .actions import Action, ActionKind, ELEMENT_KINDS
from .errors import ElementNotFound, SchemaError
from .model import (
    Element, Observation, check_schema_version, observation_fingerprint, read_json_file,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GotoEffect:
    page: str
    set_state: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class SetStateEffect:
    key: str
    value: str | None = None  # None: take the action's typed value


@dataclass(frozen=True)
class NoopEffect:
    error: str | None = None


Effect = GotoEffect | SetStateEffect | NoopEffect


@dataclass(frozen=True)
class TransitionSpec:
    """Matches (element_id, kind, value pattern) with optional state guards."""

    kind: ActionKind
    element_id: int | None
    effect: Effect
    value_pattern: str = "*"
    requires_state: tuple[tuple[str, str], ...] = ()


_PLACEHOLDER = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


@dataclass(frozen=True)
class PageSpec:
    url: str
    tree_template: str
    elements: tuple[Element, ...]
    transitions: tuple[TransitionSpec, ...] = ()
    below_fold: tuple[Element, ...] = ()
    # The state keys the page's url and tree show, in order of appearance.
    shown_keys: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        keys = _PLACEHOLDER.findall(self.url) + _PLACEHOLDER.findall(self.tree_template)
        object.__setattr__(self, "shown_keys", tuple(dict.fromkeys(keys)))


# What a page state shows: the page id, the values of the state keys the page
# shows, and whether elements below its fold are revealed.
ViewKey = tuple[str, tuple[str, ...], bool]


@dataclass(frozen=True)
class SiteGraph:
    """A loaded site graph and the memos its sessions share.

    `view` builds the `Observation` of each page state once, and `route` the
    url -> page table of each state once, so every session of the graph gets
    the same objects. A view is keyed on what the page shows, so states that
    differ only in a value the page does not show share one object, and the
    memo holds about the set of observations the run's `observations.jsonl`
    stores. A graph is loaded once per site per stage, so the memos live for
    one stage. Threads share them without a lock: a `setdefault` keeps the
    first writer's entry, and a losing thread's object equals it.
    """

    pages: dict[str, PageSpec]
    start_page: str
    _views: dict[ViewKey, Observation] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    _routes: dict[tuple[tuple[str, str], ...], dict[str, str]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def view(self, page_id: str, state: dict[str, str], scrolled: bool) -> Observation:
        """The observation of one page state, built on its first request."""
        page = self.pages[page_id]
        # A missing key reads as "", as in `_substitute`.
        shown = tuple(state.get(name, "") for name in page.shown_keys)
        key = (page_id, shown, scrolled and bool(page.below_fold))
        obs = self._views.get(key)
        if obs is None:
            obs = self._views.setdefault(key, _build_view(page, state, scrolled))
        return obs

    def route(self, url: str, state: dict[str, str]) -> str | None:
        """The first page, in file order, whose url under `state` is `url`."""
        key = tuple(sorted(state.items()))
        table = self._routes.get(key)
        if table is None:
            table = {}
            for page_id, page in self.pages.items():
                table.setdefault(_substitute(page.url, state), page_id)
            table = self._routes.setdefault(key, table)
        return table.get(url)


@dataclass(frozen=True)
class TransitionOutcome:
    """changed is True iff the view (url, tree, elements) differs before/after."""

    changed: bool
    error: str | None = None


def _substitute(template: str, state: dict[str, str]) -> str:
    # Unknown keys render as the empty string.
    return _PLACEHOLDER.sub(lambda m: state.get(m.group(1), ""), template)


def _build_view(page: PageSpec, state: dict[str, str], scrolled: bool) -> Observation:
    tree = _substitute(page.tree_template, state)
    elements = page.elements
    if scrolled and page.below_fold:
        # The revealed elements are appended to both the list and the tree.
        extra = "\n".join(f'  {e.role} "{e.name}" [{e.id}]' for e in page.below_fold)
        tree = f"{tree}\n{extra}" if tree else extra
        elements = elements + page.below_fold
    return Observation(
        url=_substitute(page.url, state), accessibility_tree=tree, elements=elements
    )


class SimulatorSession:
    """Single-owner, fully deterministic session over one SiteGraph.

    The graph is trusted: load_site_graph checked it when it was built. An
    action on an element may name only an element of the current observation.
    `observe()` keeps the session's observation until the next action, and
    then asks the graph, which returns the object every session of that
    graph gets for the same page state.
    """

    def __init__(self, graph: SiteGraph):
        self._graph = graph
        self._observation: Observation | None = None
        self._history: list[str] = [graph.start_page]
        self._position = 0
        self.state: dict[str, str] = {}
        self.scrolled = False

    @property
    def current_page(self) -> str:
        return self._history[self._position]

    def observe(self) -> Observation:
        if self._observation is None:
            self._observation = self._graph.view(self.current_page, self.state, self.scrolled)
        return self._observation

    def execute(self, action: Action) -> TransitionOutcome:
        before = self.observe()
        if action.kind in ELEMENT_KINDS and not before.has_element(action.element_id):
            raise ElementNotFound(
                f"element {action.element_id} not in current view of {self.current_page}"
            )
        error = self._apply(action)
        changed = observation_fingerprint(before) != observation_fingerprint(self.observe())
        return TransitionOutcome(changed=changed, error=error)

    def close(self) -> None:
        """Nothing to release; present so every session can be closed."""

    # internal

    def _apply(self, action: Action) -> str | None:
        self._observation = None
        kind = action.kind
        if kind is ActionKind.GO_BACK:
            if self._position > 0:
                self._position -= 1
                self.scrolled = False
            return None
        if kind is ActionKind.GO_FORWARD:
            if self._position < len(self._history) - 1:
                self._position += 1
                self.scrolled = False
            return None
        if kind is ActionKind.GOTO:
            page_id = self._graph.route(action.value, self.state)
            if page_id is None:
                return f"no route to {action.value}"
            self._navigate(page_id)
            return None
        # Any other kind: an explicit transition first, then scroll's
        # built-in effect.
        spec = self._find_transition(action)
        if spec is not None:
            return self._apply_effect(spec.effect, action)
        if kind is ActionKind.SCROLL:
            self.scrolled = action.value == "down"
        return None

    def _navigate(self, page_id: str) -> None:
        # New navigation truncates the forward part of the stack.
        self._history = self._history[: self._position + 1] + [page_id]
        self._position += 1
        self.scrolled = False

    def _find_transition(self, action: Action) -> TransitionSpec | None:
        page = self._graph.pages[self.current_page]
        for spec in page.transitions:
            if spec.kind is not action.kind or spec.element_id != action.element_id:
                continue
            if not fnmatchcase(action.value, spec.value_pattern):
                continue
            if all(
                fnmatchcase(self.state.get(key, ""), pattern)
                for key, pattern in spec.requires_state
            ):
                return spec
        return None

    def _apply_effect(self, effect: Effect, action: Action) -> str | None:
        if isinstance(effect, GotoEffect):
            for key, value in effect.set_state:
                self.state[key] = value
            self._navigate(effect.page)
            return None
        if isinstance(effect, SetStateEffect):
            self.state[effect.key] = effect.value if effect.value is not None else action.value
            return None
        return effect.error


# ======================================================================
# Site-graph file loading
# ======================================================================

def load_site_graph(path: str | Path) -> SiteGraph:
    """Load and validate a site-graph JSON file; SchemaError on any defect.

    One walk over the file builds the graph and checks it. Page ids are the
    keys of the `pages` object, so `start_page` and `goto` targets are checked
    against them as the walk meets them.
    """
    raw = read_json_file(path)
    try:
        return _parse_graph(raw)
    except SchemaError as exc:
        raise SchemaError(str(exc), path=str(path)) from None


def _parse_graph(raw: dict[str, Any]) -> SiteGraph:
    check_schema_version(raw, SCHEMA_VERSION)
    pages_raw = raw.get("pages")
    if not isinstance(pages_raw, dict) or not pages_raw:
        raise SchemaError("must be a non-empty object", field="pages")
    start = raw.get("start_page")
    if not isinstance(start, str) or start not in pages_raw:
        raise SchemaError(f"start_page {start!r} is not a page", field="start_page")
    pages = {
        page_id: _parse_page(f"pages.{page_id}", page_raw, pages_raw)
        for page_id, page_raw in pages_raw.items()
    }
    return SiteGraph(pages=pages, start_page=start)


def _list(raw: dict[str, Any], key: str, loc: str) -> list[Any]:
    """An optional list field of the object at `loc`; absent reads as empty."""
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise SchemaError("must be a list", field=f"{loc}.{key}")
    return value


def _parse_page(loc: str, raw: Any, page_ids: dict[str, Any]) -> PageSpec:
    if not isinstance(raw, dict):
        raise SchemaError("page must be an object", field=loc)
    url = raw.get("url")
    if not isinstance(url, str) or not url:
        raise SchemaError("must be a non-empty string", field=f"{loc}.url")
    template = raw.get("tree_template", "")
    if not isinstance(template, str):
        raise SchemaError("must be a string", field=f"{loc}.tree_template")
    ids: set[int] = set()  # the page's element ids, above and below the fold
    elements = tuple(
        _parse_element(f"{loc}.elements[{i}]", e, ids)
        for i, e in enumerate(_list(raw, "elements", loc))
    )
    below = tuple(
        _parse_element(f"{loc}.below_fold[{i}]", e, ids)
        for i, e in enumerate(_list(raw, "below_fold", loc))
    )
    if not ids:
        raise SchemaError("page has no elements", field=loc)
    transitions = tuple(
        _parse_transition(f"{loc}.transitions[{i}]", t, ids, page_ids)
        for i, t in enumerate(_list(raw, "transitions", loc))
    )
    return PageSpec(
        url=url,
        tree_template=template,
        elements=elements,
        transitions=transitions,
        below_fold=below,
    )


def _parse_element(loc: str, raw: Any, ids: set[int]) -> Element:
    """One element; its id must be new to `ids`, which it is added to."""
    if not isinstance(raw, dict):
        raise SchemaError("element must be an object", field=loc)
    element_id = raw.get("id")
    if type(element_id) is not int:
        raise SchemaError("element id must be an integer", field=loc)
    if element_id < 0:
        raise SchemaError(f"negative element id {element_id}", field=loc)
    if element_id in ids:
        raise SchemaError(f"duplicate element id {element_id}", field=loc)
    ids.add(element_id)
    element = Element(
        id=element_id,
        role=str(raw.get("role", "")),
        name=str(raw.get("name", "")),
        interactive=bool(raw.get("interactive", True)),
    )
    if element.interactive and not (element.role or element.name):
        raise SchemaError(f"interactive element {element_id} has neither role nor name", field=loc)
    return element


_SESSION_KINDS = frozenset((ActionKind.GOTO, ActionKind.GO_BACK, ActionKind.GO_FORWARD))


def _parse_transition(
    loc: str, raw: Any, ids: set[int], page_ids: dict[str, Any]
) -> TransitionSpec:
    if not isinstance(raw, dict):
        raise SchemaError("transition must be an object", field=loc)
    kind_raw = raw.get("kind")
    try:
        kind = ActionKind(kind_raw)
    except ValueError:
        raise SchemaError(f"unknown action kind {kind_raw!r}", field=loc) from None
    if kind in _SESSION_KINDS:
        # `_apply` handles these before it looks at transitions.
        raise SchemaError(
            f"kind {kind_raw!r} never fires: the session navigates itself", field=loc
        )
    element_id = raw.get("element_id")
    if element_id is not None and (type(element_id) is not int or element_id not in ids):
        raise SchemaError(f"element_id {element_id!r} is not an element of the page", field=loc)
    requires = raw.get("requires_state", {})
    if not isinstance(requires, dict):
        raise SchemaError("requires_state must be an object", field=loc)
    return TransitionSpec(
        kind=kind,
        element_id=element_id,
        effect=_parse_effect(loc, raw.get("effect"), page_ids),
        value_pattern=str(raw.get("value_pattern", "*")),
        requires_state=tuple(sorted((str(k), str(v)) for k, v in requires.items())),
    )


def _parse_effect(loc: str, raw: Any, page_ids: dict[str, Any]) -> Effect:
    if not isinstance(raw, dict) or "type" not in raw:
        raise SchemaError("effect must be an object with a type", field=loc)
    etype = raw["type"]
    if etype == "goto":
        page = raw.get("page")
        if not isinstance(page, str) or page not in page_ids:
            raise SchemaError(f"goto target {page!r} is not a page", field=loc)
        sets = raw.get("set", {})
        if not isinstance(sets, dict):
            raise SchemaError("goto effect 'set' must be an object", field=loc)
        return GotoEffect(page=page, set_state=tuple(sorted((str(k), str(v)) for k, v in sets.items())))
    if etype == "set_state":
        key = raw.get("key")
        if not isinstance(key, str) or not key:
            raise SchemaError("set_state effect needs a non-empty key", field=loc)
        value = raw.get("value")
        return SetStateEffect(key=key, value=None if value is None else str(value))
    if etype == "noop":
        error = raw.get("error")
        return NoopEffect(error=None if error is None else str(error))
    raise SchemaError(f"unknown effect type {etype!r}", field=loc)
