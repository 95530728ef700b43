"""Simulator semantics: transitions, state, history, scrolling, and schema checks."""
from __future__ import annotations

import json
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from synthweaver import cli
from synthweaver.actions import ActionKind, make_action, parse_action
from synthweaver.environment import SimulatorSession, load_site_graph
from synthweaver.errors import ElementNotFound, SchemaError
from synthweaver.model import observation_fingerprint
from tests.conftest import SHOP_GRAPH, write_config


def graph_file(tmp_path, data: dict):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    return path


MINI = {
    "schema_version": 1,
    "start_page": "a",
    "pages": {
        "a": {
            "url": "https://mini.test/",
            "tree_template": 'RootWebArea "A"\n  button "Go" [1]',
            "elements": [{"id": 1, "role": "button", "name": "Go"}],
            "transitions": [
                {"kind": "click", "element_id": 1, "effect": {"type": "goto", "page": "b"}},
                {"kind": "press", "value_pattern": "ctrl+h",
                 "effect": {"type": "goto", "page": "b"}},
            ],
        },
        "b": {
            "url": "https://mini.test/b",
            "tree_template": 'RootWebArea "B"',
            "elements": [{"id": 2, "role": "link", "name": "Back"}],
            "below_fold": [{"id": 3, "role": "button", "name": "Hidden"}],
            "transitions": [
                {"kind": "click", "element_id": 3,
                 "effect": {"type": "noop", "error": "hidden button is inert"}},
            ],
        },
    },
}


class TestSchema:
    def test_load_shop_graph(self):
        graph = load_site_graph(SHOP_GRAPH)
        assert "home" in graph.pages
        assert graph.start_page == "home"

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_site_graph(tmp_path / "absent.json")

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("### Site simulator"):]
        block = section[section.index("```jsonc\n") + 9 : section.index("\n```\n")]
        path = tmp_path / "readme.site.json"
        path.write_text(re.sub(r"\s//.*", "", block), encoding="utf-8")
        s = SimulatorSession(load_site_graph(path))
        s.execute(parse_action("type [1] [usb cable]"))
        assert s.execute(parse_action("click [2]")).changed
        assert s.observe().url == "https://shop.example.com/search?q=usb cable"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_site_graph(path)

    def test_wrong_schema_version(self, tmp_path):
        data = {**MINI, "schema_version": 2}
        with pytest.raises(SchemaError):
            load_site_graph(graph_file(tmp_path, data))

    def test_unknown_start_page(self, tmp_path):
        data = {**MINI, "start_page": "nowhere"}
        with pytest.raises(SchemaError):
            load_site_graph(graph_file(tmp_path, data))

    def test_duplicate_element_id(self, tmp_path):
        data = json.loads(json.dumps(MINI))
        data["pages"]["a"]["elements"].append({"id": 1, "role": "link", "name": "Dup"})
        with pytest.raises(SchemaError):
            load_site_graph(graph_file(tmp_path, data))

    def test_transition_to_unknown_page(self, tmp_path):
        data = json.loads(json.dumps(MINI))
        data["pages"]["a"]["transitions"][0]["effect"] = {"type": "goto", "page": "ghost"}
        with pytest.raises(SchemaError):
            load_site_graph(graph_file(tmp_path, data))

    def test_transition_on_unknown_element(self, tmp_path):
        data = json.loads(json.dumps(MINI))
        data["pages"]["a"]["transitions"][0]["element_id"] = 42
        with pytest.raises(SchemaError):
            load_site_graph(graph_file(tmp_path, data))


DELETE = object()
T0 = "pages.a.transitions[0]: "

# Each defect the loader rejects, as (the dotted path of an item of MINI, the
# value put there or DELETE, what the message names after the file).
GRAPH_DEFECTS = {
    "schema_version": ("schema_version", 2, "schema_version: "),
    "schema_version_true": ("schema_version", True, "schema_version: True, "),
    "schema_version_float": ("schema_version", 1.0, "schema_version: 1.0, "),
    "schema_version_string": ("schema_version", "1", "schema_version: '1', "),
    "schema_version_null": ("schema_version", None, "schema_version: None, "),
    "pages_not_object": ("pages", [], "pages: "),
    "pages_empty": ("pages", {}, "pages: "),
    "start_page_unknown": ("start_page", "nowhere", "start_page: "),
    "start_page_not_string": ("start_page", ["a"], "start_page: "),
    "page_not_object": ("pages.b", 5, "pages.b: "),
    "url_missing": ("pages.a.url", DELETE, "pages.a.url: "),
    "url_not_string": ("pages.a.url", 5, "pages.a.url: "),
    "tree_template_not_string": ("pages.a.tree_template", 5, "pages.a.tree_template: "),
    "element_not_object": ("pages.a.elements.0", "Go", "pages.a.elements[0]: "),
    "element_id_missing": ("pages.a.elements.0.id", DELETE, "pages.a.elements[0]: "),
    "element_id_bool": ("pages.a.elements.0.id", True, "pages.a.elements[0]: "),
    "element_id_duplicate": (
        "pages.b.below_fold.0.id", 2, "pages.b.below_fold[0]: duplicate element id 2"
    ),
    "element_id_negative": (
        "pages.a.elements.0.id", -1, "pages.a.elements[0]: negative element id -1"
    ),
    "element_without_role_or_name": (
        "pages.a.elements.0", {"id": 1}, "pages.a.elements[0]: interactive element 1"
    ),
    "page_without_elements": ("pages.a.elements", [], "pages.a: page has no elements"),
    "elements_not_list": ("pages.a.elements", 5, "pages.a.elements: must be a list"),
    "below_fold_not_list": ("pages.b.below_fold", {"id": 3}, "pages.b.below_fold: must be a list"),
    "transitions_not_list": ("pages.a.transitions", 7, "pages.a.transitions: must be a list"),
    "transitions_null": ("pages.a.transitions", None, "pages.a.transitions: must be a list"),
    "transition_not_object": ("pages.a.transitions.0", "click", T0),
    "kind_unknown": ("pages.a.transitions.0.kind", "fly", T0),
    "kind_not_string": ("pages.a.transitions.0.kind", ["click"], T0),
    "kind_goto": ("pages.a.transitions.0.kind", "goto", T0 + "kind 'goto' never fires"),
    "kind_go_back": ("pages.a.transitions.0.kind", "go_back", T0 + "kind 'go_back' never fires"),
    "kind_go_forward": (
        "pages.a.transitions.0.kind", "go_forward", T0 + "kind 'go_forward' never fires"
    ),
    "element_id_not_on_page": ("pages.a.transitions.0.element_id", 3, T0 + "element_id 3"),
    "element_id_not_int": ("pages.a.transitions.0.element_id", "1", T0 + "element_id '1'"),
    "requires_state_not_object": ("pages.a.transitions.0.requires_state", ["q"], T0),
    "effect_missing": ("pages.a.transitions.0.effect", DELETE, T0),
    "effect_type_unknown": ("pages.a.transitions.0.effect.type", "teleport", T0),
    "goto_target_unknown": ("pages.a.transitions.0.effect.page", "ghost", T0),
    "goto_target_not_string": ("pages.a.transitions.0.effect.page", ["b"], T0),
    "goto_set_not_object": ("pages.a.transitions.0.effect.set", ["q"], T0),
    "set_state_key_empty": ("pages.a.transitions.0.effect", {"type": "set_state", "key": ""}, T0),
    "set_state_key_missing": ("pages.a.transitions.0.effect", {"type": "set_state"}, T0),
}


def defective(where: str, value) -> dict:
    """A copy of MINI with the item at the dotted path `where` set to `value`
    (or deleted); a numeric part indexes a list."""
    data = json.loads(json.dumps(MINI))
    *parents, last = [int(part) if part.isdigit() else part for part in where.split(".")]
    node = data
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return data


@pytest.mark.parametrize("where,value,names", GRAPH_DEFECTS.values(), ids=GRAPH_DEFECTS.keys())
def test_every_graph_defect_is_a_schema_error_naming_file_and_field(tmp_path, where, value, names):
    path = graph_file(tmp_path, defective(where, value))
    with pytest.raises(SchemaError) as info:
        load_site_graph(path)
    assert str(info.value).startswith(f"{path}: {names}")


def test_graph_defect_exits_2(capsys, tmp_path):
    path = graph_file(tmp_path, defective("pages.a.transitions", None))
    config = write_config(tmp_path, sites=[{"name": "mini", "graph": str(path)}])
    assert cli.main(["explore", "--config", str(config), "--run", "r"]) == cli.EXIT_USAGE
    assert f"{path}: pages.a.transitions: must be a list" in capsys.readouterr().err
    run = tmp_path / "runs" / "r"
    assert not (run / "ledger.json").exists()
    assert not (run / "events.jsonl").exists()


class TestShopSession:
    def test_start_observation(self, shop_session):
        o = shop_session.observe()
        assert o.url == "https://shop.example.com/"
        assert o.has_element(1) and o.has_element(5)
        assert not o.has_element(7)  # below the fold until a scroll

    def test_type_sets_state_and_changes_tree(self, shop_session):
        before = shop_session.observe()
        out = shop_session.execute(make_action(ActionKind.TYPE, 1, "usb cable"))
        assert out.changed and out.error is None
        after = shop_session.observe()
        assert "usb cable" in after.accessibility_tree
        assert observation_fingerprint(before) != observation_fingerprint(after)

    def test_guarded_transition_blocks_until_state_set(self, shop_session):
        out = shop_session.execute(make_action(ActionKind.CLICK, 2))
        assert out.error == "Please enter a search query first."
        assert shop_session.observe().url == "https://shop.example.com/"
        shop_session.execute(make_action(ActionKind.TYPE, 1, "usb cable"))
        out = shop_session.execute(make_action(ActionKind.CLICK, 2))
        assert out.changed and out.error is None
        assert shop_session.observe().url == "https://shop.example.com/search?q=usb cable"

    def test_login_flow_reaches_account(self, shop_session):
        s = shop_session
        s.execute(make_action(ActionKind.CLICK, 5))
        out = s.execute(make_action(ActionKind.CLICK, 43))
        assert out.error == "Enter both username and password."
        s.execute(make_action(ActionKind.TYPE, 41, "demo"))
        s.execute(make_action(ActionKind.TYPE, 42, "hunter2"))
        out = s.execute(make_action(ActionKind.CLICK, 43))
        assert out.changed and out.error is None
        o = s.observe()
        assert o.url.endswith("/account")
        assert 'Signed in as demo' in o.accessibility_tree

    def test_sign_out_clears_credentials(self, shop_session):
        s = shop_session
        s.execute(make_action(ActionKind.CLICK, 5))
        s.execute(make_action(ActionKind.TYPE, 41, "demo"))
        s.execute(make_action(ActionKind.TYPE, 42, "hunter2"))
        s.execute(make_action(ActionKind.CLICK, 43))
        s.execute(make_action(ActionKind.CLICK, 52))
        assert s.observe().url == "https://shop.example.com/"
        s.execute(make_action(ActionKind.CLICK, 5))
        out = s.execute(make_action(ActionKind.CLICK, 43))
        assert out.error == "Enter both username and password."

    def test_scroll_reveals_below_fold(self, shop_session):
        out = shop_session.execute(make_action(ActionKind.SCROLL, None, "down"))
        assert out.changed
        o = shop_session.observe()
        assert o.has_element(7)
        assert "Daily deals" in o.accessibility_tree
        out = shop_session.execute(make_action(ActionKind.SCROLL, None, "down"))
        assert not out.changed  # already scrolled
        out = shop_session.execute(make_action(ActionKind.SCROLL, None, "up"))
        assert out.changed
        assert not shop_session.observe().has_element(7)

    def test_below_fold_element_invisible_before_scroll(self, shop_session):
        with pytest.raises(ElementNotFound):
            shop_session.execute(make_action(ActionKind.CLICK, 7))
        shop_session.execute(make_action(ActionKind.SCROLL, None, "down"))
        out = shop_session.execute(make_action(ActionKind.CLICK, 7))
        assert out.changed
        assert shop_session.observe().url.endswith("/deals")

    def test_navigation_resets_scroll(self, shop_session):
        shop_session.execute(make_action(ActionKind.SCROLL, None, "down"))
        shop_session.execute(make_action(ActionKind.CLICK, 3))
        o = shop_session.observe()
        assert o.url.endswith("/electronics")
        assert not o.has_element(25)  # electronics fold starts hidden again

    def test_goto_routes_by_substituted_url(self, shop_session):
        out = shop_session.execute(
            make_action(ActionKind.GOTO, None, "https://shop.example.com/electronics")
        )
        assert out.changed and out.error is None
        assert shop_session.observe().url.endswith("/electronics")

    def test_goto_unknown_url_reports_error(self, shop_session):
        out = shop_session.execute(make_action(ActionKind.GOTO, None, "https://elsewhere.test/"))
        assert not out.changed
        assert out.error == "no route to https://elsewhere.test/"

    def test_back_and_forward(self, shop_session):
        s = shop_session
        s.execute(make_action(ActionKind.CLICK, 3))
        s.execute(make_action(ActionKind.CLICK, 22))
        assert s.observe().url.endswith("/product/4k-tv")
        s.execute(make_action(ActionKind.GO_BACK, None))
        assert s.observe().url.endswith("/electronics")
        s.execute(make_action(ActionKind.GO_FORWARD, None))
        assert s.observe().url.endswith("/product/4k-tv")

    def test_navigation_truncates_forward_stack(self, shop_session):
        s = shop_session
        s.execute(make_action(ActionKind.CLICK, 3))
        s.execute(make_action(ActionKind.GO_BACK, None))
        s.execute(make_action(ActionKind.CLICK, 4))  # new branch replaces forward entry
        assert not s.execute(make_action(ActionKind.GO_FORWARD, None)).changed
        assert s.observe().url.endswith("/health")
        s.execute(make_action(ActionKind.GO_BACK, None))
        assert s.observe().url == "https://shop.example.com/"

    def test_back_at_root_is_noop(self, shop_session):
        out = shop_session.execute(make_action(ActionKind.GO_BACK, None))
        assert not out.changed
        assert shop_session.observe().url == "https://shop.example.com/"

    def test_silent_noop_transition(self, shop_session):
        shop_session.execute(make_action(ActionKind.CLICK, 3))
        out = shop_session.execute(make_action(ActionKind.CLICK, 21))
        assert not out.changed and out.error is None



# A typed value that neither the page's url nor its tree shows.
QUIET = {
    "schema_version": 1,
    "start_page": "a",
    "pages": {
        "a": {
            "url": "https://quiet.test/",
            "tree_template": 'RootWebArea "A"\n  textbox "Note" [1]',
            "elements": [{"id": 1, "role": "textbox", "name": "Note"}],
            "transitions": [
                {"kind": "type", "element_id": 1, "effect": {"type": "set_state", "key": "note"}},
            ],
        },
    },
}


class TestObservationMemo:
    """Every session of one graph gets one object per page state."""

    def test_repeated_observe_returns_one_object(self, shop_session):
        first = shop_session.observe()
        assert shop_session.observe() is first

    def test_same_state_is_one_object(self, shop_graph):
        a, b = SimulatorSession(shop_graph), SimulatorSession(shop_graph)
        first = a.observe()
        assert b.observe() is first
        a.execute(parse_action("click [3]"))
        assert SimulatorSession(shop_graph).observe() is first
        b.execute(parse_action("click [3]"))
        b.execute(parse_action("go_back"))
        assert b.observe() is first

    @pytest.mark.parametrize(
        "wire",
        ["click [3]", "type [1] [usb cable]", "scroll [down]",
         "goto [https://shop.example.com/electronics]"],
    )
    def test_every_action_kind_clears_the_memo(self, shop_session, wire):
        """Each kind that changes the page state gives a new object, the one
        a fresh graph builds for that state."""
        first = shop_session.observe()
        shop_session.execute(parse_action(wire))
        after = shop_session.observe()
        assert after is not first
        assert shop_session.observe() is after
        fresh = SimulatorSession(load_site_graph(SHOP_GRAPH))
        fresh.execute(parse_action(wire))
        assert fresh.observe() == after

    @pytest.mark.parametrize(
        "wire",
        ["hover [3]", "press [enter]", "goto [https://nowhere.test/]", "go_back",
         "go_forward", "none [done]", "stop [halt]"],
    )
    def test_no_op_keeps_object(self, shop_session, wire):
        # hover and press have no transition on the start page.
        first = shop_session.observe()
        shop_session.execute(parse_action(wire))
        assert shop_session.observe() is first

    def test_missing_element_keeps_the_object(self, shop_session):
        first = shop_session.observe()
        with pytest.raises(ElementNotFound):
            shop_session.execute(parse_action("click [99]"))
        assert shop_session.observe() is first

    @pytest.mark.parametrize("graph,wire,changed", [
        (QUIET, "type [1] [hello]", False),
        (MINI, "scroll [down]", False),
        (SHOP_GRAPH, "scroll [down]", True),
    ])
    def test_changed_compares_views(self, tmp_path, graph, wire, changed):
        # MINI's start page has nothing below the fold; the shop's home has.
        path = graph if graph is SHOP_GRAPH else graph_file(tmp_path, graph)
        s = SimulatorSession(load_site_graph(path))
        assert s.execute(parse_action(wire)).changed is changed


# Under state q=x, pages "q" and "x" both have the url https://dup.test/x.
DUPLICATE_URLS = {
    "schema_version": 1,
    "start_page": "home",
    "pages": {
        "home": {
            "url": "https://dup.test/",
            "elements": [{"id": 1, "role": "textbox", "name": "Q"}],
            "transitions": [
                {"kind": "type", "element_id": 1, "effect": {"type": "set_state", "key": "q"}},
            ],
        },
        "q": {"url": "https://dup.test/{q}", "elements": [{"id": 2, "role": "link", "name": "Q"}]},
        "x": {"url": "https://dup.test/x", "elements": [{"id": 3, "role": "link", "name": "X"}]},
    },
}


class TestSharedMemo:
    def test_threads_get_one_object_per_state(self):
        # Each round starts 8 threads at once on a fresh graph, so they race
        # to build the same states; a lost `setdefault` shows as two objects.
        script = [parse_action(w) for w in (
            "type [1] [usb cable]", "click [2]", "scroll [down]", "go_back",
            "goto [https://shop.example.com/electronics]", "click [22]",
        )]
        start = threading.Barrier(8, timeout=10)

        def walk(graph):
            session = SimulatorSession(graph)
            start.wait()
            seen = [session.observe()]
            for action in script:
                session.execute(action)
                seen.append(session.observe())
            return seen

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(10):
                    runs = list(pool.map(walk, [load_site_graph(SHOP_GRAPH)] * 8, timeout=10))
                    for run in runs[1:]:
                        assert all(a is b for a, b in zip(run, runs[0], strict=True))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("graph,wire", [(QUIET, "type [1] [hello]"), (MINI, "scroll [down]")])
    def test_what_the_page_does_not_show_keeps_the_object(self, tmp_path, graph, wire):
        # QUIET's page shows no state key; MINI's start page has no fold.
        s = SimulatorSession(load_site_graph(graph_file(tmp_path, graph)))
        first = s.observe()
        s.execute(parse_action(wire))
        assert s.observe() is first

    def test_one_object_per_shown_value(self, tmp_path):
        graph = load_site_graph(graph_file(tmp_path, DUPLICATE_URLS))
        shown = graph.view("q", {"q": "x"}, False)
        assert graph.view("q", {"q": "x", "other": "y"}, True) is shown
        assert graph.view("q", {"q": "y"}, False) is not shown
        # A missing key reads as the empty string.
        assert graph.view("q", {}, False) is graph.view("q", {"q": ""}, False)

    def test_two_loads_share_nothing(self):
        first, second = load_site_graph(SHOP_GRAPH), load_site_graph(SHOP_GRAPH)
        a, b = SimulatorSession(first), SimulatorSession(second)
        a.execute(parse_action("goto [https://shop.example.com/electronics]"))
        b.execute(parse_action("goto [https://shop.example.com/electronics]"))
        assert a.observe() == b.observe()
        assert a.observe() is not b.observe()
        assert first == second  # the memos are not part of a graph's value

    @pytest.mark.parametrize("order,page", [(("home", "q", "x"), "q"), (("home", "x", "q"), "x")])
    def test_goto_takes_the_first_page_in_file_order(self, tmp_path, order, page):
        data = json.loads(json.dumps(DUPLICATE_URLS))
        data["pages"] = {name: data["pages"][name] for name in order}
        graph = load_site_graph(graph_file(tmp_path, data))
        s = SimulatorSession(graph)
        assert s.execute(parse_action("goto [https://dup.test/x]")).error is None
        assert s.current_page == "x"  # under the empty state only "x" matches
        s = SimulatorSession(graph)
        s.execute(parse_action("type [1] [x]"))
        assert s.execute(parse_action("goto [https://dup.test/x]")).error is None
        assert s.current_page == page


class TestMiniGraph:
    def test_press_transition(self, tmp_path):
        graph = load_site_graph(graph_file(tmp_path, MINI))
        s = SimulatorSession(graph)
        out = s.execute(make_action(ActionKind.PRESS, None, "ctrl+h"))
        assert out.changed
        assert s.observe().url == "https://mini.test/b"

    def test_press_without_transition_is_noop(self, tmp_path):
        graph = load_site_graph(graph_file(tmp_path, MINI))
        s = SimulatorSession(graph)
        out = s.execute(make_action(ActionKind.PRESS, None, "ctrl+z"))
        assert not out.changed and out.error is None

    def test_noop_error_effect(self, tmp_path):
        graph = load_site_graph(graph_file(tmp_path, MINI))
        s = SimulatorSession(graph)
        s.execute(make_action(ActionKind.CLICK, 1))
        s.execute(make_action(ActionKind.SCROLL, None, "down"))
        out = s.execute(make_action(ActionKind.CLICK, 3))
        assert not out.changed
        assert out.error == "hidden button is inert"


def test_identical_action_sequences_yield_identical_observations(shop_graph):
    script = [
        make_action(ActionKind.TYPE, 1, "usb cable"),
        make_action(ActionKind.CLICK, 2),
        make_action(ActionKind.CLICK, 61),
        make_action(ActionKind.GO_BACK, None),
        make_action(ActionKind.SCROLL, None, "down"),
    ]

    def run():
        s = SimulatorSession(shop_graph)
        fps = [observation_fingerprint(s.observe())]
        for a in script:
            s.execute(a)
            fps.append(observation_fingerprint(s.observe()))
        return fps

    assert run() == run()
