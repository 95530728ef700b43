"""Live-browser adapter against a fake in-process WebDriver endpoint.

The fake speaks just enough of the W3C REST protocol to exercise the
observe/execute mapping without a real browser. A smoke test against a
real endpoint runs only when SYNTHWEAVER_WEBDRIVER_URL is set.
"""
from __future__ import annotations

import base64
import hashlib
import json
import os
import re
import shutil
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from synthweaver import cli, pipeline
from synthweaver.actions import Action, ActionKind, parse_action
from synthweaver.browser import BrowserSession, key_sequence
from synthweaver.collector import Collector
from synthweaver.config import BrowserSettings, parse_config
from synthweaver.errors import (
    ConnectFailed,
    ElementNotFound,
    InvalidAction,
    ProtocolError,
)
from synthweaver.model import Task
from synthweaver.runstore import RunStore
from tests.conftest import make_client

PNG = b"\x89PNG-not-really-but-bytes"


class FakeBrowser:
    """Mutable page state behind the fake endpoint; each new session starts
    on a fresh page, as a new browser profile does."""

    def __init__(self) -> None:
        self.new_page()
        self.log: list[tuple[str, str, object]] = []
        self.stale_ids: set[int] = set()
        self.fail_click = False
        self.fail_rect = False
        self.fail_url = False
        # When set, every request from the fail_from-th logged one on gets a 500.
        self.fail_from: int | None = None
        # A POST whose path ends with a key gets its (status, whole body) instead.
        self.canned: dict[str, tuple[int, object]] = {}

    def new_page(self) -> None:
        self.url = "about:blank"
        self.title = "Fake"
        self.elements = [
            {"id": 1, "role": "button", "name": "Add", "interactive": True, "below": False},
            {"id": 2, "role": "textbox", "name": "Search box", "interactive": True, "below": False},
            {"id": 3, "role": "heading", "name": "Welcome", "interactive": False, "below": False},
            {"id": 4, "role": "link", "name": "Footer link", "interactive": True, "below": True},
        ]
        self.history: list[str] = []
        self.forward: list[str] = []
        self.scrolled = False

    def down(self) -> bool:
        return self.fail_from is not None and len(self.log) >= self.fail_from

    def canned_reply(self, path: str) -> tuple[int, object] | None:
        return next((r for suffix, r in self.canned.items() if path.endswith(suffix)), None)

    def find(self, element_id: int) -> dict | None:
        for e in self.elements:
            if e["id"] == element_id:
                return e
        return None


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args: object) -> None:
        pass

    @property
    def fake(self) -> FakeBrowser:
        return self.server.fake  # type: ignore[attr-defined]

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b""
        return json.loads(raw) if raw else {}

    def _reply(self, status: int, value: object) -> None:
        self._send(status, {"value": value})

    def _send(self, status: int, body: object) -> None:
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _down(self) -> None:
        self._reply(500, {"error": "unknown error", "message": "endpoint down"})

    def do_POST(self) -> None:  # noqa: N802 (protocol casing)
        body = self._body()
        fake = self.fake
        fake.log.append(("POST", self.path, body))
        if fake.down():
            self._down()
        elif (canned := fake.canned_reply(self.path)) is not None:
            self._send(*canned)
        elif self.path == "/session":
            fake.new_page()
            self._reply(200, {"sessionId": "fake-sess", "capabilities": {}})
        elif self.path.endswith("/window/rect"):
            if fake.fail_rect:
                self._reply(500, {"error": "unknown error", "message": "no window"})
            else:
                self._reply(200, None)
        elif self.path.endswith("/url"):
            if fake.fail_url:
                self._reply(500, {"error": "unknown error", "message": "no route"})
                return
            fake.history.append(fake.url)
            fake.url = body["url"]
            fake.forward.clear()
            fake.scrolled = False
            self._reply(200, None)
        elif self.path.endswith("/back"):
            if fake.history:
                fake.forward.append(fake.url)
                fake.url = fake.history.pop()
            self._reply(200, None)
        elif self.path.endswith("/forward"):
            if fake.forward:
                fake.history.append(fake.url)
                fake.url = fake.forward.pop()
            self._reply(200, None)
        elif self.path.endswith("/execute/sync"):
            self._execute(body)
        elif self.path.endswith("/element"):
            self._find_element(body)
        elif self.path.endswith("/click"):
            self._click()
        elif self.path.endswith("/clear"):
            self._reply(200, None)
        elif self.path.endswith("/value"):
            element_id = int(self.path.split("/")[-2][1:])
            self.fake.find(element_id)["name"] = body["text"]
            self._reply(200, None)
        elif self.path.endswith("/actions"):
            self._reply(200, None)
        else:
            self._reply(404, {"error": "unknown command", "message": self.path})

    def do_GET(self) -> None:  # noqa: N802
        self.fake.log.append(("GET", self.path, None))
        if self.fake.down():
            self._down()
        elif self.path.endswith("/screenshot"):
            self._reply(200, base64.b64encode(PNG).decode())
        else:
            self._reply(404, {"error": "unknown command", "message": self.path})

    def do_DELETE(self) -> None:  # noqa: N802
        self.fake.log.append(("DELETE", self.path, None))
        if self.fake.down():
            self._down()
        else:
            self._reply(200, None)

    def _execute(self, body: dict) -> None:
        script = body.get("script", "")
        fake = self.fake
        if "__swNextId" in script:
            elements = [
                {**e, "below": e["below"] and not fake.scrolled} for e in fake.elements
            ]
            self._reply(200, {"url": fake.url, "title": fake.title, "elements": elements})
        elif "scrollBy" in script:
            delta = float(re.search(r"scrollBy\(0, (-?[\d.]+)\)", script).group(1))
            fake.scrolled = delta > 0
            self._reply(200, None)
        else:
            self._reply(200, None)

    def _find_element(self, body: dict) -> None:
        match = re.search(r'data-swid="(\d+)"', body.get("value", ""))
        element_id = int(match.group(1)) if match else -1
        if element_id in self.fake.stale_ids or self.fake.find(element_id) is None:
            self._reply(
                404,
                {"error": "no such element", "message": f"element {element_id} is gone"},
            )
        else:
            self._reply(200, {"element-6066-11e4-a52e-4f735466cecf": f"h{element_id}"})

    def _click(self) -> None:
        if self.fake.fail_click:
            self._reply(500, {"error": "unknown error", "message": "click exploded"})
            return
        element_id = int(self.path.split("/")[-2][1:])
        self.fake.find(element_id)["name"] += "*"
        self._reply(200, None)


@pytest.fixture
def fake_endpoint():
    fake = FakeBrowser()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.fake = fake  # type: ignore[attr-defined]
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    try:
        yield fake, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


def make_session(endpoint: str, **overrides) -> BrowserSession:
    settings = BrowserSettings(endpoint_url=endpoint, **overrides)
    return BrowserSession(settings, "https://fake.test/home")


def is_observe(path: str, body: dict) -> bool:
    return path.endswith("/execute/sync") and "__swNextId" in body.get("script", "")


def observe_scripts(log: list) -> int:
    return sum(1 for _, p, b in log if is_observe(p, b))


class TestHandshake:
    def test_session_creation_and_setup(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        make_session(endpoint)
        methods = [(m, p) for m, p, _ in fake.log]
        assert methods[0] == ("POST", "/session")
        assert methods[1] == ("POST", "/session/fake-sess/window/rect")
        assert methods[2] == ("POST", "/session/fake-sess/url")
        assert fake.log[1][2] == {"width": 1280, "height": 720}
        assert fake.url == "https://fake.test/home"

    def test_viewport_failure_is_tolerated(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        fake.fail_rect = True
        session = make_session(endpoint)
        assert session.observe().url == "https://fake.test/home"

    def test_unreachable_endpoint(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectFailed):
            make_session(f"http://127.0.0.1:{port}", nav_timeout_ms=1000)

    def test_close_deletes_session(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        make_session(endpoint).close()
        assert ("DELETE", "/session/fake-sess", None) in fake.log

    def test_failed_start_url_deletes_session(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        fake.fail_url = True
        with pytest.raises(ProtocolError):
            make_session(endpoint)
        assert ("DELETE", "/session/fake-sess", None) in fake.log


class TestObserve:
    def test_elements_and_tree(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        obs = make_session(endpoint).observe()
        assert obs.url == "https://fake.test/home"
        assert [e.id for e in obs.elements] == [1, 2, 3]
        assert obs.elements[0].role == "button"
        assert obs.elements[0].interactive is True
        assert obs.elements[2].interactive is False
        assert obs.accessibility_tree == (
            'RootWebArea "Fake"\n'
            '  button "Add" [1]\n'
            '  textbox "Search box" [2]\n'
            '  heading "Welcome" [3]'
        )
        assert obs.screenshot_ref is None

    def test_screenshots_keyed_by_content_hash(self, fake_endpoint, tmp_path):
        fake, endpoint = fake_endpoint
        shots = tmp_path / "shots"
        session = make_session(endpoint, screenshot_dir=str(shots))
        first = session.observe().screenshot_ref
        second = session.observe().screenshot_ref
        assert first == second
        digest = hashlib.sha256(PNG).hexdigest()
        assert first.endswith(f"{digest}.png")
        assert [p.name for p in shots.iterdir()] == [f"{digest}.png"]
        assert (shots / f"{digest}.png").read_bytes() == PNG


class TestExecute:
    def test_click_changes_page(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        outcome = session.execute(parse_action("click [1]"))
        assert outcome.changed is True
        assert outcome.error is None
        finds = [b for m, p, b in fake.log if p.endswith("/element")]
        assert finds[-1]["value"] == '[data-swid="1"]'
        assert any(p.endswith("/element/h1/click") for _, p, _ in fake.log)
        assert fake.find(1)["name"] == "Add*"

    def test_type_clears_then_sends_text(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        outcome = session.execute(parse_action("type [2] [usb cable]"))
        assert outcome.changed is True
        paths = [p for _, p, _ in fake.log]
        clear_at = paths.index("/session/fake-sess/element/h2/clear")
        value_at = paths.index("/session/fake-sess/element/h2/value")
        assert clear_at < value_at
        assert fake.log[value_at][2] == {"text": "usb cable"}
        assert fake.find(2)["name"] == "usb cable"

    def test_hover_dispatches_mouseover(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        outcome = session.execute(parse_action("hover [1]"))
        assert outcome.changed is False
        scripts = [
            b for _, p, b in fake.log
            if p.endswith("/execute/sync") and "mouseover" in b.get("script", "")
        ]
        assert len(scripts) == 1
        assert scripts[0]["args"] == [{"element-6066-11e4-a52e-4f735466cecf": "h1"}]

    def test_press_sends_key_down_then_up(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        session.execute(parse_action("press [ctrl+enter]"))
        (payload,) = [b for _, p, b in fake.log if p.endswith("/actions")]
        sequence = payload["actions"][0]["actions"]
        assert sequence == [
            {"type": "keyDown", "value": ""},
            {"type": "keyDown", "value": ""},
            {"type": "keyUp", "value": ""},
            {"type": "keyUp", "value": ""},
        ]

    def test_empty_press_sends_nothing(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        outcome = session.execute(parse_action("press []"))
        assert outcome.changed is False
        assert not any(p.endswith("/actions") for _, p, _ in fake.log)

    def test_scroll_down_reveals_below_fold(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        outcome = session.execute(parse_action("scroll [down]"))
        assert outcome.changed is True
        assert [e.id for e in session.observe().elements] == [1, 2, 3, 4]
        scripts = [
            b["script"] for _, p, b in fake.log
            if p.endswith("/execute/sync") and "scrollBy" in b.get("script", "")
        ]
        assert "scrollBy(0, 576.0)" in scripts[-1]
        session.execute(parse_action("scroll [up]"))
        assert [e.id for e in session.observe().elements] == [1, 2, 3]

    def test_goto_back_forward(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        outcome = session.execute(parse_action("goto [https://fake.test/cart]"))
        assert outcome.changed is True
        assert session.observe().url == "https://fake.test/cart"
        assert session.execute(parse_action("go_back")).changed is True
        assert session.observe().url == "https://fake.test/home"
        assert session.execute(parse_action("go_forward")).changed is True
        assert session.observe().url == "https://fake.test/cart"

    def test_missing_element_raises(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        fake.stale_ids.add(1)
        with pytest.raises(ElementNotFound, match="element 1 is gone"):
            session.execute(parse_action("click [1]"))

    def test_server_error_becomes_step_error(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        fake.fail_click = True
        outcome = session.execute(parse_action("click [1]"))
        assert outcome.changed is False
        assert "500" in outcome.error

    def test_invalid_action_rejected_before_any_request(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        before = len(fake.log)
        with pytest.raises(InvalidAction):
            session.execute(Action(kind=ActionKind.CLICK))
        assert len(fake.log) == before


def next_action_reply(action: dict) -> dict:
    return {
        "state_observation_summary": "The fake page.",
        "reasoning": "Follow the script.",
        "next_action": {"low-level_instruction": "Act", "action": action},
    }


NO_REFINE = {"Analysis": "Still feasible.", "Need-to-Refine": "no", "High-Level-Task": ""}


class TestObservationMemo:
    def test_repeated_observe_fetches_once(self, fake_endpoint, tmp_path):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint, screenshot_dir=str(tmp_path / "shots"))
        start = len(fake.log)
        first = session.observe()
        assert session.observe() is first
        sent = fake.log[start:]
        assert observe_scripts(sent) == 1
        assert [p for m, p, _ in sent if m == "GET"] == ["/session/fake-sess/screenshot"]

    def test_execute_reads_the_page_once_after_the_action(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        session.observe()
        start = len(fake.log)
        session.execute(parse_action("click [1]"))
        sent = [(p, b) for _, p, b in fake.log[start:]]
        observes = [i for i, (p, b) in enumerate(sent) if is_observe(p, b)]
        click = [p for p, _ in sent].index("/session/fake-sess/element/h1/click")
        assert len(observes) == 1
        assert observes[0] > click
        after = len(fake.log)
        assert session.observe().elements[0].name == "Add*"
        assert len(fake.log) == after

    @pytest.mark.parametrize(
        "wire",
        [
            "click [1]", "type [2] [usb cable]", "hover [1]", "press [enter]",
            "scroll [down]", "goto [https://fake.test/cart]", "go_back", "go_forward",
            "none [done]", "stop [halt]",
        ],
    )
    def test_every_action_kind_clears_the_memo(self, fake_endpoint, wire):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        session.observe()
        start = len(fake.log)
        session.execute(parse_action(wire))
        assert observe_scripts(fake.log[start:]) == 1
        after = len(fake.log)
        session.observe()
        assert len(fake.log) == after

    def test_failed_step_clears_the_memo(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        session.observe()
        fake.fail_click = True
        start = len(fake.log)
        outcome = session.execute(parse_action("click [1]"))
        assert "500" in outcome.error
        assert observe_scripts(fake.log[start:]) == 1

    def test_missing_element_clears_the_memo(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        session.observe()
        fake.stale_ids.add(1)
        with pytest.raises(ElementNotFound):
            session.execute(parse_action("click [1]"))
        fake.title = "Changed"
        start = len(fake.log)
        assert session.observe().accessibility_tree.startswith('RootWebArea "Changed"')
        assert observe_scripts(fake.log[start:]) == 1

    def test_episode_reads_each_state_once(self, fake_endpoint, shop_config):
        fake, endpoint = fake_endpoint
        actions = [
            {"type": "click", "element_id": 1, "value": ""},
            {"type": "type", "element_id": 2, "value": "usb"},
            {"type": "scroll", "element_id": "", "value": "down"},
            {"type": "click", "element_id": 4, "value": ""},
            {"type": "none", "element_id": "", "value": "done"},
        ]
        script = {
            "schema_version": 1,
            "rules": [
                {"template": "next_action", "replies": [next_action_reply(a) for a in actions]},
                {"template": "refine_task", "reply": NO_REFINE},
            ],
        }
        collector = Collector(make_client(script), shop_config)
        task = Task(id="t-fake-0001", text="Use the page", category="c", site="fake")
        trajectory = collector.collect_trajectory(task, make_session(endpoint))
        executed = len(trajectory.steps) - 1
        assert executed == 4
        assert observe_scripts(fake.log) == executed + 1


class TestSessionsClosed:
    """Every WebDriver session the pipeline opens is deleted again."""

    SCRIPT = {
        "schema_version": 1,
        "rules": [
            {
                "template": "categorize",
                "reply": {
                    "Analysis": "A button and a search box.",
                    "Categorization": {
                        "Actions": [
                            {"action": "click", "element_id": 1, "value": "",
                             "low-level_instruction": "Click Add"},
                            {"action": "type", "element_id": 2, "value": "usb",
                             "low-level_instruction": "Type usb"},
                        ],
                        "uninteractive_elements": [3],
                    },
                },
            },
            {
                "template": "propose_task",
                "when": {"current_action_str": "Click Add"},
                "reply": {"Sub-Instruction": "Click Add.", "Analysis": "A cart change.",
                          "High-Level-Instruction": "Press the Add button"},
            },
            {
                "template": "propose_task",
                "reply": {"Sub-Instruction": "Search.", "Analysis": "Information seeking.",
                          "High-Level-Instruction": "Search the page for usb"},
            },
            {
                "template": "next_action",
                "when": {"high_level_task": "Press the Add button"},
                "scope": "high_level_task",
                "replies": [
                    next_action_reply({"type": "click", "element_id": 1, "value": ""}),
                    next_action_reply({"type": "none", "element_id": "", "value": "done"}),
                ],
            },
            {"template": "next_action", "raw": "never json"},
            {"template": "refine_task", "reply": NO_REFINE},
        ],
    }

    def test_explore_and_collect_delete_every_session(self, fake_endpoint, tmp_path):
        fake, endpoint = fake_endpoint
        script = tmp_path / "fake.mock.json"
        script.write_text(json.dumps(self.SCRIPT))
        raw = {
            "seed": 7,
            "runs_dir": str(tmp_path / "runs"),
            "oracle": {"backend": "mock", "mock_script": str(script), "backoff_base_s": 0},
            "browser": {"endpoint_url": endpoint},
            "sites": [{"name": "fake", "start_url": "https://fake.test/home"}],
        }
        config = parse_config(raw, base_dir=tmp_path)
        store = RunStore(tmp_path / "runs" / "r")

        def sessions() -> tuple[int, int]:
            opened = sum(1 for m, p, _ in fake.log if (m, p) == ("POST", "/session"))
            deleted = sum(1 for m, p, _ in fake.log if (m, p) == ("DELETE", "/session/fake-sess"))
            return opened, deleted

        assert pipeline.run_explore(config, store)["tasks"] == 2
        assert sessions() == (1, 1)
        # One task completes; the other never gets a valid reply and ends
        # as a failure record.
        assert pipeline.run_collect(config, store) == {"tasks": 2, "trajectories": 1}
        assert sessions() == (3, 3)
        assert fake.log[-1][:2] == ("DELETE", "/session/fake-sess")


class TestFaultSweep:
    """The endpoint goes down from its k-th request on. The stage it stops
    exits 1; once the endpoint is back, the resumed run reaches the dataset
    of a run that was never interrupted."""

    STAGES = ("explore", "collect", "refine", "export")
    KEEP = {
        "template": "refine_trajectory",
        "reply": {"task": "{{high_level_task}}", "score": 90, "decision": "keep",
                  "order": [0, 1], "modify_end": False, "append_end": False,
                  "final_none_value": "done", "drop_reason": "", "modification_reason": ""},
    }

    def test_resumed_run_reaches_the_uninterrupted_hash(self, fake_endpoint, tmp_path, capsys):
        fake, endpoint = fake_endpoint
        script = tmp_path / "fake.mock.json"
        script.write_text(json.dumps(
            {**TestSessionsClosed.SCRIPT,
             "rules": [*TestSessionsClosed.SCRIPT["rules"], self.KEEP]}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 7,
            "runs_dir": str(tmp_path / "runs"),
            "oracle": {"backend": "mock", "mock_script": str(script), "backoff_base_s": 0},
            "browser": {"endpoint_url": endpoint},
            "sites": [{"name": "fake", "start_url": "https://fake.test/home"}],
        }))
        run = tmp_path / "runs" / "r"

        def stage(command: str) -> tuple[int, str]:
            code = cli.main([command, "--config", str(config), "--run", "r"])
            return code, capsys.readouterr().err

        def content_hash() -> str:
            return json.loads((run / "manifest.json").read_text())["dataset"]["content_hash"]

        sent = {}
        for command in self.STAGES:
            start = len(fake.log)
            assert stage(command)[0] == cli.EXIT_OK
            sent[command] = len(fake.log) - start
        expected = content_hash()
        explore, collect = sent["explore"], sent["collect"]
        # The last two requests of collect read its last task's first page
        # and close its session.
        sweep = sorted({1, explore // 2, explore + 1, explore + collect // 2,
                        explore + collect - 1})
        assert len(sweep) == 5

        for k in sweep:
            shutil.rmtree(run)
            fake.log.clear()
            fake.fail_from = k
            for command in self.STAGES:
                code, err = stage(command)
                if code != cli.EXIT_OK:
                    break
            assert command == ("explore" if k <= explore else "collect"), k
            assert code == cli.EXIT_RUNTIME, (k, err)
            assert " -> 500 unknown error" in err, (k, err)  # a ProtocolError
            fake.fail_from = None
            for command in self.STAGES:
                assert stage(command)[0] == cli.EXIT_OK, k
            assert content_hash() == expected, k


class TestMalformedReplies:
    """A reply of the wrong shape is a ProtocolError, never a Python error
    from reading it."""

    @pytest.mark.parametrize("body,message", [
        ([1, 2], "is not a JSON object"),
        ({"value": "fake-sess"}, "no sessionId"),
    ])
    def test_session_reply(self, fake_endpoint, body, message):
        fake, endpoint = fake_endpoint
        fake.canned["/session"] = (200, body)
        with pytest.raises(ProtocolError, match=message):
            make_session(endpoint)

    def test_error_reply_whose_value_is_not_an_object(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        fake.canned["/url"] = (500, {"value": "no route"})
        with pytest.raises(ProtocolError, match="-> 500"):
            make_session(endpoint)
        assert ("DELETE", "/session/fake-sess", None) in fake.log

    @pytest.mark.parametrize("elements", [
        [{"role": "button", "name": "Add"}],   # no id
        ["button"],                            # not an object
        [{"id": "one"}],                       # id not a number
        {"id": 1},                             # not a list
    ])
    def test_malformed_elements(self, fake_endpoint, elements):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        fake.canned["/execute/sync"] = (200, {"value": {"url": "u", "elements": elements}})
        with pytest.raises(ProtocolError, match="integer id"):
            session.observe()

    def test_observe_reply_that_is_not_an_object(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        fake.canned["/execute/sync"] = (200, "just text")
        with pytest.raises(ProtocolError, match="is not a JSON object"):
            session.observe()

    def test_element_reply_whose_value_is_not_an_object(self, fake_endpoint):
        fake, endpoint = fake_endpoint
        session = make_session(endpoint)
        fake.canned["/element"] = (200, {"value": ["h1"]})
        outcome = session.execute(parse_action("click [1]"))
        assert outcome.error == "element reply carried no handle: ['h1']"

    def test_cli_reports_one_error_line(self, fake_endpoint, tmp_path, capsys):
        fake, endpoint = fake_endpoint
        fake.canned["/execute/sync"] = (200, {"value": {"url": "u", "elements": [{}]}})
        script = tmp_path / "fake.mock.json"
        script.write_text(json.dumps(TestSessionsClosed.SCRIPT))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "runs_dir": str(tmp_path / "runs"),
            "oracle": {"backend": "mock", "mock_script": str(script)},
            "browser": {"endpoint_url": endpoint},
            "sites": [{"name": "fake", "start_url": "https://fake.test/home"}],
        }))
        code = cli.main(["explore", "--config", str(config), "--run", "r"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_RUNTIME
        assert err.startswith("error: observe script returned elements") and "Traceback" not in err
        assert fake.log[-1][:2] == ("DELETE", "/session/fake-sess")


class TestKeySequence:
    @pytest.mark.parametrize(
        "combination,expected",
        [
            ("enter", [""]),
            ("ctrl+enter", ["", ""]),
            ("Ctrl+A", ["", "A"]),
            ("meta+shift+tab", ["", "", ""]),
            ("space", [" "]),
            ("x", ["x"]),
            (" + enter + ", [""]),
            ("", []),
        ],
    )
    def test_mapping(self, combination, expected):
        assert key_sequence(combination) == expected


@pytest.mark.skipif(
    not os.environ.get("SYNTHWEAVER_WEBDRIVER_URL"),
    reason="set SYNTHWEAVER_WEBDRIVER_URL to run against a real WebDriver",
)
def test_real_endpoint_smoke():
    settings = BrowserSettings(endpoint_url=os.environ["SYNTHWEAVER_WEBDRIVER_URL"])
    session = BrowserSession(settings, "about:blank")
    try:
        obs = session.observe()
        assert obs.url
    finally:
        session.close()
