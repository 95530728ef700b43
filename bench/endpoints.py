"""In-process fake endpoints: an OpenAI-compatible chat server and a W3C WebDriver server.

Both are harness, not program: their time is reported apart from the
pipeline's. Each runs a ``ThreadingHTTPServer`` with one thread per open
connection; the pipeline runs at most ``nproc`` workers and each worker has
at most one request in flight, so at most ``nproc`` handler threads are busy
at once.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from synthweaver.actions import Action, ActionKind
from synthweaver.browser import OBSERVE_SCRIPT, key_sequence
from synthweaver.environment import SimulatorSession, SiteGraph
from synthweaver.errors import ElementNotFound
from synthweaver.oracle import MockScript, RenderedPrompt, TemplateName, load_template

_PLACEHOLDER = re.compile(r"\{([a-z_][a-z0-9_]*)\}")

# Marks threads that serve a fake endpoint, so the tracer can tell harness
# calls into the simulator or the mock script from the program's own calls.
harness_thread = threading.local()


def prompt_key(text: str) -> str:
    """Names a prompt, so a client request can be paired with its server time."""
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


class Counters:
    """Thread-safe counts and time sums keyed by (stage, name)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.counts: dict[tuple[str, str], int] = {}
        self.times: dict[tuple[str, str], list[float]] = {}
        self.stage = ""

    def add(self, name: str, n: int = 1) -> None:
        with self.lock:
            key = (self.stage, name)
            self.counts[key] = self.counts.get(key, 0) + n

    def time(self, name: str, seconds: float) -> None:
        with self.lock:
            self.times.setdefault((self.stage, name), []).append(seconds)

    def count(self, name: str, stage: str | None = None) -> int:
        return sum(v for (s, k), v in self.counts.items() if k == name and stage in (None, s))

    def samples(self, name: str, stage: str | None = None) -> list[float]:
        return [t for (s, k), v in self.times.items() if k == name and stage in (None, s) for t in v]

    def reset(self) -> None:
        with self.lock:
            self.counts.clear()
            self.times.clear()


class _Server(ThreadingHTTPServer):
    daemon_threads = True


class _BaseHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 30

    def log_message(self, *args: object) -> None:
        pass

    def setup(self) -> None:
        super().setup()
        harness_thread.active = True
        self.server.owner.counters.add("connections")  # type: ignore[attr-defined]

    def _body(self) -> Any:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b""
        self.server.owner.counters.add("bytes_in", len(raw))  # type: ignore[attr-defined]
        return json.loads(raw) if raw else {}

    def _send(self, status: int, payload: Any) -> None:
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.server.owner.counters.add("bytes_out", len(data))  # type: ignore[attr-defined]


class _Endpoint:
    handler: type[BaseHTTPRequestHandler]

    def __init__(self) -> None:
        self.counters = Counters()
        self._server = _Server(("127.0.0.1", 0), self.handler)
        self._server.owner = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)


# ======================================================================
# OpenAI-compatible chat endpoint
# ======================================================================

def _template_pattern(name: TemplateName) -> re.Pattern[str]:
    """A regex that recovers a template's variables from its rendered text.

    Re-asks append a corrective hint after the template's last line, so any
    trailing text is allowed.
    """
    body = load_template(name).body
    parts: list[str] = []
    seen: set[str] = set()
    pos = 0
    for match in _PLACEHOLDER.finditer(body):
        parts.append(re.escape(body[pos : match.start()]))
        var = match.group(1)
        parts.append(f"(?P={var})" if var in seen else f"(?P<{var}>.*?)")
        seen.add(var)
        pos = match.end()
    parts.append(re.escape(body[pos:]))
    return re.compile("".join(parts), re.DOTALL)


_HIGH_LEVEL_TASK = re.compile(r"^High-level task: (.*)$", re.MULTILINE)


class ChatEndpoint(_Endpoint):
    """Answers ``POST /v1/chat/completions`` from a mock script after a fixed delay."""

    def __init__(self, script: dict[str, Any], delay_s: float) -> None:
        self.script_doc = script
        self.delay_s = delay_s
        self.script = MockScript(script)
        self._patterns = [(t, _template_pattern(t)) for t in TemplateName]
        # Server-side handle time of each request, by prompt_key, in the order served.
        self.handled: dict[str, list[float]] = {}
        super().__init__()

    def reset(self) -> None:
        """Restart every reply series, as a fresh mock script would."""
        self.script = MockScript(self.script_doc)
        self.counters.reset()
        self.handled = {}

    def prompt_from_text(self, text: str) -> RenderedPrompt:
        for template, pattern in self._patterns:
            match = pattern.match(text)
            if match is None:
                continue
            variables = {k: v for k, v in match.groupdict().items() if v is not None}
            if template is TemplateName.REFINE_TRAJECTORY:
                task = _HIGH_LEVEL_TASK.search(variables.get("trajectory", ""))
                if task:
                    variables["high_level_task"] = task.group(1)
            return RenderedPrompt(template=template, text=text, variables=variables)
        raise ValueError("prompt matches no template")

    @staticmethod
    def prompt_text(body: dict[str, Any]) -> str:
        content = body["messages"][0]["content"]
        return content[0]["text"] if isinstance(content, list) else content

    def complete(self, body: dict[str, Any]) -> dict[str, Any]:
        completion = self.script.reply_for(self.prompt_from_text(self.prompt_text(body)))
        started = time.perf_counter()
        time.sleep(self.delay_s)
        self.counters.time("injected_delay", time.perf_counter() - started)
        return {
            "id": "cmpl-bench",
            "object": "chat.completion",
            "choices": [{"index": 0, "message": {"role": "assistant", "content": completion.text},
                         "finish_reason": "stop"}],
            "usage": {"prompt_tokens": completion.usage.prompt_tokens,
                      "completion_tokens": completion.usage.completion_tokens},
        }

    class handler(_BaseHandler):  # noqa: N801
        def do_POST(self) -> None:  # noqa: N802
            owner: ChatEndpoint = self.server.owner  # type: ignore[attr-defined]
            started = time.perf_counter()
            owner.counters.add("requests")
            key = None
            try:
                body = self._body()
                key = prompt_key(owner.prompt_text(body))
                payload = owner.complete(body)
            except Exception as exc:  # reported to the client as a server error
                owner.counters.add("errors")
                self._send(500, {"error": {"message": str(exc)}})
            else:
                self._send(200, payload)
            elapsed = time.perf_counter() - started
            owner.counters.time("handle", elapsed)
            if key is not None:
                with owner.counters.lock:
                    owner.handled.setdefault(key, []).append(elapsed)


# ======================================================================
# W3C WebDriver endpoint over the simulator
# ======================================================================

_ELEMENT_KEY = "element-6066-11e4-a52e-4f735466cecf"
_SWID = re.compile(r'data-swid="(\d+)"')
_SCROLL = re.compile(r"scrollBy\(0, (-?[\d.]+)\)")
_TITLE = re.compile(r'^RootWebArea "(.*)"')
_KEY_NAMES = {key_sequence(name)[0]: name for name in (
    "alt", "arrowdown", "arrowleft", "arrowright", "arrowup", "backspace", "control",
    "delete", "end", "enter", "escape", "home", "meta", "pagedown", "pageup", "shift",
    "space", "tab")}


class WebDriverEndpoint(_Endpoint):
    """Maps the WebDriver commands BrowserSession sends onto SimulatorSessions."""

    def __init__(self, graph: SiteGraph) -> None:
        self.graph = graph
        self.sessions: dict[str, SimulatorSession] = {}
        self._next = 0
        self._lock = threading.Lock()
        super().__init__()

    def reset(self) -> None:
        with self._lock:
            self.sessions.clear()
        self.counters.reset()

    def new_session(self) -> str:
        with self._lock:
            self._next += 1
            sid = f"s{self._next}"
            self.sessions[sid] = SimulatorSession(self.graph)
        return sid

    def observe(self, sim: SimulatorSession) -> dict[str, Any]:
        obs = sim.observe()
        title = _TITLE.match(obs.accessibility_tree)
        return {
            "url": obs.url,
            "title": title.group(1) if title else "",
            "elements": [
                {"id": e.id, "role": e.role, "name": e.name, "interactive": e.interactive,
                 "below": False}
                for e in obs.elements
            ],
        }

    def screenshot(self, sim: SimulatorSession) -> str:
        obs = sim.observe()
        digest = hashlib.sha256(f"{obs.url}\n{obs.accessibility_tree}".encode()).digest()
        return base64.b64encode(b"\x89PNG\r\n\x1a\n" + digest).decode()

    class handler(_BaseHandler):  # noqa: N801
        def _dispatch(self, method: str) -> None:
            owner: WebDriverEndpoint = self.server.owner  # type: ignore[attr-defined]
            started = time.perf_counter()
            body = self._body() if method == "POST" else {}
            parts = self.path.strip("/").split("/")
            rest = parts[2:]
            if parts == ["session"]:
                command = "new_session"
            elif not rest:
                command = "delete_session"
            elif rest[0] == "element" and len(rest) == 3:
                command = f"element/{rest[2]}"  # drop the element handle
            else:
                command = "/".join(rest)
            try:
                status, value = self._command(owner, method, parts, command, body)
            except ElementNotFound as exc:
                status, value = 404, {"error": "no such element", "message": str(exc)}
            except Exception as exc:  # reported to the client as a server error
                owner.counters.add("errors")
                status, value = 500, {"error": "unknown error", "message": repr(exc)}
            if command == "execute/sync" and body.get("script") == OBSERVE_SCRIPT:
                command = "observe"
            owner.counters.add("requests")
            owner.counters.add(f"cmd:{command}")
            self._send(status, {"value": value})
            owner.counters.time("handle", time.perf_counter() - started)

        def _command(
            self, owner: "WebDriverEndpoint", method: str, parts: list[str], command: str,
            body: dict[str, Any],
        ) -> tuple[int, Any]:
            if command == "new_session":
                return 200, {"sessionId": owner.new_session(), "capabilities": {}}
            sim = owner.sessions.get(parts[1])
            if sim is None:
                return 404, {"error": "invalid session id", "message": parts[1]}
            if method == "DELETE":
                with owner._lock:
                    owner.sessions.pop(parts[1], None)
                return 200, None
            run = sim.execute
            if command == "window/rect":
                return 200, {"x": 0, "y": 0, "width": body.get("width"), "height": body.get("height")}
            if command == "screenshot":
                return 200, owner.screenshot(sim)
            if command == "url":
                return self._outcome(run(Action(ActionKind.GOTO, None, body["url"])))
            if command in ("back", "forward"):
                kind = ActionKind.GO_BACK if command == "back" else ActionKind.GO_FORWARD
                return self._outcome(run(Action(kind)))
            if command == "element":
                match = _SWID.search(body.get("value", ""))
                element_id = int(match.group(1)) if match else -1
                if not sim.observe().has_element(element_id):
                    raise ElementNotFound(f"no element matches {body.get('value')!r}")
                return 200, {_ELEMENT_KEY: str(element_id)}
            if command == "element/click":
                return self._outcome(run(Action(ActionKind.CLICK, int(parts[3]))))
            if command == "element/clear":
                return 200, None
            if command == "element/value":
                return self._outcome(run(Action(ActionKind.TYPE, int(parts[3]), body["text"])))
            if command == "actions":
                keys = [a["value"] for a in body["actions"][0]["actions"] if a["type"] == "keyDown"]
                combo = "+".join(_KEY_NAMES.get(k, k) for k in keys)
                return self._outcome(run(Action(ActionKind.PRESS, None, combo)))
            if command == "execute/sync":
                script = body.get("script", "")
                if script == OBSERVE_SCRIPT:
                    return 200, owner.observe(sim)
                scroll = _SCROLL.search(script)
                if scroll:
                    direction = "down" if float(scroll.group(1)) > 0 else "up"
                    return self._outcome(run(Action(ActionKind.SCROLL, None, direction)))
                if "mouseover" in script:
                    element_id = int(body["args"][0][_ELEMENT_KEY])
                    return self._outcome(run(Action(ActionKind.HOVER, element_id)))
                return 200, None
            return 404, {"error": "unknown command", "message": self.path}

        @staticmethod
        def _outcome(outcome: Any) -> tuple[int, Any]:
            if outcome.error:
                return 400, {"error": "element click intercepted", "message": outcome.error}
            return 200, None

        def do_POST(self) -> None:  # noqa: N802
            self._dispatch("POST")

        def do_GET(self) -> None:  # noqa: N802
            self._dispatch("GET")

        def do_DELETE(self) -> None:  # noqa: N802
            self._dispatch("DELETE")
