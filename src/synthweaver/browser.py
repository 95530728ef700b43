"""Live-browser environment over the W3C WebDriver REST protocol.

Implements the same observe/execute/close surface as the simulator, so the
pipeline can drive a real site by pointing a config at a WebDriver endpoint
(chromedriver, geckodriver, or a Selenium server).
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path
from typing import Any

from .actions import Action, ActionKind, ELEMENT_KINDS
from .config import BrowserSettings
from .environment import TransitionOutcome
from .errors import ConnectFailed, ElementNotFound, ProtocolError
from .http_json import NoReply, request_json
from .model import Element, Observation, observation_fingerprint

# Tags elements with stable integer ids (data-swid) and reports the visible
# interactive surface plus headings and salient text.
OBSERVE_SCRIPT = """
var next = window.__swNextId || 1;
var selector = 'a, button, input, select, textarea, [role], h1, h2, h3, label';
var nodes = document.querySelectorAll(selector);
var out = [];
for (var i = 0; i < nodes.length; i++) {
  var el = nodes[i];
  var rect = el.getBoundingClientRect();
  if (rect.width === 0 && rect.height === 0) { continue; }
  if (!el.hasAttribute('data-swid')) {
    el.setAttribute('data-swid', String(next));
    next += 1;
  }
  var tag = el.tagName.toLowerCase();
  var role = el.getAttribute('role');
  if (!role) {
    role = {a: 'link', button: 'button', input: 'textbox', select: 'combobox',
            textarea: 'textbox', h1: 'heading', h2: 'heading', h3: 'heading',
            label: 'statictext'}[tag] || 'generic';
    if (tag === 'input') {
      var t = (el.getAttribute('type') || 'text').toLowerCase();
      if (t === 'button' || t === 'submit') { role = 'button'; }
      else if (t === 'checkbox') { role = 'checkbox'; }
      else if (t === 'radio') { role = 'radio'; }
    }
  }
  var name = el.getAttribute('aria-label') || el.getAttribute('placeholder') ||
             (el.innerText || el.value || '').trim().slice(0, 120);
  var interactive = ['link', 'button', 'textbox', 'combobox', 'checkbox',
                     'radio'].indexOf(role) !== -1;
  out.push({id: parseInt(el.getAttribute('data-swid'), 10), role: role,
            name: name, interactive: interactive,
            below: rect.top >= window.innerHeight});
}
window.__swNextId = next;
return {url: window.location.href, title: document.title, elements: out};
"""

# WebDriver key codepoints for press [key_comb].
_KEYS = {
    "alt": "",
    "arrowdown": "",
    "arrowleft": "",
    "arrowright": "",
    "arrowup": "",
    "backspace": "",
    "ctrl": "",
    "control": "",
    "delete": "",
    "end": "",
    "enter": "",
    "esc": "",
    "escape": "",
    "home": "",
    "meta": "",
    "pagedown": "",
    "pageup": "",
    "shift": "",
    "space": " ",
    "tab": "",
}


def key_sequence(combination: str) -> list[str]:
    """Map a '+'-separated key combination to WebDriver codepoints."""
    keys = []
    for part in combination.split("+"):
        part = part.strip()
        if not part:
            continue
        keys.append(_KEYS.get(part.lower(), part))
    return keys


class BrowserSession:
    """One WebDriver session implementing observe/execute/close.

    Each page state is fetched once: observe() returns the same observation
    until an action or a navigation can have changed the page.
    """

    def __init__(self, settings: BrowserSettings, start_url: str) -> None:
        self.settings = settings
        self._base = settings.endpoint_url.rstrip("/")
        self._timeout = max(settings.nav_timeout_ms, 1000) / 1000.0
        self._observation: Observation | None = None
        payload = {
            "capabilities": {
                "alwaysMatch": {},
                "firstMatch": [{}],
            }
        }
        reply = self._request("POST", "/session", payload, connect=True)
        value = reply.get("value")
        session_id = (isinstance(value, dict) and value.get("sessionId")) or reply.get("sessionId")
        if not session_id:
            raise ProtocolError(f"session creation returned no sessionId: {reply}")
        self._session = f"/session/{session_id}"
        try:
            self._request(
                "POST",
                f"{self._session}/window/rect",
                {"width": settings.viewport_width, "height": settings.viewport_height},
                tolerate_error=True,
            )
            self._navigate(start_url)
        except BaseException:
            # No caller gets a session to close when the constructor raises.
            self.close()
            raise

    # ------------------------------------------------------------------
    # protocol plumbing
    # ------------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        *,
        connect: bool = False,
        tolerate_error: bool = False,
    ) -> dict[str, Any]:
        """The reply body, a JSON object; any other reply is a ProtocolError."""
        try:
            status, raw = request_json(method, f"{self._base}{path}", payload, {}, self._timeout)
        except NoReply as exc:
            if connect:
                raise ConnectFailed(f"cannot reach WebDriver endpoint {self._base}: {exc}") from exc
            raise ProtocolError(f"WebDriver request failed: {method} {path}: {exc}") from exc
        try:
            body = json.loads(raw) if raw else {}
        except ValueError:
            raise ProtocolError(
                f"non-JSON reply from {method} {path}: {raw.decode('utf-8', 'replace')[:200]}"
            ) from None
        if not isinstance(body, dict):
            raise ProtocolError(f"reply from {method} {path} is not a JSON object: {body!r:.200}")
        if status >= 300:  # a redirect that urllib did not follow is an error too
            value = body.get("value")
            detail = value if isinstance(value, dict) else {}
            error = detail.get("error", "")
            if error == "no such element":
                raise ElementNotFound(detail.get("message", error))
            if tolerate_error:
                return body
            raise ProtocolError(
                f"{method} {path} -> {status} {error or raw.decode('utf-8', 'replace')[:200]}"
            )
        return body

    def _execute_script(self, script: str, args: list[Any] | None = None) -> Any:
        body = self._request(
            "POST",
            f"{self._session}/execute/sync",
            {"script": script, "args": args or []},
        )
        return body.get("value")

    def _find_handle(self, element_id: int) -> str:
        body = self._request(
            "POST",
            f"{self._session}/element",
            {"using": "css selector", "value": f'[data-swid="{element_id}"]'},
        )
        value = body.get("value")
        for key, handle in value.items() if isinstance(value, dict) else ():
            if key.startswith("element-") or key == "ELEMENT":
                return handle
        raise ProtocolError(f"element reply carried no handle: {value}")

    def _navigate(self, url: str) -> None:
        self._observation = None
        self._request("POST", f"{self._session}/url", {"url": url})

    # ------------------------------------------------------------------
    # environment surface
    # ------------------------------------------------------------------

    def observe(self) -> Observation:
        if self._observation is None:
            self._observation = self._fetch_observation()
        return self._observation

    def _fetch_observation(self) -> Observation:
        raw = self._execute_script(OBSERVE_SCRIPT)
        if not isinstance(raw, dict):
            raise ProtocolError(f"observe script returned {type(raw).__name__}, not an object")
        entries = raw.get("elements", [])
        try:
            elements = tuple(
                Element(
                    id=int(e["id"]),
                    role=str(e.get("role", "generic")),
                    name=str(e.get("name", "")),
                    interactive=bool(e.get("interactive", False)),
                )
                for e in entries
                if not e.get("below", False)
            )
        except (AttributeError, LookupError, TypeError, ValueError):
            raise ProtocolError(
                f"observe script returned elements that are not objects with an "
                f"integer id: {str(entries)[:200]}"
            ) from None
        title = str(raw.get("title", ""))
        lines = [f'RootWebArea "{title}"']
        lines += [f'  {e.role} "{e.name}" [{e.id}]' for e in elements]
        return Observation(
            url=str(raw.get("url", "")),
            accessibility_tree="\n".join(lines),
            elements=elements,
            screenshot_ref=self._screenshot(),
        )

    def _screenshot(self) -> str | None:
        if not self.settings.screenshot_dir:
            return None
        body = self._request("GET", f"{self._session}/screenshot")
        encoded = body.get("value", "")
        if not isinstance(encoded, str) or not encoded:
            return None
        png = base64.b64decode(encoded)
        digest = hashlib.sha256(png).hexdigest()
        directory = Path(self.settings.screenshot_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{digest}.png"
        if not path.exists():
            path.write_bytes(png)
        return str(path)

    def execute(self, action: Action) -> TransitionOutcome:
        before = observation_fingerprint(self.observe())
        error = self._apply(action)
        after = observation_fingerprint(self.observe())
        return TransitionOutcome(changed=before != after, error=error)

    def _apply(self, action: Action) -> str | None:
        self._observation = None
        kind = action.kind
        try:
            if kind in ELEMENT_KINDS:
                handle = self._find_handle(action.element_id)
                if kind is ActionKind.CLICK:
                    self._request(
                        "POST", f"{self._session}/element/{handle}/click", {}
                    )
                elif kind is ActionKind.TYPE:
                    self._request(
                        "POST", f"{self._session}/element/{handle}/clear", {}
                    )
                    self._request(
                        "POST",
                        f"{self._session}/element/{handle}/value",
                        {"text": action.value},
                    )
                else:  # hover
                    self._execute_script(
                        "arguments[0].dispatchEvent(new MouseEvent('mouseover', "
                        "{bubbles: true}));",
                        [{"element-6066-11e4-a52e-4f735466cecf": handle}],
                    )
            elif kind is ActionKind.PRESS:
                self._press(action.value)
            elif kind is ActionKind.SCROLL:
                delta = self.settings.viewport_height * 0.8
                sign = 1 if action.value == "down" else -1
                self._execute_script(f"window.scrollBy(0, {sign * delta});")
            elif kind is ActionKind.GOTO:
                self._navigate(action.value)
            elif kind is ActionKind.GO_BACK:
                self._request("POST", f"{self._session}/back", {})
            elif kind is ActionKind.GO_FORWARD:
                self._request("POST", f"{self._session}/forward", {})
        except ElementNotFound:
            raise
        except ProtocolError as exc:
            return str(exc).splitlines()[0]
        return None

    def _press(self, combination: str) -> None:
        keys = key_sequence(combination)
        if not keys:
            return
        actions = [{"type": "keyDown", "value": key} for key in keys]
        actions += [{"type": "keyUp", "value": key} for key in reversed(keys)]
        self._request(
            "POST",
            f"{self._session}/actions",
            {
                "actions": [
                    {"type": "key", "id": "keyboard", "actions": actions}
                ]
            },
        )

    def close(self) -> None:
        try:
            self._request("DELETE", self._session, tolerate_error=True)
        except (ProtocolError, ConnectFailed):
            pass
