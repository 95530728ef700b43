"""Both HTTP clients against real sockets: each way a request can fail maps
to the error its client raises, and the package runs without `requests`."""
from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from synthweaver import __version__
from synthweaver.browser import BrowserSession
from synthweaver.config import BrowserSettings, OracleSettings
from synthweaver.errors import ConnectFailed, ProtocolError, TransportError
from synthweaver.oracle import HttpTransport
from synthweaver.oracle.templates import RenderedPrompt, TemplateName

SRC = Path(__file__).resolve().parents[1] / "src"
PROMPT = RenderedPrompt(template=TemplateName.NEXT_ACTION, text="do it", variables={})

# What a faulty server sends after reading the request; "hold" sends nothing
# until the client gives up.
FAULTS = {
    "close": b"",
    "truncated": b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"value": ',
    "hold": b"",
    "not_json": b"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\nnot json",
}


def reply(body: bytes) -> bytes:
    head = f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode() + body


class WireServer:
    """Serves one connection at a time on 127.0.0.1. A request whose path ends
    with `fault_path` gets the `fault` treatment; with `redirect` set, every
    request is sent there with status `redirect_status`; any other gets a
    well-formed WebDriver or chat reply. Records each request's head."""

    def __init__(self) -> None:
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.sock.getsockname()[1]}"
        self.fault = ""
        self.fault_path = ""
        self.redirect = ""
        self.redirect_status = 302
        self.heads: list[bytes] = []
        self.closed = threading.Event()
        self.sock.settimeout(0.02)  # accept() polls `closed`
        self.thread = threading.Thread(target=self._serve)
        self.thread.start()

    def _serve(self) -> None:
        while not self.closed.is_set():
            try:
                conn, _ = self.sock.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(10)
                self._handle(conn)

    def _handle(self, conn: socket.socket) -> None:
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        self.heads.append(head)
        length = next((int(line.split(b":")[1]) for line in head.split(b"\r\n")
                       if line.lower().startswith(b"content-length:")), 0)
        while len(body) < length:
            body += conn.recv(65536)
        path = head.split(b" ")[1].decode()
        if self.redirect:
            conn.sendall(f"HTTP/1.1 {self.redirect_status} Moved\r\nLocation: {self.redirect}\r\n"
                         "Content-Length: 0\r\n\r\n".encode())
        elif self.fault and path.endswith(self.fault_path):
            if self.fault == "hold":
                conn.recv(1)  # returns once the client closes
            conn.sendall(FAULTS[self.fault])
        elif path.endswith("/chat/completions"):
            conn.sendall(reply(b'{"choices": [{"message": {"content": "hi"}}]}'))
        elif path == "/session":
            conn.sendall(reply(b'{"value": {"sessionId": "s1"}}'))
        else:
            conn.sendall(reply(b'{"value": null}'))

    def close(self) -> None:
        self.closed.set()
        self.thread.join(timeout=10)
        self.sock.close()


@pytest.fixture
def wire():
    server = WireServer()
    try:
        yield server
    finally:
        server.close()


@pytest.fixture
def target():
    server = WireServer()
    try:
        yield server
    finally:
        server.close()


def refused_url() -> str:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"http://127.0.0.1:{port}"


def start_browser(url: str) -> BrowserSession:
    # The browser's shortest timeout is one second.
    return BrowserSession(BrowserSettings(endpoint_url=url, nav_timeout_ms=1000), "https://a.test/")


CASES = ["refused", *FAULTS]


# TestHttpTransport in test_oracle.py covers the oracle's read timeout.
@pytest.mark.parametrize("fault", [case for case in CASES if case != "hold"])
def test_oracle_failure_is_a_transport_error(wire, fault):
    wire.fault, wire.fault_path = fault, "/chat/completions"
    url = refused_url() if fault == "refused" else wire.url
    transport = HttpTransport(OracleSettings(
        endpoint_url=f"{url}/v1/chat/completions", model="m", timeout_s=0.2))
    message = "malformed completion payload" if fault == "not_json" else "completion request failed"
    with pytest.raises(TransportError, match=message):
        transport.complete(PROMPT)


@pytest.mark.parametrize("fault", CASES)
def test_browser_failure_at_session_creation(wire, fault):
    wire.fault, wire.fault_path = fault, "/session"
    url = refused_url() if fault == "refused" else wire.url
    if fault == "not_json":
        with pytest.raises(ProtocolError, match="non-JSON reply from POST /session"):
            start_browser(url)
    else:
        with pytest.raises(ConnectFailed, match="cannot reach WebDriver endpoint"):
            start_browser(url)


@pytest.mark.parametrize("fault", CASES)
def test_browser_failure_after_session_creation(wire, fault):
    session = start_browser(wire.url)
    if fault == "refused":
        wire.close()
    wire.fault, wire.fault_path = fault, "/execute/sync"
    message = "non-JSON reply" if fault == "not_json" else "WebDriver request failed"
    with pytest.raises(ProtocolError, match=message):
        session.observe()
    session.close()


def test_a_file_url_is_not_read(tmp_path):
    reply_file = tmp_path / "reply.json"
    reply_file.write_text('{"choices": [{"message": {"content": "hi"}}]}')
    transport = HttpTransport(OracleSettings(endpoint_url=reply_file.as_uri(), model="m"))
    with pytest.raises(TransportError, match="completion request failed"):
        transport.complete(PROMPT)


def header(head: bytes, name: bytes) -> bytes | None:
    return next((line.split(b":", 1)[1].strip() for line in head.split(b"\r\n")[1:]
                 if line.split(b":", 1)[0].strip().lower() == name), None)


def test_a_redirected_completion_leaves_its_credential_behind(wire, target, monkeypatch):
    monkeypatch.setenv("SW_TEST_KEY", "sekret")
    wire.redirect = f"{target.url}/v2/chat/completions"
    completion = HttpTransport(OracleSettings(
        endpoint_url=f"{wire.url}/v1/chat/completions", model="m",
        api_key_env="SW_TEST_KEY")).complete(PROMPT)
    assert completion.text == "hi"
    [sent], [followed] = wire.heads, target.heads
    assert header(sent, b"authorization") == b"Bearer sekret"
    assert followed.startswith(b"GET /v2/chat/completions ")
    assert header(followed, b"authorization") is None
    assert header(followed, b"user-agent") == f"synthweaver/{__version__}".encode()


@pytest.mark.parametrize("status", [307, 308])
def test_a_post_is_not_resent_on_307_or_308(wire, target, status):
    wire.redirect, wire.redirect_status = f"{target.url}/v1/chat/completions", status
    transport = HttpTransport(OracleSettings(
        endpoint_url=f"{wire.url}/v1/chat/completions", model="m"))
    with pytest.raises(TransportError, match=f"completion endpoint returned {status}"):
        transport.complete(PROMPT)
    wire.redirect, wire.redirect_status = f"{target.url}/session", status
    with pytest.raises(ProtocolError, match=f"POST /session -> {status}"):
        start_browser(wire.url)
    assert target.heads == []


def test_both_clients_name_themselves(wire):
    start_browser(wire.url).close()
    HttpTransport(OracleSettings(endpoint_url=f"{wire.url}/v1/chat/completions",
                                 model="m")).complete(PROMPT)
    agents = {line for head in wire.heads for line in head.split(b"\r\n")
              if line.lower().startswith(b"user-agent:")}
    assert len(wire.heads) == 5  # session, window size, url, delete, completion
    assert agents == {f"User-Agent: synthweaver/{__version__}".encode()}


def test_package_runs_without_requests():
    script = (
        "import socket, sys\n"
        "import synthweaver.cli, synthweaver.browser\n"
        "from synthweaver.config import OracleSettings\n"
        "from synthweaver.errors import TransportError\n"
        "from synthweaver.oracle.client import HttpTransport\n"
        "from synthweaver.oracle.templates import RenderedPrompt, TemplateName\n"
        "probe = socket.socket(); probe.bind(('127.0.0.1', 0))\n"
        "url = 'http://127.0.0.1:%d/v1' % probe.getsockname()[1]; probe.close()\n"
        "prompt = RenderedPrompt(template=TemplateName.NEXT_ACTION, text='x', variables={})\n"
        "try:\n"
        "    HttpTransport(OracleSettings(endpoint_url=url, model='m')).complete(prompt)\n"
        "except TransportError:\n"
        "    pass\n"
        "else:\n"
        "    sys.exit('a refused port gave no TransportError')\n"
        "sys.exit('requests was imported' if 'requests' in sys.modules else 0)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
