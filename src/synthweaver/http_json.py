"""JSON over HTTP for the WebDriver and oracle clients, on the standard library.

Each request opens its own connection, and urllib asks the server to close it
after the reply. There is no keep-alive yet: when a server writes a reply's
headers and body in two writes, as the benchmark's fake endpoints do, Nagle's
algorithm holds the body of a reused connection until the client's delayed
ACK, about 40 ms a request, where a fresh local connection costs well under a
millisecond.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from typing import Any, Mapping

from . import __version__


class NoReply(Exception):
    """No whole HTTP reply arrived: refused, reset, truncated or timed out."""


# HTTP and HTTPS only, through the proxies the environment names at import;
# no file:, ftp: or data: URLs.
_OPENER = urllib.request.OpenerDirector()
for _handler in (
    urllib.request.ProxyHandler(),
    urllib.request.UnknownHandler(),
    urllib.request.HTTPHandler(),
    urllib.request.HTTPSHandler(),
    urllib.request.HTTPDefaultErrorHandler(),
    urllib.request.HTTPRedirectHandler(),
    urllib.request.HTTPErrorProcessor(),
):
    _OPENER.add_handler(_handler)
_OPENER.addheaders = [("User-Agent", f"synthweaver/{__version__}")]


def request_json(
    method: str, url: str, payload: Any, headers: Mapping[str, str], timeout: float
) -> tuple[int, bytes]:
    """Send `payload` as a JSON body (no body when it is None).

    Returns the reply's status and body; an error status is returned like any
    other. Raises NoReply when no whole reply arrives within `timeout` seconds
    per socket operation.

    Redirects follow urllib's rules, up to 10 hops: a GET follows a 301, 302, 303,
    307 or 308, a POST only a 301, 302 or 303 and then as a GET without its body; any
    other redirect is returned as its status. `headers` go to `url` only and
    never to a redirect's target, so a credential cannot leak to another host.
    """
    try:
        data = None
        if payload is not None:
            data = json.dumps(payload, allow_nan=False).encode()
            headers = {**headers, "Content-Type": "application/json"}
        request = urllib.request.Request(url, data, method=method)
        for name, value in headers.items():
            request.add_unredirected_header(name, value)
        try:
            reply = _OPENER.open(request, timeout=timeout)
        except urllib.error.HTTPError as exc:  # an error status still carries a body
            reply = exc
        with reply:
            return reply.status, reply.read()
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise NoReply(str(exc) or type(exc).__name__) from exc
