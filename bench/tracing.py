"""In-memory spans around the program's public functions, installed from outside.

Each wrapper replaces a function at every ``synthweaver`` module attribute
that holds it (so ``synthweaver.collector.render`` and
``synthweaver.oracle.templates.render`` both point at one wrapper), or a
method on its class. Spans are ``(id, parent, name, stage, start, end,
extra)`` tuples kept in a list; the parent is the enclosing span on the same
thread. Calls made by a fake endpoint's threads are not program work and are
passed straight through, except the mock script, which is always timed as
harness.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

from endpoints import harness_thread, prompt_key

Info = Callable[[tuple, dict, Any], Any]


def _template(args: tuple, kwargs: dict, result: Any) -> Any:
    prompt = args[1] if len(args) > 1 else kwargs["prompt"]
    return prompt.template.value


def _text_len(args: tuple, kwargs: dict, result: Any) -> Any:
    return len(result.text)


def _prompt_key(args: tuple, kwargs: dict, result: Any) -> Any:
    return prompt_key(args[1].text)


def _export(args: tuple, kwargs: dict, result: Any) -> Any:
    return [result.n_records, result.n_observations]


def _action_kind(args: tuple, kwargs: dict, result: Any) -> Any:
    return args[1].kind.value if len(args) > 1 else None


# (span name, owner, attribute, extra-info function). An owner given as a
# string is a module whose function is replaced wherever it is imported.
TARGETS: list[tuple[str, str, str, Info | None]] = [
    ("pipeline.run_explore", "synthweaver.pipeline", "run_explore", None),
    ("pipeline.run_collect", "synthweaver.pipeline", "run_collect", None),
    ("pipeline.run_refine", "synthweaver.pipeline", "run_refine", None),
    ("pipeline.run_export", "synthweaver.pipeline", "run_export", None),
    ("pipeline.run_stats", "synthweaver.pipeline", "run_stats", None),
    ("pipeline.make_oracle", "synthweaver.pipeline", "make_oracle", None),
    ("pipeline.load_records", "synthweaver.pipeline", "_tasks_by_site", None),
    ("pipeline.load_records", "synthweaver.pipeline", "_raw_trajectories", None),
    ("pipeline.load_records", "synthweaver.pipeline", "_refined_trajectories", None),
    ("oracle.client.call", "OracleClient", "call", _template),
    ("oracle.http.complete", "HttpTransport", "complete", _prompt_key),
    ("oracle.mock.complete", "MockTransport", "complete", None),
    ("oracle.templates.render", "synthweaver.oracle.templates", "render", _text_len),
    ("oracle.replies.extract_json", "synthweaver.oracle.client", "extract_json", None),
    ("oracle.replies.parse_reply", "synthweaver.oracle.replies", "parse_reply", None),
    ("promptvars.element_lines", "synthweaver.promptvars", "element_lines", None),
    ("promptvars.page_context", "synthweaver.promptvars", "page_context", None),
    ("promptvars.img_info", "synthweaver.promptvars", "img_info", None),
    ("promptvars.describe_interaction", "synthweaver.promptvars", "describe_interaction", None),
    ("promptvars.state_action_block", "synthweaver.promptvars", "state_action_block", None),
    ("promptvars.history_hint", "synthweaver.promptvars", "history_hint", None),
    ("promptvars.task_examples_block", "synthweaver.promptvars", "task_examples_block", None),
    ("promptvars.task_list_block", "synthweaver.promptvars", "task_list_block", None),
    ("environment.session", "SimulatorSession", "__init__", None),
    ("environment.observe", "SimulatorSession", "observe", None),
    ("environment.execute", "SimulatorSession", "execute", _action_kind),
    ("environment.session", "BrowserSession", "__init__", None),
    ("environment.observe", "BrowserSession", "observe", None),
    ("environment.execute", "BrowserSession", "execute", _action_kind),
    ("model.observation_fingerprint", "synthweaver.model", "observation_fingerprint", None),
    ("model.canonical_json", "synthweaver.model", "canonical_json", None),
    ("actions.render_action", "synthweaver.actions", "render_action", None),
    ("actions.parse_action", "synthweaver.actions", "parse_action", None),
    ("explorer.explore_site", "Explorer", "explore_site", None),
    ("explorer.categorize_page", "synthweaver.explorer", "categorize_page", None),
    ("explorer.propose_task", "synthweaver.explorer", "propose_task", None),
    ("explorer.probe", "Explorer", "_run_probe", None),
    ("explorer.goto", "Explorer", "_goto", None),
    ("collector.collect_one", "Collector", "collect_one", None),
    ("collector.next_action", "Collector", "next_action", None),
    ("collector.check_refine", "Collector", "check_refine", None),
    ("refiner.refine_trajectory", "Refiner", "refine_trajectory", None),
    ("runstore.event", "RunStore", "event", None),
    ("dataset.export", "synthweaver.dataset", "export_dataset", _export),
    ("dataset.observation_ref", "synthweaver.dataset", "observation_ref", None),
    ("harness.mock", "MockScript", "reply_for", None),
]

# RunStore writers: span name and whether the method takes a list of records.
WRITERS = {
    "append_record": ("runstore.append", False),
    "append_records": ("runstore.append", True),
    "write_json": ("runstore.write_json", False),
    "rewrite_records": ("runstore.rewrite", True),
}


def _classes() -> dict[str, type]:
    from synthweaver.browser import BrowserSession
    from synthweaver.collector import Collector
    from synthweaver.environment import SimulatorSession
    from synthweaver.explorer import Explorer
    from synthweaver.oracle.client import HttpTransport, MockScript, MockTransport, OracleClient
    from synthweaver.refiner import Refiner
    from synthweaver.runstore import RunStore

    return {cls.__name__: cls for cls in (
        BrowserSession, Collector, SimulatorSession, Explorer, HttpTransport, MockScript,
        MockTransport, OracleClient, Refiner, RunStore)}


class Tracer:
    """Collects spans and counters while installed; restores every attribute on removal."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, str, float, float, Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.stage = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, info: Info | None, always: bool = False) -> Callable:
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not always and getattr(harness_thread, "active", False):
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, parent, name, self.stage, start, clock(), "error"))
                raise
            end = clock()
            stack.pop()
            extra = None if info is None else info(args, kwargs, result)
            spans.append((sid, parent, name, self.stage, start, end, extra))
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def _writer(self, name: str, fn: Callable, many: bool, encode: Callable) -> Callable:
        """Time a RunStore writer and count the bytes it writes.

        The bytes are those of the lines the writer is given, encoded as the
        store encodes them, so concurrent appends to one file are not counted
        twice.
        """
        inner = self.wrap(name, fn, None)

        def traced(store: Any, file_name: str, value: Any) -> Any:
            result = inner(store, file_name, value)
            values = value if many else [value]
            self.add("runstore.bytes_written",
                     sum(len(encode(v).encode("utf-8")) + 1 for v in values))
            return result

        return traced

    def _reader(self, fn: Callable) -> Callable:
        clock = time.perf_counter

        def traced(store: Any, file_name: str) -> Iterator[Any]:
            it = fn(store, file_name)
            while True:
                start = clock()
                try:
                    record = next(it)
                except StopIteration:
                    self.add("runstore.read_records.ms", 1000 * (clock() - start))
                    return
                self.add("runstore.read_records.ms", 1000 * (clock() - start))
                self.add("runstore.read_records.lines", 1)
                yield record

        return traced

    # ------------------------------------------------------------------
    # install / remove
    # ------------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        classes = _classes()
        for _name, owner, _attr, _info in TARGETS:
            if owner not in classes:
                importlib.import_module(owner)
        canonical_json = sys.modules["synthweaver.model"].canonical_json  # before it is wrapped
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("synthweaver") and m]
        for name, owner, attr, info in TARGETS:
            if owner in classes:
                cls = classes[owner]
                self._set(cls, attr, self.wrap(name, cls.__dict__[attr], info, name == "harness.mock"))
                continue
            fn = getattr(sys.modules[owner], attr)
            wrapper = self.wrap(name, fn, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, key, wrapper)
        store = classes["RunStore"]
        for attr, (name, many) in WRITERS.items():
            self._set(store, attr, self._writer(name, store.__dict__[attr], many, canonical_json))
        self._set(store, "read_records", self._reader(store.__dict__["read_records"]))

    def remove(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span, one JSON array per line, plus a self-time summary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"self_ms": self.self_ms()}) + "\n")
        os.replace(tmp, path)

    def self_ms(self) -> dict[str, float]:
        """Span duration minus the part covered by its child spans, summed per name."""
        child = defaultdict(float)
        for _sid, parent, _name, _stage, start, end, _extra in self.spans:
            if parent:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _parent, name, _stage, start, end, _extra in self.spans:
            out[name] += 1000 * (end - start - child.get(sid, 0.0))
        return dict(out)
