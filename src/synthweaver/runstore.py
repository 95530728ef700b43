"""On-disk layout of a run and the I/O used by every stage.

One run directory holds JSONL record files per stage, a state file for
resume bookkeeping, an events log (the only file allowed wall-clock
timestamps), and the cost ledger snapshot. A stage keeps the events log
open while it runs (`kept_open`), and every line is flushed as it is written.
The state file carries the run format's `schema_version`, which every stage
checks, through `load_state`, before it writes anything.

Each trajectory is stored once, in `trajectories_raw.jsonl`. Refine's
`judgments.jsonl` holds one judgment per raw trajectory, an edit over its raw
step indices, which export and stats apply as they read the raw records.

Observations are stored once per run, in `observations.jsonl`, one line per
distinct observation in the form the dataset export writes (see
`model.Observation.stored_line`). Trajectory steps and triplets hold only
the ref, and a line is appended before any record that refers to it, so a
crash never leaves a record whose observation is missing. Lines no record
refers to are allowed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator

from .errors import SchemaError
from .model import Observation, canonical_json, check_schema_version, read_json_file

# The format of a run directory; a change to what one holds bumps it.
SCHEMA_VERSION = 4

OBSERVATIONS = "observations.jsonl"
TASKS = "tasks.jsonl"
TRIPLETS = "triplets.jsonl"
TRAJECTORIES_RAW = "trajectories_raw.jsonl"
COLLECT_FAILURES = "collect_failures.jsonl"
JUDGMENTS = "judgments.jsonl"
EVENTS = "events.jsonl"
STATE = "state.json"
MANIFEST = "manifest.json"
LEDGER = "ledger.json"
STATS = "stats.json"
DATASET_DIR = "dataset"

# Stages report progress through a hook; RunStore.event is the usual sink.
EventHook = Callable[[str, dict[str, Any]], None]


def noop_event(_kind: str, _data: dict[str, Any]) -> None:
    return None


class RunStore:
    """All reads and writes for one run directory; append paths are locked."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._open: dict[str, IO[str]] = {}

    def path(self, name: str) -> Path:
        return self.root / name

    def _lock_for(self, name: str) -> threading.Lock:
        with self._locks_guard:
            if name not in self._locks:
                self._locks[name] = threading.Lock()
            return self._locks[name]

    # ------------------------------------------------------------------
    # JSONL records
    # ------------------------------------------------------------------

    def append_record(self, name: str, record: dict[str, Any]) -> None:
        self._append(name, canonical_json(record) + "\n")

    def append_records(self, name: str, records: list[dict[str, Any]]) -> None:
        if records:
            self._append(name, "".join(canonical_json(r) + "\n" for r in records))

    def _append(self, name: str, payload: str) -> None:
        with self._lock_for(name):
            fh = self._open.get(name)
            if fh is None:
                with open(self.path(name), "a", encoding="utf-8") as out:
                    out.write(payload)
            else:
                fh.write(payload)
                fh.flush()

    @contextmanager
    def kept_open(self, name: str) -> Iterator[None]:
        """Append to `name` through one open handle until the block ends."""
        with self._lock_for(name):
            self._open[name] = open(self.path(name), "a", encoding="utf-8")
        try:
            yield
        finally:
            with self._lock_for(name):
                self._open.pop(name).close()

    def read_records(self, name: str) -> Iterator[dict[str, Any]]:
        """Yield every record; a line that is not a JSON object is a
        SchemaError, except a torn last line, which `_lines` repairs."""
        path = self.path(name)
        for number, line in _lines(path, self._lock_for(name)):
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if not isinstance(record, dict):
                raise SchemaError(f"line {number} is not a JSON record", path=str(path))
            yield record

    def rewrite_records(self, name: str, records: list[dict[str, Any]]) -> None:
        """Atomically replace a record file (used when resume wipes partials).
        A file kept open (`kept_open`) must not be rewritten."""
        payload = "".join(canonical_json(r) + "\n" for r in records)
        with self._lock_for(name):
            self._atomic_write(self.path(name), payload)

    def observations(self) -> "ObservationStore":
        """The stored observations as of now; build it once per stage."""
        return ObservationStore(self)

    # ------------------------------------------------------------------
    # JSON documents
    # ------------------------------------------------------------------

    def write_json(self, name: str, value: Any) -> None:
        with self._lock_for(name):
            self._atomic_write(self.path(name), canonical_json(value) + "\n")

    def read_json(self, name: str, default: Any = None) -> Any:
        path = self.path(name)
        if not path.exists():
            return default
        return read_json_file(path)

    @staticmethod
    def _atomic_write(path: Path, payload: str) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # state and events
    # ------------------------------------------------------------------

    def load_state(self) -> dict[str, Any]:
        """The resume bookkeeping: the sites explored, and the seed explore
        used once it has committed a site. A run without a state file starts
        fresh; one stamped with another format, or none, is a SchemaError."""
        path = str(self.path(STATE))
        state = self.read_json(STATE, default={"schema_version": SCHEMA_VERSION})
        check_schema_version(state, SCHEMA_VERSION, path)
        names = state.setdefault("explored_sites", [])
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise SchemaError("must be a list of names", path=path, field="explored_sites")
        seed = state.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SchemaError("must be an integer", path=path, field="seed")
        return state

    def save_state(self, state: dict[str, Any]) -> None:
        self.write_json(STATE, state)

    def event(self, kind: str, data: dict[str, Any]) -> None:
        record = {"ts": round(time.time(), 3), "kind": kind, **data}
        self.append_record(EVENTS, record)

    def dataset_dir(self) -> Path:
        path = self.root / DATASET_DIR
        path.mkdir(parents=True, exist_ok=True)
        return path


def _lines(path: Path, lock: threading.Lock) -> Iterator[tuple[int, bytes]]:
    """Yield the number and the bytes, newline cut, of each non-blank line of
    a JSONL file; a missing file has none.

    A torn append, a last line without its newline, is repaired under `lock`,
    which the caller must not hold: it is cut off when it does not decode,
    else ended with its newline so the next append starts on a fresh line.
    """
    if not path.exists():
        return
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.endswith(b"\n"):
                with lock:
                    try:
                        json.loads(line)
                    except ValueError:
                        with open(path, "r+b") as out:
                            out.truncate(fh.tell() - len(line))
                        return
                    with open(path, "ab") as out:
                        out.write(b"\n")
            if line.strip():
                yield number, line.rstrip(b"\n")


class ObservationStore:
    """The run's `observations.jsonl`, indexed by ref.

    Building the index reads each line's ref from its fixed place at the
    line's end and decodes no body; `_lines` repairs a torn last line. Every
    lookup of a ref returns the same `Observation.stored`, so a body is
    decoded at most once per index, and only when a field of it is read.
    """

    def __init__(self, store: RunStore) -> None:
        self.path = store.path(OBSERVATIONS)
        self._lock = store._lock_for(OBSERVATIONS)
        self._by_ref: dict[str, Observation] = {}
        for number, line in _lines(self.path, self._lock):
            try:
                obs = Observation.stored(line.decode("utf-8"))
            except ValueError:
                raise SchemaError(
                    f"line {number} is not a stored observation", path=str(self.path)
                ) from None
            self._by_ref[obs.ref] = obs

    def __getitem__(self, ref: str) -> Observation:
        return self._by_ref[ref]

    def __contains__(self, ref: object) -> bool:
        return ref in self._by_ref

    def add(self, observations: Iterable[Observation]) -> None:
        """Append the lines of observations not stored yet, in one write.

        Call this before appending the records that refer to them. The check
        and the append hold the file's lock, so no ref is stored twice.
        """
        given = {obs.ref: obs for obs in observations}  # encoded outside the lock
        with self._lock:
            new = {ref: obs.stored_line for ref, obs in given.items() if ref not in self._by_ref}
            if not new:
                return
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in new.values()))
            for ref, line in new.items():
                self._by_ref[ref] = Observation.stored(line)
