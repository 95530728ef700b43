"""Output checks on one finished run directory.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable

from synthweaver.actions import ActionKind, parse_action, render_action


def _lines(path: Path) -> list[dict[str, Any]]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def content_hash_matches(run: Path) -> list[str]:
    data = run / "dataset"
    dataset = (data / "dataset.jsonl").read_bytes()
    observations = (data / "observations.jsonl").read_bytes()
    combined = hashlib.sha256(dataset + b"\0" + observations).hexdigest()
    manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    run_manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    out = []
    if manifest["content_hash"] != combined:
        out.append("dataset manifest content_hash does not match the files on disk")
    if run_manifest["dataset"]["content_hash"] != combined:
        out.append("run manifest content_hash does not match the files on disk")
    return out


def obs_refs_resolve(run: Path) -> list[str]:
    known = {r["ref"] for r in _lines(run / "dataset" / "observations.jsonl")}
    missing = 0
    for record in _lines(run / "dataset" / "dataset.jsonl"):
        refs = [record["observation_ref"]] + [h["obs_ref"] for h in record["history"]]
        missing += sum(1 for ref in refs if ref not in known)
    return [f"{missing} obs_ref values do not resolve"] if missing else []


def actions_round_trip(run: Path) -> list[str]:
    bad = [
        r["target_action"]
        for r in _lines(run / "dataset" / "dataset.jsonl")
        if render_action(parse_action(r["target_action"])) != r["target_action"]
    ]
    return [f"{len(bad)} target actions do not round-trip, e.g. {bad[0]!r}"] if bad else []


def trajectories_end_in_answer(run: Path) -> list[str]:
    last: dict[str, tuple[int, str]] = {}
    for record in _lines(run / "dataset" / "dataset.jsonl"):
        meta = record["meta"]
        key = f'{meta["site"]}/{meta["trajectory_id"]}'
        if key not in last or meta["step_index"] > last[key][0]:
            last[key] = (meta["step_index"], record["target_action"])
    bad = []
    for key, (_index, wire) in last.items():
        action = parse_action(wire)
        if action.kind is not ActionKind.NONE or not action.value:
            bad.append(key)
    return [f"{len(bad)} exported trajectories do not end in a non-empty none"] if bad else []


def ledger_matches_served(run: Path, served: int) -> list[str]:
    calls = json.loads((run / "ledger.json").read_text(encoding="utf-8"))["calls"]
    if calls != served:
        return [f"ledger charges {calls} calls but the harness served {served} completions"]
    return []


RUN_CHECKS: list[Callable[[Path], list[str]]] = [
    content_hash_matches,
    obs_refs_resolve,
    actions_round_trip,
    trajectories_end_in_answer,
]
