"""Dataset assembly: window splitting, deterministic export, statistics.

A trajectory of T steps yields T training examples. Example i carries the
final task text, the last `window` (observation, action) pairs before step
i, the step's observation, and its action as the target.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Any, Iterable

from .actions import render_action
from .model import (
    Observation,
    Terminal,
    TrainingExample,
    Trajectory,
    canonical_json,
)

DEFAULT_WINDOW = 3
DATASET_SCHEMA_VERSION = 1


def split_examples(trajectory: Trajectory, window: int = DEFAULT_WINDOW) -> list[TrainingExample]:
    if window < 0:
        raise ValueError("window must not be negative")
    task_text = trajectory.task.text
    examples: list[TrainingExample] = []
    for i, step in enumerate(trajectory.steps):
        lo = max(0, i - window)
        history = tuple(
            (prev.observation, prev.action) for prev in trajectory.steps[lo:i]
        )
        examples.append(
            TrainingExample(
                task_text=task_text,
                history=history,
                current_observation=step.observation,
                target_action=step.action,
            )
        )
    return examples


# ======================================================================
# export
# ======================================================================

def observation_ref(obs: Observation) -> str:
    """Content address used to dedupe observations in the sidecar file:
    the SHA-256 of the observation's canonical JSON, memoized on it."""
    return obs.ref


@dataclass(frozen=True)
class ExportResult:
    n_records: int
    n_observations: int
    manifest: dict[str, Any]


def _example_record(
    example: TrainingExample, meta: dict[str, Any], refs: "ObservationSink"
) -> dict[str, Any]:
    return {
        "task": example.task_text,
        "history": [
            {"obs_ref": refs.add(obs), "action": render_action(action)}
            for obs, action in example.history
        ],
        "observation_ref": refs.add(example.current_observation),
        "target_action": render_action(example.target_action),
        "meta": meta,
    }


class ObservationSink:
    """Dedupes observations by content hash, preserving first-seen order."""

    def __init__(self) -> None:
        self._by_ref: dict[str, Observation] = {}

    def add(self, obs: Observation) -> str:
        ref = observation_ref(obs)
        self._by_ref.setdefault(ref, obs)
        return ref

    def lines(self) -> Iterable[str]:
        """Each observation's stored line, as encoded once on the observation."""
        return (obs.stored_line for obs in self._by_ref.values())

    def __len__(self) -> int:
        return len(self._by_ref)


def export_dataset(
    trajectories: list[Trajectory],
    out_dir: str | Path,
    *,
    window: int = DEFAULT_WINDOW,
) -> ExportResult:
    """Write dataset.jsonl, observations.jsonl, and manifest.json.

    Output bytes are a pure function of the inputs: trajectories are sorted
    by (site, trajectory id) and all hashing uses canonical JSON. The
    manifest is removed before the data files are rewritten and written
    last, so one that is present describes them.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)
    ordered = sorted(trajectories, key=lambda t: (t.site, t.id))
    sink = ObservationSink()
    lines: list[str] = []
    for t in ordered:
        for step_index, example in enumerate(split_examples(t, window)):
            meta = {"site": t.site, "trajectory_id": t.id, "step_index": step_index}
            lines.append(canonical_json(_example_record(example, meta, sink)))

    dataset_bytes = ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
    obs_lines = list(sink.lines())
    obs_bytes = ("\n".join(obs_lines) + "\n" if obs_lines else "").encode("utf-8")

    (out_dir / "dataset.jsonl").write_bytes(dataset_bytes)
    (out_dir / "observations.jsonl").write_bytes(obs_bytes)

    dataset_sha = hashlib.sha256(dataset_bytes).hexdigest()
    obs_sha = hashlib.sha256(obs_bytes).hexdigest()
    combined = hashlib.sha256()
    combined.update(dataset_bytes)
    combined.update(b"\0")
    combined.update(obs_bytes)
    manifest = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "window": window,
        "n_records": len(lines),
        "n_observations": len(sink),
        "files": {
            "dataset.jsonl": {"sha256": dataset_sha, "records": len(lines)},
            "observations.jsonl": {"sha256": obs_sha, "records": len(sink)},
        },
        "content_hash": combined.hexdigest(),
    }
    (out_dir / "manifest.json").write_text(
        canonical_json(manifest) + "\n", encoding="utf-8"
    )
    return ExportResult(n_records=len(lines), n_observations=len(sink), manifest=manifest)


# ======================================================================
# statistics
# ======================================================================

def _pct(count: int, total: int) -> float:
    return round(100.0 * count / total, 1) if total else 0.0


def _mean(values: list[float]) -> float:
    return round(sum(values) / len(values), 2) if values else 0.0


def corpus_stats(
    raw: list[Trajectory],
    refined: list[Trajectory],
    decisions: list[dict[str, Any]],
    collect_cost: dict[str, Decimal],
) -> dict[str, Any]:
    """Per-site and overall corpus statistics.

    Terminal-class and decision percentages are over the raw trajectories;
    mean_steps is over the refined (exported) corpus. collect_cost is the
    ledger's collect-stage spend per site, failed tasks included.
    """
    sites = sorted({t.site for t in raw} | {t.site for t in refined} | set(collect_cost))
    out: dict[str, Any] = {
        "overall": _site_stats(raw, refined, decisions, sum(collect_cost.values(), Decimal("0")))
    }
    by_site = {}
    for site in sites:
        by_site[site] = _site_stats(
            [t for t in raw if t.site == site],
            [t for t in refined if t.site == site],
            [d for d in decisions if d.get("site") == site],
            collect_cost.get(site, Decimal("0")),
        )
    out["by_site"] = by_site
    return out


def _site_stats(
    raw: list[Trajectory],
    refined: list[Trajectory],
    decisions: list[dict[str, Any]],
    collect_cost: Decimal,
) -> dict[str, Any]:
    n_raw = len(raw)
    terminal_counts = {t.value: 0 for t in Terminal}
    for trajectory in raw:
        terminal_counts[trajectory.terminal.value] += 1
    decision_counts = {"keep": 0, "refine": 0, "drop": 0}
    scores: list[float] = []
    for record in decisions:
        decision = record.get("decision")
        if decision in decision_counts:
            decision_counts[decision] += 1
        if isinstance(record.get("score"), int):
            scores.append(float(record["score"]))
    return {
        "n_trajectories_raw": n_raw,
        "n_trajectories_refined": len(refined),
        "terminal_pct": {k: _pct(v, n_raw) for k, v in terminal_counts.items()},
        "decision_pct": {k: _pct(v, n_raw) for k, v in decision_counts.items()},
        "mean_refines": _mean([float(len(t.task.lineage)) for t in raw]),
        "mean_steps": _mean([float(len(t.steps)) for t in refined]),
        "mean_judge_score": _mean(scores),
        "collection_cost_usd": str(collect_cost),
    }
