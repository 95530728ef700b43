"""Stage drivers: wire config, oracle, environments, and the run store.

Each function runs one pipeline stage over a run directory and leaves the
store in a resumable state, and writes `stage.start`/`stage.end` events.
Worker counts above one parallelize across independent units (sites, tasks,
trajectories, judge calls). A stage has one thread pool, owned by its
`OracleClient`: `OracleClient.map` runs the units. On an HTTP oracle,
explore's task proposals overlap its site crawls on the threads the crawls
leave free and are committed as if asked in turn, while every other stage's
units, which submit nothing, take every thread. So any stage has at most
2 x `workers` oracle calls in flight on an HTTP oracle, and at most `workers`
on the mock backend. Explore, collect and refine write their records through
the map's ordered commit, so record files have the same bytes at any worker
count and on either backend.

Refine stores one judgment per raw trajectory, an edit over its raw step
indices, and no copy of the trajectory: export and stats apply each
judgment to its raw record as they read it (`_refined_trajectories`).
Export decodes only the raw records a judgment keeps; stats decodes each
raw record once and takes both its raw and its refined figures from that
pass.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict
from decimal import Decimal
from typing import Any, Callable, Iterator

from . import runstore as rs
from .actions import render_action
from .collector import Collector
from .config import RunConfig, SiteSpec
from .dataset import _mean, corpus_stats, export_dataset, ExportResult
from .environment import SimulatorSession, load_site_graph
from .errors import (
    ConfigError,
    EditContractViolation,
    InvalidAction,
    MalformedAction,
    SchemaError,
    SchemaViolation,
)
from .explorer import ExplorationResult, Explorer
from .model import (
    Task,
    Trajectory,
    task_from_dict,
    task_to_dict,
    trajectory_from_dict,
    trajectory_to_dict,
)
from .oracle import (
    CostLedger,
    HttpTransport,
    MockScript,
    MockTransport,
    OracleClient,
    RefineDecision,
    TemplateName,
    render,
)
from .promptvars import task_list_block
from .refiner import Judgment, Refiner, apply_edits, judge_trajectory, judgment_from_dict
from .runstore import ObservationStore, RunStore


def make_oracle(config: RunConfig, store: RunStore, stage: str) -> tuple[OracleClient, CostLedger]:
    """The oracle client of one stage, over the run's ledger."""
    settings = config.oracle
    budget = None if settings.budget_usd is None else Decimal(settings.budget_usd)
    snapshot = store.read_json(rs.LEDGER)
    if snapshot is not None:
        # Spend and counts carry over; the cap is always the config's, so a
        # run stopped by its budget can continue under a larger one.
        try:
            ledger = CostLedger.from_snapshot(snapshot)
        except SchemaError as exc:
            raise SchemaError(str(exc), path=str(store.path(rs.LEDGER))) from None
        ledger.budget_usd = budget
    else:
        ledger = CostLedger(budget_usd=budget)
    if settings.backend == "mock":
        transport: Any = MockTransport(MockScript.load(settings.mock_script))
    else:
        transport = HttpTransport(settings)
    return OracleClient(transport, ledger, settings, stage=stage, workers=config.workers), ledger


def make_session_factory(site: SiteSpec, config: RunConfig) -> Callable[[], Any]:
    if site.graph:
        graph = load_site_graph(site.graph)
        return lambda: SimulatorSession(graph)
    from .browser import BrowserSession

    return lambda: BrowserSession(config.browser, site.start_url)


@contextmanager
def _stage_events(store: RunStore, name: str, ledger: CostLedger) -> Iterator[None]:
    """Write `stage.start` and `stage.end` around a stage, also when it raises;
    the events file stays open in between.

    `stage.end` carries the wall time and the oracle calls and USD the stage
    added to `ledger`.
    """
    calls, usd = ledger.calls, ledger.total_cost
    with store.kept_open(rs.EVENTS):
        store.event("stage.start", {"stage": name})
        started = time.perf_counter()
        outcome = "error"
        try:
            yield
            outcome = "ok"
        finally:
            store.event(
                "stage.end",
                {
                    "stage": name,
                    "duration_ms": round(1000 * (time.perf_counter() - started), 3),
                    "oracle_calls": ledger.calls - calls,
                    "cost_usd": str(ledger.total_cost - usd),
                    "outcome": outcome,
                },
            )


@contextmanager
def _stage(config: RunConfig, store: RunStore, name: str) -> Iterator[OracleClient]:
    """Yield the oracle client of one stage.

    On the way out, also when the body raises, the client is closed: this is
    the one place that waits for overlapped calls still in flight. Then the
    ledger snapshot is written, so a resumed run counts every call paid for.
    """
    client, ledger = make_oracle(config, store, name)
    with _stage_events(store, name, ledger):
        try:
            yield client
        finally:
            client.close()
            store.write_json(rs.LEDGER, ledger.snapshot())


@contextmanager
def _reading(store: RunStore, name: str) -> Iterator[Iterator[dict[str, Any]]]:
    """Yield the records of `name`; one the block cannot read, say one that
    lacks a key, holds a malformed action or fails a decoder's check, is a
    SchemaError naming the file."""
    path = str(store.path(name))
    try:
        yield store.read_records(name)
    except SchemaError as exc:
        if exc.path is not None:
            raise
        raise SchemaError(str(exc), path=path) from None
    except (LookupError, TypeError, ValueError, MalformedAction, InvalidAction,
            EditContractViolation) as exc:
        raise SchemaError(
            f"a record does not have the expected shape ({type(exc).__name__}: {exc})",
            path=path,
        ) from None


# ======================================================================
# explore
# ======================================================================

def run_explore(config: RunConfig, store: RunStore) -> dict[str, int]:
    state = store.load_state()
    if state.get("seed", config.seed) != config.seed:
        raise ConfigError(
            f"run {store.root} was explored with seed {state['seed']}; "
            f"it cannot resume with seed {config.seed}"
        )
    done = set(state["explored_sites"])
    todo = [site for site in config.sites if site.name not in done]
    # Open every site before anything is written, so a bad graph leaves no trace.
    factories = {site.name: make_session_factory(site, config) for site in todo}

    # A crash mid-site may have left partial records; exploration is
    # all-or-nothing per site, so records for unfinished sites are wiped.
    todo_names = {site.name for site in todo}
    for name in (rs.TASKS, rs.TRIPLETS):
        with _reading(store, name) as records:
            records = list(records)
            kept = [r for r in records if r.get("site") not in todo_names]
        if len(kept) != len(records):
            store.rewrite_records(name, kept)

    observations = store.observations()

    with _stage(config, store, "explore") as client:
        explorer = Explorer(client, config, on_event=store.event)

        def explore_one(site: SiteSpec) -> ExplorationResult:
            session = factories[site.name]()
            try:
                return explorer.explore_site(site, session)
            finally:
                session.close()

        def commit(result: ExplorationResult) -> tuple[int, int]:
            tasks = [task_to_dict(t) for t in result.tasks]
            triplets = [
                {
                    "id": record.id,
                    "site": record.site,
                    "category": record.category,
                    "task_id": record.task_id,
                    "before_ref": record.triplet.before.ref,
                    "action": render_action(record.triplet.action),
                    "after_ref": record.triplet.after.ref,
                }
                for record in result.triplets
            ]
            observations.add(
                obs for record in result.triplets
                for obs in (record.triplet.before, record.triplet.after)
            )
            store.append_records(rs.TASKS, tasks)
            store.append_records(rs.TRIPLETS, triplets)
            state = store.load_state()
            state["explored_sites"].append(result.site)
            state["seed"] = config.seed
            store.save_state(state)
            return len(tasks), len(triplets)

        counts = client.map(explore_one, todo, submits=True, commit=commit)
    return {
        "sites": len(counts),
        "tasks": sum(n for n, _ in counts),
        "triplets": sum(n for _, n in counts),
    }


# ======================================================================
# collect
# ======================================================================

def _tasks_by_site(store: RunStore) -> dict[str, list[Task]]:
    grouped: dict[str, list[Task]] = {}
    with _reading(store, rs.TASKS) as records:
        for record in records:
            task = task_from_dict(record)
            grouped.setdefault(task.site, []).append(task)
    return grouped


def run_collect(config: RunConfig, store: RunStore) -> dict[str, int]:
    store.load_state()  # refuses a run of another format
    # A task is done once collected, or once its reply never validated.
    with _reading(store, rs.TRAJECTORIES_RAW) as records:
        done = {record["task"]["id"] for record in records}
    with _reading(store, rs.COLLECT_FAILURES) as records:
        done |= {record["task_id"] for record in records}
    sites = {site.name: site for site in config.sites}
    jobs: list[tuple[Task, Callable[[], Any]]] = []
    for name, tasks in _tasks_by_site(store).items():
        site = sites.get(name)
        if site is None:
            store.event("collect.unknown_site", {"site": name, "n_tasks": len(tasks)})
            continue
        factory = make_session_factory(site, config)
        jobs += [(task, factory) for task in tasks if task.id not in done]
    observations = store.observations()

    with _stage(config, store, "collect") as client:
        collector = Collector(client, config, on_event=store.event)

        def commit(result: Trajectory | dict[str, Any]) -> int:
            if isinstance(result, Trajectory):
                observations.add(step.observation for step in result.steps)
                store.append_record(rs.TRAJECTORIES_RAW, trajectory_to_dict(result))
                return 1
            store.append_record(rs.COLLECT_FAILURES, result)
            return 0

        collected = sum(client.map(lambda job: collector.collect_one(*job), jobs, commit=commit))
    return {"tasks": len(jobs), "trajectories": collected}


# ======================================================================
# refine
# ======================================================================

def _raw_trajectories(store: RunStore, observations: ObservationStore) -> list[Trajectory]:
    with _reading(store, rs.TRAJECTORIES_RAW) as records:
        return [trajectory_from_dict(r, observations) for r in records]


def _refined_trajectories(
    store: RunStore, observations: ObservationStore, *, with_raw: bool = False
) -> tuple[list[Trajectory], list[dict[str, Any]], list[Trajectory]]:
    """The refined trajectories in raw order, each its judgment applied to its
    raw record, every judgment's decision and score, and, `with_raw`, every
    raw trajectory. Each raw record is decoded at most once; without
    `with_raw`, only those a judgment keeps are, and the last list is empty."""
    with _reading(store, rs.JUDGMENTS) as records:
        judgments = {j.trajectory_id: j for j in map(judgment_from_dict, records)}
    raw, kept = [], []
    with _reading(store, rs.TRAJECTORIES_RAW) as records:
        for record in records:
            judgment = judgments.get(record["task"]["id"])
            keeps = judgment is not None and judgment.decision is not RefineDecision.DROP
            if keeps or with_raw:
                trajectory = trajectory_from_dict(record, observations)
                if with_raw:
                    raw.append(trajectory)
                if keeps:
                    kept.append((trajectory, judgment))
    with _reading(store, rs.JUDGMENTS):  # a judgment that does not apply is misshapen
        trajectories = [apply_edits(t, judgment) for t, judgment in kept]
    decisions = [
        {"site": j.site, "decision": j.decision.value, "score": j.score}
        for j in judgments.values()
    ]
    return trajectories, decisions, raw


def run_refine(config: RunConfig, store: RunStore) -> dict[str, int]:
    store.load_state()  # refuses a run of another format
    with _reading(store, rs.JUDGMENTS) as records:
        done = {r["trajectory_id"] for r in records}
    observations = store.observations()
    jobs = [t for t in _raw_trajectories(store, observations) if t.id not in done]

    with _stage(config, store, "refine") as client:
        refiner = Refiner(client, on_event=store.event)

        def commit(judgment: Judgment) -> str:
            store.append_record(rs.JUDGMENTS, asdict(judgment))
            return judgment.decision.value

        decisions = client.map(refiner.refine_trajectory, jobs, commit=commit)
    return {
        "trajectories": len(jobs),
        "kept": decisions.count("keep"),
        "refined": decisions.count("refine"),
        "dropped": decisions.count("drop"),
    }


# ======================================================================
# export and stats
# ======================================================================

def run_export(config: RunConfig, store: RunStore, *, window: int | None = None) -> ExportResult:
    state = store.load_state()
    refined, _, _ = _refined_trajectories(store, store.observations())
    # Export calls no oracle: its events count against an empty ledger.
    with _stage_events(store, "export", CostLedger()):
        # No manifest outlives the files it describes: both go before the
        # dataset is rewritten, and come back only once it is whole.
        store.path(rs.MANIFEST).unlink(missing_ok=True)
        result = export_dataset(
            refined,
            store.dataset_dir(),
            window=config.context_window if window is None else window,
        )
        store.write_json(
            rs.MANIFEST,
            {
                # The seed explore sampled with; the config's if explore has
                # committed no site.
                "seed": state.get("seed", config.seed),
                "sites": [site.name for site in config.sites],
                "dataset": result.manifest,
            },
        )
    return result


def _judge_diversity(client: OracleClient, config: RunConfig, store: RunStore) -> dict[str, Any]:
    """Each site's diversity over its first tasks; None if no reply validates."""
    tasks_by_site = _tasks_by_site(store)
    names = sorted(tasks_by_site)

    def judge(name: str) -> dict[str, Any] | None:
        sample = [t.text for t in tasks_by_site[name][: config.diversity_sample_size]]
        prompt = render(
            TemplateName.JUDGE_DIVERSITY, {"task_list_block": task_list_block(sample)}
        )
        try:
            reply = client.call(prompt, site=name)
        except SchemaViolation:
            store.event("stats.judge_failed", {"site": name, "judge": "diversity"})
            return None
        return {**reply, "n_sampled": len(sample)}

    return dict(zip(names, client.map(judge, names)))


def _judge_quality(
    client: OracleClient, refined: list[Trajectory], on_event: rs.EventHook
) -> dict[str, Any]:
    """Mean quality, overall and by site, of trajectories whose reply validates."""
    judged = client.map(
        lambda t: judge_trajectory(client, TemplateName.JUDGE_QUALITY, t), refined
    )
    scores_by_site: dict[str, list[float]] = {}
    for trajectory, score in zip(refined, judged):
        if score is None:
            on_event("stats.judge_failed", {
                "site": trajectory.site, "judge": "quality", "trajectory_id": trajectory.id,
            })
        else:
            scores_by_site.setdefault(trajectory.site, []).append(score)
    all_scores = [s for scores in scores_by_site.values() for s in scores]
    return {
        "overall": {"mean_score": _mean(all_scores), "n_judged": len(all_scores)},
        "by_site": {
            site: {"mean_score": _mean(scores), "n_judged": len(scores)}
            for site, scores in sorted(scores_by_site.items())
        },
    }


def run_stats(
    config: RunConfig,
    store: RunStore,
    *,
    judge_quality: bool = False,
    with_diversity: bool = True,
) -> dict[str, Any]:
    store.load_state()  # refuses a run of another format
    refined, decisions, raw = _refined_trajectories(store, store.observations(), with_raw=True)
    with _stage(config, store, "stats") as client:
        stats = corpus_stats(raw, refined, decisions, client.ledger.stage_cost_by_site("collect"))
        if with_diversity:
            stats["diversity"] = _judge_diversity(client, config, store)
        if judge_quality:
            stats["quality"] = _judge_quality(client, refined, store.event)
        store.write_json(rs.STATS, stats)
    return stats
