"""synthweaver benchmark: generated workloads through all five pipeline stages.

Usage (from the repository root):

    python3 bench/run.py --workload sim_cpu --seed 1 --seconds 40 --trace 0

The workload's inputs (site graph, oracle script, fake endpoints, config)
are generated from ``--seed``. The run then repeats explore -> collect ->
refine -> export -> stats through the public ``synthweaver.pipeline.run_*``
drivers until ``--seconds`` have passed, checks every run's outputs, and
prints one JSON object as its last line of output. The first dataset
``content_hash`` of a workload and seed is kept in
``.bench_runs/hashes/<workload>-<seed>``; every later run of that seed, in
any invocation, must reproduce it. Delete that directory after changing what
the program writes.

``--trace 0`` reports the end-to-end metrics, timed with tracing off: stage
and pipeline times are means over the runs, ``setup_s`` is the median of
several set-ups. Lines starting with ``#`` list every run. A workload may
run refine, export and stats several times per pipeline, on copies of the
collect output, and may pin the process to one CPU; see ``workloads``.
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of the last traced run, plus ``trace.overhead_s`` (mean traced minus
mean untraced pipeline time); that run's spans are written to
``.bench_runs/spans-<workload>.jsonl``.

Everything runs in this process and offline: the oracle is the program's
mock backend or an OpenAI-compatible endpoint on 127.0.0.1, and the browser
is a WebDriver endpoint on 127.0.0.1 backed by the simulator.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
STAGES = ("explore", "collect", "refine", "export", "stats")
# Set-ups made before the first pipeline; one more follows every pipeline, so
# the median of all of them samples the machine across the whole run.
SETUPS = 9
MIN_RUNS = 2  # the content_hash check needs a repeat

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "explore_s": "s",
    "collect_s": "s",
    "refine_s": "s",
    "export_s": "s",
    "records_per_s": "1/s",
    "oracle_calls_per_record": "count",
    "tokens_per_record": "count",
    "usd_per_kept_traj": "usd",
    "peak_rss_mb": "MB",
    "task_success_ratio": "ratio",
}

PER_LAYER = {
    "oracle.client.calls": "count",
    "oracle.client.attempts": "count",
    "oracle.client.useful_ratio": "ratio",
    "oracle.client.failed": "count",
    "oracle.client.self_ms": "ms",
    "oracle.client.transport_wait_ms": "ms",
    "oracle.http.requests": "count",
    "oracle.http.connections": "count",
    "oracle.http.overhead_ms_p50": "ms",
    "oracle.templates.render.count": "count",
    "oracle.templates.render.ms": "ms",
    "oracle.templates.prompt_chars_mean": "chars",
    "promptvars.ms": "ms",
    "oracle.replies.extract_json.ms": "ms",
    "oracle.replies.parse_reply.ms": "ms",
    "environment.observe.count": "count",
    "environment.observe.ms": "ms",
    "environment.execute.count": "count",
    "environment.execute.ms": "ms",
    "environment.observe_per_step": "ratio",
    "environment.observe_per_probe": "ratio",
    "environment.sessions": "count",
    "browser.requests": "count",
    "browser.connections": "count",
    "browser.requests_per_step": "ratio",
    "browser.observe_roundtrips": "count",
    "browser.request_ms_p50": "ms",
    "model.observation_fingerprint.count": "count",
    "model.observation_fingerprint.ms": "ms",
    "model.canonical_json.count": "count",
    "model.canonical_json.ms": "ms",
    "actions.render_action.count": "count",
    "actions.render_action.ms": "ms",
    "actions.parse_action.ms": "ms",
    "explorer.pages": "count",
    "explorer.probes": "count",
    "explorer.goto_restores": "count",
    "explorer.task_yield": "ratio",
    "collector.steps": "count",
    "collector.next_action_calls": "count",
    "collector.element_reasks": "count",
    "collector.refine_checks": "count",
    "collector.refine_check_share": "ratio",
    "collector.task_ms_p50": "ms",
    "collector.task_ms_p95": "ms",
    "refiner.judged": "count",
    "refiner.survival_ratio": "ratio",
    "refiner.ms": "ms",
    "runstore.append.count": "count",
    "runstore.append.ms": "ms",
    "runstore.bytes_written": "bytes",
    "runstore.read_records.lines": "count",
    "runstore.read_records.ms": "ms",
    "runstore.write_json.count": "count",
    "runstore.event.count": "count",
    "dataset.export.ms": "ms",
    "dataset.records": "count",
    "dataset.observations": "count",
    "dataset.observation_ref.count": "count",
    "dataset.obs_dedupe_ratio": "ratio",
    "dataset.bytes": "bytes",
    "pipeline.make_oracle.ms": "ms",
    "pipeline.load_records.ms": "ms",
    "harness.mock.ms": "ms",
    "harness.injected_delay_ms": "ms",
    "harness.fake_endpoint.ms": "ms",
    "harness.share": "ratio",
    "config.load_config.ms": "ms",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    site: Any
    script: Any
    backend: str = "mock"  # mock | http
    delay_s: float = 0.0  # per completion, http only
    browser: bool = False
    workers: int = 1
    # Refine, export and stats runs per pipeline (see run_pipeline).
    tails: int = 1
    # Run the whole process on one CPU (see pin_to_one_cpu).
    one_cpu: bool = False


def workloads() -> dict[str, Workload]:
    from gen import ScriptParams, SiteParams

    return {
        # Bound by oracle round trips: 50 ms per completion, the endpoint latency
        # ROADMAP.md plans for, and two workers. Only two pipelines fit in a
        # run, so the 70 ms export gets four samples per pipeline.
        "oracle_http": Workload(
            site=SiteParams(pages=24, elements=16, below_fold=4, task_share=1.0),
            script=ScriptParams(lengths=(0.3, 0.5, 0.2), prose_share=0.3),
            backend="http", delay_s=0.05, workers=2, tails=4,
        ),
        # Local CPU: a large graph, long trajectories, no oracle latency.
        "sim_cpu": Workload(
            site=SiteParams(pages=200, elements=40, below_fold=10, task_share=0.5),
            script=ScriptParams(lengths=(0.1, 0.2, 0.7), prose_share=0.2),
        ),
        # Environment round trips: every observe and action crosses WebDriver.
        # Six pages keep a pipeline near 1.5 s, so refine and export, 2% of it,
        # are sampled often; they also run three times per pipeline.
        "webdriver": Workload(
            site=SiteParams(pages=6, elements=16, below_fold=4, task_share=1.0),
            script=ScriptParams(lengths=(0.2, 0.5, 0.3), prose_share=0.2),
            browser=True, tails=3, one_cpu=True,
        ),
    }


# ======================================================================
# set-up
# ======================================================================

def pin_to_one_cpu() -> None:
    """Keep this process, and every thread it starts later, on one CPU.

    With one worker the program and a fake endpoint hand each request back
    and forth between two threads. Spread over two vCPUs of a shared VM,
    every hand-off wakes an idle vCPU, and that wake-up cost changed by up to
    1.6x for tens of seconds at a time: over six 40 s runs of webdriver on a
    12-page site the spread (IQR / median) of pipeline_s was 0.31 unpinned
    and 0.08 pinned.
    The highest CPU is taken because CPU 0 served most softirq work there.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@dataclass
class Env:
    config: Any
    load_config_s: float = 0.0  # the program's share of set-up
    chat: Any = None
    webdriver: Any = None
    served: int = 0  # completions the mock script returned
    lock: threading.Lock = field(default_factory=threading.Lock)

    def endpoints(self) -> list[Any]:
        return [e for e in (self.chat, self.webdriver) if e is not None]

    def set_stage(self, stage: str) -> None:
        for endpoint in self.endpoints():
            endpoint.counters.stage = stage

    def reset(self) -> None:
        for endpoint in self.endpoints():
            endpoint.reset()
        self.served = 0

    def close(self) -> None:
        for endpoint in self.endpoints():
            endpoint.close()


def setup(workload: Workload, seed: int, root: Path) -> Env:
    """Generate the inputs, start the fake endpoints and load the config."""
    from endpoints import ChatEndpoint, WebDriverEndpoint
    from gen import generate_script, generate_site, site_depth
    from synthweaver.config import load_config
    from synthweaver.environment import load_site_graph

    root.mkdir(parents=True)
    site = generate_site(seed, workload.site)
    script = generate_script(seed, workload.site, workload.script)
    (root / "site.json").write_text(json.dumps(site), encoding="utf-8")
    (root / "script.json").write_text(json.dumps(script), encoding="utf-8")
    env = Env(config=None)
    spec: dict[str, Any] = {
        "name": "bench",
        "intro": "A generated catalogue of nested sections with notes and reviews.",
        "task_examples": ["Find the footer note of a section"],
    }
    raw: dict[str, Any] = {
        "seed": seed,
        "workers": max(1, min(workload.workers, os.cpu_count() or 1)),
        "runs_dir": "runs",
        "max_pages_per_site": workload.site.pages,
        "max_depth": site_depth(workload.site),
        "max_tasks_per_site": 100000,
        "sites": [spec],
    }
    try:
        if workload.backend == "http":
            env.chat = ChatEndpoint(script, workload.delay_s)
            raw["oracle"] = {"backend": "http", "model": "bench",
                             "endpoint_url": f"{env.chat.url}/v1/chat/completions"}
        else:
            raw["oracle"] = {"backend": "mock", "mock_script": "script.json"}
        if workload.browser:
            env.webdriver = WebDriverEndpoint(load_site_graph(root / "site.json"))
            spec["start_url"] = site["pages"][site["start_page"]]["url"]
            raw["browser"] = {"endpoint_url": env.webdriver.url, "screenshot_dir": "shots"}
        else:
            spec["graph"] = "site.json"
        (root / "config.json").write_text(json.dumps(raw), encoding="utf-8")
        started = time.perf_counter()
        env.config = load_config(root / "config.json")
        env.load_config_s = time.perf_counter() - started
    except BaseException:
        env.close()
        raise
    return env


# ======================================================================
# one pipeline run
# ======================================================================

@dataclass
class Run:
    run_dir: Path
    seconds: dict[str, float]
    results: dict[str, Any]
    served: int
    endpoint_errors: int

    @property
    def pipeline_s(self) -> float:
        return sum(self.seconds.values())


def run_pipeline(env: Env, run_dir: Path, tracer: Any = None, tails: int = 1) -> list[Run]:
    """Run the five stages; refine, export and stats run ``tails`` times.

    Each extra tail runs on its own copy of the run directory as collect left
    it, made outside the timed region, so a stage of a few milliseconds gets
    several samples per pipeline. Returns one Run per tail, the copies first;
    every Run carries the same explore and collect times.
    """
    from synthweaver import pipeline
    from synthweaver.runstore import RunStore

    env.reset()
    seconds: dict[str, float] = {}
    results: dict[str, Any] = {}

    def timed(stage: str, store: RunStore) -> None:
        env.set_stage(stage)
        if tracer is not None:
            tracer.stage = stage
        drive = getattr(pipeline, f"run_{stage}")
        # Users run each stage as its own command, on a fresh heap; collect
        # the previous stage's garbage outside the timed region.
        gc.collect()
        started = time.perf_counter()
        results[stage] = drive(env.config, store)
        seconds[stage] = time.perf_counter() - started

    for stage in STAGES[:2]:
        timed(stage, RunStore(run_dir))
    copies = [run_dir.with_name(f"{run_dir.name}.{k}") for k in range(1, tails)]
    for copy in copies:
        shutil.copytree(run_dir, copy)
    served_before = env.served
    runs = []
    for tail_dir in copies + [run_dir]:
        served = env.served
        store = RunStore(tail_dir)
        for stage in STAGES[2:]:
            timed(stage, store)
        runs.append(Run(tail_dir, dict(seconds), dict(results),
                        served_before + env.served - served, 0))
    env.set_stage("")
    errors = sum(e.counters.count("errors") for e in env.endpoints())
    for run in runs:
        run.endpoint_errors = errors
    return runs


def check_run(run: Run, first_hash: str | None) -> tuple[list[str], str, int]:
    """Return (failures, content_hash, checks made)."""
    from checks import RUN_CHECKS, ledger_matches_served

    failures: list[str] = []
    for check in RUN_CHECKS:
        failures += check(run.run_dir)
    failures += ledger_matches_served(run.run_dir, run.served)
    if run.endpoint_errors:
        failures.append(f"the fake endpoints answered {run.endpoint_errors} requests with errors")
    content_hash = json.loads((run.run_dir / "manifest.json").read_text())["dataset"]["content_hash"]
    if first_hash is not None and content_hash != first_hash:
        failures.append("content_hash differs from an earlier run with the same seed")
    return failures, content_hash, len(RUN_CHECKS) + 3


def count_served(env: Env) -> None:
    """Count the completions the mock script serves, for the ledger check."""
    from synthweaver.oracle import MockScript

    reply_for = MockScript.reply_for

    def counted(self: Any, prompt: Any) -> Any:
        completion = reply_for(self, prompt)
        with env.lock:  # the chat endpoint serves from two threads
            env.served += 1
        return completion

    MockScript.reply_for = counted  # type: ignore[method-assign]


# ======================================================================
# metrics
# ======================================================================

def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.999999) - 1))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(setups: list[float], runs: list[Run], success_ratio: float) -> dict[str, float]:
    last = runs[-1]
    ledger = json.loads((last.run_dir / "ledger.json").read_text())
    records = last.results["export"].n_records
    refine = last.results["refine"]
    kept = refine["kept"] + refine["refined"]
    # Stage times are means over the runs in the window. On a shared 2-vCPU VM
    # the CPU speed drifted by up to 1.7x over tens of seconds; over ten seeds
    # the spread (IQR / median) of the mean was 0.09-0.23 where that of the
    # median was 0.14-0.30, so the mean is the steadier figure.
    pipeline_s = statistics.mean(r.pipeline_s for r in runs)
    return {
        "setup_s": _median(setups),
        "pipeline_s": pipeline_s,
        **{f"{s}_s": statistics.mean(r.seconds[s] for r in runs) for s in STAGES if s != "stats"},
        "records_per_s": _ratio(records, pipeline_s),
        "oracle_calls_per_record": _ratio(ledger["calls"], records),
        "tokens_per_record": _ratio(ledger["prompt_tokens"] + ledger["completion_tokens"], records),
        "usd_per_kept_traj": _ratio(float(Decimal(ledger["total_cost_usd"])), kept),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "task_success_ratio": success_ratio,
    }


def http_overheads_ms(client_spans: list[tuple], handled: dict[str, list[float]]) -> list[float]:
    """Client time of each chat request minus the server's time handling it.

    A request is paired with the server record of the same prompt; a prompt
    sent more than once is paired in order.
    """
    queues = {key: list(times) for key, times in handled.items()}
    out = []
    for span in sorted(client_spans, key=lambda s: s[4]):
        queue = queues.get(span[6])
        if queue:
            out.append(1000 * (span[5] - span[4] - queue.pop(0)))
    return out


def per_layer(tracer: Any, env: Env, run: Run, overhead_s: float,
              load_config_ms: float) -> dict[str, float]:
    by_name: dict[str, list[tuple]] = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)

    def spans(name: str, stage: str | None = None) -> list[tuple]:
        return [s for s in by_name.get(name, []) if stage in (None, s[3])]

    def count(name: str, stage: str | None = None) -> int:
        return len(spans(name, stage))

    def ms(name: str, stage: str | None = None) -> float:
        return 1000 * sum(s[5] - s[4] for s in spans(name, stage))

    def durations_ms(name: str) -> list[float]:
        return [1000 * (s[5] - s[4]) for s in spans(name)]

    calls = spans("oracle.client.call")
    call_ids = {s[0] for s in calls}
    completes = spans("oracle.http.complete") + spans("oracle.mock.complete")
    answered = [s for s in completes if s[6] != "error"]
    transport_in_calls = sum(s[5] - s[4] for s in completes if s[1] in call_ids)
    collect_calls = [s for s in calls if s[3] == "collect"]
    steps = count("collector.next_action")
    probes = count("explorer.probe")
    chat = env.chat.counters if env.chat else None
    wd = env.webdriver.counters if env.webdriver else None
    injected_ms = 1000 * sum(chat.samples("injected_delay")) if chat else 0.0
    endpoint_ms = sum(1000 * sum(c.samples("handle")) for c in (chat, wd) if c) - injected_ms
    mock_ms = ms("harness.mock")
    harness_ms = endpoint_ms + (0.0 if env.chat else mock_ms)
    export = spans("dataset.export")
    n_records, n_observations = export[-1][6] if export else (0, 0)
    refine = run.results["refine"]
    data = run.run_dir / "dataset"
    goto_ids = {s[0] for s in spans("explorer.goto")}
    renders = spans("oracle.templates.render")
    promptvars_ms = sum(ms(n) for n in by_name if n.startswith("promptvars."))
    return {
        "oracle.client.calls": len(calls),
        "oracle.client.attempts": len(answered),
        "oracle.client.useful_ratio": _ratio(sum(1 for s in calls if s[6] != "error"), len(answered)),
        "oracle.client.failed": sum(1 for s in calls if s[6] == "error"),
        "oracle.client.self_ms": ms("oracle.client.call") - 1000 * transport_in_calls,
        "oracle.client.transport_wait_ms": 1000 * sum(s[5] - s[4] for s in completes),
        "oracle.http.requests": chat.count("requests") if chat else 0,
        "oracle.http.connections": chat.count("connections") if chat else 0,
        "oracle.http.overhead_ms_p50": (
            _median(http_overheads_ms(spans("oracle.http.complete"), env.chat.handled))
            if env.chat else 0.0
        ),
        "oracle.templates.render.count": len(renders),
        "oracle.templates.render.ms": ms("oracle.templates.render"),
        "oracle.templates.prompt_chars_mean": _ratio(sum(s[6] or 0 for s in renders), len(renders)),
        "promptvars.ms": promptvars_ms,
        "oracle.replies.extract_json.ms": ms("oracle.replies.extract_json"),
        "oracle.replies.parse_reply.ms": ms("oracle.replies.parse_reply"),
        "environment.observe.count": count("environment.observe"),
        "environment.observe.ms": ms("environment.observe"),
        "environment.execute.count": count("environment.execute"),
        "environment.execute.ms": ms("environment.execute"),
        "environment.observe_per_step": _ratio(count("environment.observe", "collect"), steps),
        "environment.observe_per_probe": _ratio(count("environment.observe", "explore"), probes),
        "environment.sessions": count("environment.session"),
        "browser.requests": wd.count("requests") if wd else 0,
        "browser.connections": wd.count("connections") if wd else 0,
        "browser.requests_per_step": _ratio(wd.count("requests", "collect"), steps) if wd else 0.0,
        "browser.observe_roundtrips": (
            wd.count("cmd:observe") + wd.count("cmd:screenshot") if wd else 0
        ),
        "browser.request_ms_p50": 1000 * _median(wd.samples("handle")) if wd else 0.0,
        "model.observation_fingerprint.count": count("model.observation_fingerprint"),
        "model.observation_fingerprint.ms": ms("model.observation_fingerprint"),
        "model.canonical_json.count": count("model.canonical_json"),
        "model.canonical_json.ms": ms("model.canonical_json"),
        "actions.render_action.count": count("actions.render_action"),
        "actions.render_action.ms": ms("actions.render_action"),
        "actions.parse_action.ms": ms("actions.parse_action"),
        "explorer.pages": count("explorer.categorize_page"),
        "explorer.probes": probes,
        "explorer.goto_restores": sum(
            1 for s in spans("environment.execute") if s[1] in goto_ids and s[6] == "goto"
        ),
        "explorer.task_yield": _ratio(run.results["explore"]["tasks"], probes),
        "collector.steps": steps,
        "collector.next_action_calls": sum(1 for s in collect_calls if s[6] == "next_action"),
        "collector.element_reasks": sum(1 for s in collect_calls if s[6] == "next_action") - steps,
        "collector.refine_checks": count("collector.check_refine"),
        "collector.refine_check_share": _ratio(
            sum(1 for s in collect_calls if s[6] == "refine_task"), len(collect_calls)
        ),
        "collector.task_ms_p50": _percentile(durations_ms("collector.collect_one"), 0.5),
        "collector.task_ms_p95": _percentile(durations_ms("collector.collect_one"), 0.95),
        "refiner.judged": count("refiner.refine_trajectory"),
        "refiner.survival_ratio": _ratio(
            refine["kept"] + refine["refined"], count("refiner.refine_trajectory")
        ),
        "refiner.ms": ms("refiner.refine_trajectory"),
        "runstore.append.count": count("runstore.append"),
        "runstore.append.ms": ms("runstore.append"),
        "runstore.bytes_written": tracer.counters["runstore.bytes_written"],
        "runstore.read_records.lines": tracer.counters["runstore.read_records.lines"],
        "runstore.read_records.ms": tracer.counters["runstore.read_records.ms"],
        "runstore.write_json.count": count("runstore.write_json"),
        "runstore.event.count": count("runstore.event"),
        "dataset.export.ms": ms("dataset.export"),
        "dataset.records": n_records,
        "dataset.observations": n_observations,
        "dataset.observation_ref.count": count("dataset.observation_ref"),
        "dataset.obs_dedupe_ratio": _ratio(n_observations, count("dataset.observation_ref")),
        "dataset.bytes": sum(
            (data / f).stat().st_size for f in ("dataset.jsonl", "observations.jsonl")
        ),
        "pipeline.make_oracle.ms": ms("pipeline.make_oracle"),
        "pipeline.load_records.ms": ms("pipeline.load_records"),
        "harness.mock.ms": mock_ms,
        "harness.injected_delay_ms": injected_ms,
        "harness.fake_endpoint.ms": endpoint_ms,
        "harness.share": _ratio(harness_ms, 1000 * run.pipeline_s),
        "config.load_config.ms": load_config_ms,
        "trace.overhead_s": overhead_s,
    }


# ======================================================================
# main
# ======================================================================

def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args: argparse.Namespace, work: Path) -> tuple[dict[str, Any], bool]:
    from tracing import Tracer

    workload = workloads()[args.workload]
    setups: list[float] = []
    load_configs: list[float] = []
    env: Env | None = None

    def timed_setup() -> Env:
        started = time.perf_counter()
        made = setup(workload, args.seed, work / f"setup{len(setups)}")
        setups.append(time.perf_counter() - started)
        load_configs.append(made.load_config_s)
        return made

    try:
        for _ in range(SETUPS):
            if env is not None:
                env.close()
            env = timed_setup()
        assert env is not None
        count_served(env)
        runs: list[Run] = []
        traced: list[Run] = []
        last_tracer = None
        attempted = failed = tasks = 0
        # The first content_hash of this workload and seed in this checkout.
        # Every run, in this invocation or a later one, must reproduce it, so
        # output that depends on the process (say, on string-hash
        # randomisation) fails the check when a seed is run again.
        hash_file = WORK / "hashes" / f"{args.workload}-{args.seed}"
        first_hash = hash_file.read_text().strip() if hash_file.is_file() else None
        deadline = time.perf_counter() + args.seconds
        index = 0
        last_s = 0.0
        # Stop when the next pipeline would end past the deadline by more than
        # half its length, so a run measures close to --seconds.
        while (time.perf_counter() + last_s / 2 < deadline or index < MIN_RUNS
               or (args.trace and not traced)):
            trace_this = bool(args.trace) and index % 2 == 1
            tracer = Tracer() if trace_this else None
            run_dir = Path(env.config.runs_dir) / f"run{index}"
            started = time.perf_counter()
            if tracer is not None:
                last_tracer = tracer
                tracer.install()
            try:
                # A traced pipeline runs one tail, so its counts are one pipeline's.
                tails = run_pipeline(env, run_dir, tracer, 1 if trace_this else workload.tails)
            finally:
                if tracer is not None:
                    tracer.remove()
            last_s = time.perf_counter() - started
            (traced if trace_this else runs).extend(tails)
            collect = tails[-1].results["collect"]
            tasks += collect["tasks"]
            attempted += collect["tasks"]
            failed += collect["tasks"] - collect["trajectories"]
            for run in tails:
                failures, content_hash, n_checks = check_run(run, first_hash)
                if first_hash is None:
                    first_hash = content_hash
                    hash_file.parent.mkdir(parents=True, exist_ok=True)
                    hash_file.write_text(content_hash + "\n")
                attempted += n_checks
                failed += len(failures)
                for failure in failures:
                    print(f"check failed on {run.run_dir.name}: {failure}", file=sys.stderr)
            for run in tails[:-1]:
                shutil.rmtree(run.run_dir, ignore_errors=True)
            timed_setup().close()
            shutil.rmtree(work / f"setup{len(setups) - 1}", ignore_errors=True)
            if index >= 2:  # keep the disk use flat; the last runs stay for reporting
                shutil.rmtree(Path(env.config.runs_dir) / f"run{index - 2}", ignore_errors=True)
            index += 1
        if args.trace:
            assert last_tracer is not None
            last_tracer.write(WORK / f"spans-{args.workload}.jsonl")
            # Traced and untraced runs alternate, so both means see the same drift.
            overhead_s = (statistics.mean(r.pipeline_s for r in traced)
                          - statistics.mean(r.pipeline_s for r in runs))
            metrics = per_layer(last_tracer, env, traced[-1], overhead_s,
                                1000 * _median(load_configs))
            units = PER_LAYER
        else:
            # One minus the issue's task_fail_ratio: (tasks without a trajectory
            # + failed checks) / tasks. The complement is reported because a
            # ratio that is 0 on a healthy run cannot carry a relative bound.
            metrics = end_to_end(setups, runs, 1 - _ratio(failed, tasks))
            units = END_TO_END
        print(f"# {args.workload} seed={args.seed} content_hash={first_hash}")
        for label, group in (("run", runs), ("traced", traced)):
            for run in group:
                times = " ".join(f"{s}={run.seconds[s]:.4f}" for s in STAGES)
                print(f"# {label} pipeline={run.pipeline_s:.4f} {times}")
    finally:
        if env is not None:
            env.close()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, failed == 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "synthweaver" / "__init__.py").is_file():
        print(f"synthweaver sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The fake endpoints listen on 127.0.0.1; never route them through a proxy.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    if args.workload not in workloads():
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads())}",
              file=sys.stderr)
        return 2
    if workloads()[args.workload].one_cpu:
        pin_to_one_cpu()
    # A fixed path keeps screenshot paths, and so the content_hash, equal across invocations.
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    try:
        result, ok = measure(args, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
