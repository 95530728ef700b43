"""Exploration stage: categorize pages, probe elements, synthesize tasks.

Crawl order is breadth-first over discovered URLs. On each page the oracle
groups elements into functional categories; a seeded sampler picks a few
probes per category, each probe is executed from a restored page state, and
the resulting before/action/after triplet seeds one task proposal.

Proposals need only their triplet, so on an HTTP oracle they run on the
oracle client's pool, on the threads the site crawls leave free, while the
crawl keeps probing and categorizing. Proposals are committed in probe
order, so tasks, triplets and their ids do not depend on the transport or
the worker count.
"""

from __future__ import annotations

import random
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Sequence

from .actions import Action, ActionKind, make_action, render_action
from .config import RunConfig, SiteSpec
from .errors import ElementNotFound, EmptyPlan, SchemaViolation
from .model import InteractionTriplet, Observation, Task
from .oracle import OracleClient, TemplateName, UNINTERACTIVE_CATEGORY, render
from .oracle.client import run_now
from .promptvars import (
    describe_interaction,
    element_lines,
    page_context,
    task_examples_block,
)
from .runstore import EventHook, noop_event


@dataclass(frozen=True)
class TripletRecord:
    """A captured probe, linked to the task it produced (if any)."""

    id: str
    site: str
    category: str
    triplet: InteractionTriplet
    task_id: str | None


@dataclass(frozen=True)
class ExplorationResult:
    site: str
    tasks: tuple[Task, ...]
    triplets: tuple[TripletRecord, ...]
    pages_visited: int


class UrlPool:
    """FIFO frontier of (url, depth) pairs; a URL is queued at most once, so
    no page is visited twice."""

    def __init__(self) -> None:
        self._queue: deque[tuple[str, int]] = deque()
        self._known: set[str] = set()

    def add(self, url: str, depth: int) -> bool:
        if url in self._known:
            return False
        self._known.add(url)
        self._queue.append((url, depth))
        return True

    def pop(self) -> tuple[str, int]:
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


def categorize_page(
    oracle: OracleClient, obs: Observation, *, site: str
) -> dict[str, tuple[Action, ...]]:
    """Ask the oracle to group the page's elements into categories of probes;
    enforce full coverage."""
    prompt = render(
        TemplateName.CATEGORIZE,
        {
            "url": obs.url,
            "page_context": page_context(obs),
            "elements": element_lines(obs.elements),
            "element_num": str(len(obs.elements)),
            "const_uninteractive_category": UNINTERACTIVE_CATEGORY,
        },
    )
    categories: dict[str, tuple[Action, ...]] = oracle.call(
        prompt,
        site=site,
        context={"element_ids": sorted(obs.element_ids())},
    )
    if not any(categories.values()):
        raise EmptyPlan(f"no interactive category proposed for {obs.url}")
    return categories


def propose_task(
    oracle: OracleClient,
    site: SiteSpec,
    action_description: str,
) -> str:
    prompt = render(
        TemplateName.PROPOSE_TASK,
        {
            "website_intro": site.intro or f"A website named {site.name}.",
            "task_examples": task_examples_block(site.task_examples),
            "current_action_str": action_description,
            "website_name": site.name,
        },
    )
    return oracle.call(prompt, site=site.name)


def sample_probes(rng: random.Random, probes: Sequence[Action], k: int) -> list[Action]:
    """Pick up to k probes uniformly at random, keeping page order."""
    take = min(k, len(probes))
    return [probes[i] for i in sorted(rng.sample(range(len(probes)), take))]


class _Proposals:
    """One site's task proposals, committed strictly in probe order.

    A proposal goes to `OracleClient.submit`, which overlaps it with the
    crawl on an HTTP oracle and runs it inline on the mock. Either way it
    joins one FIFO, and commit (the text dedupe, the task and triplet ids,
    the events) takes finished proposals from its head, so the records are
    those of an inline run. Submitting never waits: proposals take the pool
    threads the site crawls leave free (see `OracleClient`), and while the
    crawl waits for the head of the FIFO it sends queued proposals itself. A
    proposal that failed other than by a bad reply stops the crawl at the
    next `room`, `submit` or `drain` step.
    """

    def __init__(self, oracle: OracleClient, site: SiteSpec, on_event: EventHook) -> None:
        self.oracle = oracle
        self.site = site
        self.on_event = on_event
        self.tasks: list[Task] = []
        self.triplets: list[TripletRecord] = []
        self._seen_texts: set[str] = set()
        self._pending: deque[tuple[str, str, InteractionTriplet, Future]] = deque()

    def room(self, cap: int) -> bool:
        """True when a new proposal may be issued under a cap of `cap` tasks.

        Pending proposals count as tasks; when they would fill the cap they
        are committed first, so the cap makes the calls one worker makes.
        """
        self._raise_failed()
        if len(self.tasks) + len(self._pending) >= cap:
            self.drain()
        return len(self.tasks) < cap

    def submit(self, url: str, category: str, triplet: InteractionTriplet) -> None:
        self._raise_failed()
        description = describe_interaction(triplet.action, triplet.before)
        future = self.oracle.submit(propose_task, self.oracle, self.site, description)
        self._pending.append((url, category, triplet, future))
        while self._pending and self._pending[0][3].done():
            self._commit(*self._pending.popleft())

    def drain(self) -> None:
        """Commit every pending proposal. While the head one is not done,
        this thread runs the newest one no pool thread has started."""
        while self._pending:
            self._raise_failed()
            if self._pending[0][3].done() or not self._run_queued():
                self._commit(*self._pending.popleft())

    def _run_queued(self) -> bool:
        """Take the newest proposal still queued on the pool and run it here,
        leaving its finished future in its FIFO slot; False if none is."""
        for slot in reversed(range(len(self._pending))):
            url, category, triplet, future = self._pending[slot]
            if future.cancel():
                description = describe_interaction(triplet.action, triplet.before)
                done = run_now(propose_task, self.oracle, self.site, description)
                self._pending[slot] = (url, category, triplet, done)
                return True
        return False

    def _raise_failed(self) -> None:
        """Once a pending proposal has failed other than by a bad reply,
        re-raise its error, so no further call is sent: a failed site keeps
        no record."""
        for *_, future in self._pending:
            if future.done():
                error = future.exception()
                if error is not None and not isinstance(error, SchemaViolation):
                    raise error

    def cancel(self) -> None:
        """Drop every pending proposal; those not yet started never run."""
        for *_, future in self._pending:
            future.cancel()
        self._pending.clear()

    def _commit(
        self, url: str, category: str, triplet: InteractionTriplet, future: Future
    ) -> None:
        """Record one proposal; a failure other than a bad reply re-raises here."""
        site = self.site.name
        task_id: str | None = None
        try:
            text = future.result()
        except SchemaViolation as exc:
            self.on_event(
                "explore.propose_failed", {"site": site, "url": url, "error": str(exc)}
            )
            text = ""
        if text and text not in self._seen_texts:
            self._seen_texts.add(text)
            task_id = f"t-{site}-{len(self.tasks) + 1:04d}"
            self.tasks.append(Task(id=task_id, text=text, category=category, site=site))
            self.on_event("explore.task", {"site": site, "task_id": task_id, "text": text})
        self.triplets.append(
            TripletRecord(
                id=f"x-{site}-{len(self.triplets) + 1:04d}",
                site=site,
                category=category,
                triplet=triplet,
                task_id=task_id,
            )
        )


class Explorer:
    """Runs the exploration stage for one site over one environment session.

    One Explorer may serve several sites at once; each site's crawl state
    lives in its own `explore_site` call.
    """

    def __init__(
        self,
        oracle: OracleClient,
        config: RunConfig,
        *,
        on_event: EventHook = noop_event,
    ) -> None:
        self.oracle = oracle
        self.config = config
        self.on_event = on_event

    def explore_site(self, site: SiteSpec, session: Any) -> ExplorationResult:
        """session is any object with observe()/execute() over Actions."""
        proposals = _Proposals(self.oracle, site, self.on_event)
        try:
            pages_visited = self._crawl(site, session, proposals)
            proposals.drain()
        except BaseException:
            # The stage's pool outlives this site: without this, its queued
            # proposals would still be sent while other sites crawl.
            proposals.cancel()
            raise
        return ExplorationResult(
            site=site.name,
            tasks=tuple(proposals.tasks),
            triplets=tuple(proposals.triplets),
            pages_visited=pages_visited,
        )

    def _crawl(self, site: SiteSpec, session: Any, proposals: _Proposals) -> int:
        """Visit pages breadth-first and probe them; returns the pages visited."""
        cfg = self.config
        # str seeds derive from sha512, so this is stable across interpreters.
        master = random.Random(f"{cfg.seed}:{site.name}")
        pool = UrlPool()
        start = session.observe()
        pool.add(start.url, 0)
        pages_visited = 0

        while len(pool) and pages_visited < cfg.max_pages_per_site:
            if not proposals.room(cfg.max_tasks_per_site):
                break
            url, depth = pool.pop()
            page_rng = random.Random(master.randrange(2**63))
            if not self._goto(session, url):
                self.on_event("explore.page_unreachable", {"site": site.name, "url": url})
                continue
            obs = session.observe()
            pages_visited += 1
            try:
                categories = categorize_page(self.oracle, obs, site=site.name)
            except EmptyPlan:
                self.on_event("explore.empty_plan", {"site": site.name, "url": url})
                continue
            except SchemaViolation as exc:
                self.on_event(
                    "explore.categorize_failed",
                    {"site": site.name, "url": url, "error": str(exc)},
                )
                continue
            self.on_event(
                "explore.page",
                {
                    "site": site.name,
                    "url": url,
                    "depth": depth,
                    "categories": {k: len(v) for k, v in categories.items()},
                },
            )
            for category, candidates in categories.items():
                for probe in sample_probes(page_rng, candidates, cfg.probes_per_category):
                    if not proposals.room(cfg.max_tasks_per_site):
                        break
                    self._run_probe(site, session, url, depth, category, probe, pool, proposals)
        return pages_visited

    def _goto(self, session: Any, url: str) -> bool:
        """Restore the session to `url`; True when the page is reachable."""
        current = session.observe()
        if current.url == url:
            return True
        outcome = session.execute(make_action(ActionKind.GOTO, None, url))
        return outcome.error is None and session.observe().url == url

    def _run_probe(
        self,
        site: SiteSpec,
        session: Any,
        url: str,
        depth: int,
        category: str,
        action: Action,
        pool: UrlPool,
        proposals: _Proposals,
    ) -> None:
        """Execute one probe and hand its triplet to `proposals`."""
        cfg = self.config
        if not self._goto(session, url):
            return
        before = session.observe()
        try:
            session.execute(action)
        except ElementNotFound as exc:
            self.on_event(
                "explore.probe_failed",
                {"site": site.name, "url": url, "action": render_action(action),
                 "error": str(exc)},
            )
            return
        after = session.observe()
        if after.url != url and depth + 1 <= cfg.max_depth:
            pool.add(after.url, depth + 1)
        proposals.submit(url, category, InteractionTriplet(before=before, action=action, after=after))
