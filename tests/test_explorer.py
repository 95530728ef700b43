"""Exploration stage: sampling, task typing, crawl behavior, failure events."""
from __future__ import annotations

import random
from collections import Counter

import pytest

from synthweaver.config import SiteSpec
from synthweaver.environment import SimulatorSession
from synthweaver.errors import EmptyPlan
from synthweaver.explorer import (
    Explorer,
    UrlPool,
    categorize_page,
    propose_task,
    sample_probes,
)
from synthweaver.actions import ActionKind, make_action
from tests.conftest import SHOP_EXAMPLES, SHOP_INTRO, make_client, obs, shop_client


def shop_site() -> SiteSpec:
    return SiteSpec(name="shop", graph=None, start_url="",
                    intro=SHOP_INTRO, task_examples=tuple(SHOP_EXAMPLES))


class TestSampleProbes:
    def proposals(self, n: int):
        return [make_action(ActionKind.CLICK, i, low_level_instruction=f"Click element {i}")
                for i in range(n)]

    def test_preserves_page_order(self):
        rng = random.Random("order")
        for _ in range(50):
            picked = sample_probes(rng, self.proposals(8), 3)
            ids = [p.element_id for p in picked]
            assert ids == sorted(ids)

    def test_k_larger_than_pool_takes_all(self):
        picked = sample_probes(random.Random(1), self.proposals(2), 5)
        assert [p.element_id for p in picked] == [0, 1]

    def test_same_seed_same_sample(self):
        a = sample_probes(random.Random("s"), self.proposals(10), 4)
        b = sample_probes(random.Random("s"), self.proposals(10), 4)
        assert a == b

    def test_samples_without_replacement(self):
        for seed in range(100):
            picked = sample_probes(random.Random(seed), self.proposals(5), 5)
            assert len({p.element_id for p in picked}) == 5

    def test_roughly_uniform_over_seeds(self):
        counts: Counter[int] = Counter()
        trials = 2000
        for seed in range(trials):
            for p in sample_probes(random.Random(seed), self.proposals(5), 2):
                counts[p.element_id] += 1
        # Each of 5 elements should be picked in about 2/5 of trials.
        for element_id in range(5):
            assert 0.32 <= counts[element_id] / trials <= 0.48


class TestUrlPool:
    def test_fifo_with_dedup(self):
        pool = UrlPool()
        assert pool.add("a", 0)
        assert pool.add("b", 1)
        assert not pool.add("a", 2)
        assert pool.pop() == ("a", 0)
        assert pool.pop() == ("b", 1)
        assert len(pool) == 0

    def test_known_urls_stay_known_after_pop(self):
        pool = UrlPool()
        pool.add("a", 0)
        pool.pop()
        assert not pool.add("a", 5)


class TestCategorizePage:
    def test_empty_plan_raised(self):
        client = make_client({
            "schema_version": 1,
            "rules": [{"template": "categorize",
                       "reply": {"Analysis": "nothing usable",
                                 "Categorization": {"uninteractive_elements": [1]}}}],
        })
        with pytest.raises(EmptyPlan):
            categorize_page(client, obs(ids=(1,)), site="s")

    def test_coverage_failure_surfaces_as_schema_violation(self):
        from synthweaver.errors import SchemaViolation
        client = make_client({
            "schema_version": 1,
            "rules": [{"template": "categorize",
                       "reply": {"Analysis": "partial",
                                 "Categorization": {
                                     "Stuff": [{"action": "click", "element_id": 1,
                                                "value": "", "low-level_instruction": "c"}]}}}],
        })
        with pytest.raises(SchemaViolation):
            categorize_page(client, obs(ids=(1, 2)), site="s")


class TestProposeTask:
    def test_whitespace_normalized(self):
        client = make_client({
            "schema_version": 1,
            "rules": [{"template": "propose_task",
                       "reply": {"Sub-Instruction": "s", "Analysis": "a",
                                 "High-Level-Instruction": "  Find   the\n best deal  "}}],
        })
        assert propose_task(client, shop_site(), "Click the deals link") == "Find the best deal"


class TestExploreShop:
    def run_explore(self, shop_config, shop_graph, **config_overrides):
        from dataclasses import replace
        config = replace(shop_config, **config_overrides) if config_overrides else shop_config
        client = shop_client("explore")
        self.ledger = client.ledger
        events = []
        explorer = Explorer(client, config, on_event=lambda k, d: events.append((k, d)))
        site = config.sites[0]
        result = explorer.explore_site(site, SimulatorSession(shop_graph))
        return result, events

    def test_full_crawl(self, shop_config, shop_graph):
        result, events = self.run_explore(shop_config, shop_graph)
        assert result.pages_visited == 7  # account and deals stay undiscovered
        assert len(result.tasks) == 15
        assert len(result.triplets) == 18
        assert {t.site for t in result.tasks} == {"shop"}
        assert set(self.ledger.by_site_stage) == {("shop", "explore")}
        assert self.ledger.by_site_stage["shop", "explore"] > 0
        page_urls = [d["url"] for k, d in events if k == "explore.page"]
        assert page_urls[0] == "https://shop.example.com/"
        # breadth-first: all depth-1 pages precede the depth-2 product pages
        assert page_urls[-2:] == [
            "https://shop.example.com/product/usb-c-cable",
            "https://shop.example.com/product/4k-tv",
        ]

    def test_task_ids_and_triplet_links(self, shop_config, shop_graph):
        result, _ = self.run_explore(shop_config, shop_graph)
        assert [t.id for t in result.tasks] == [
            f"t-shop-{i:04d}" for i in range(1, len(result.tasks) + 1)
        ]
        linked = [r.task_id for r in result.triplets if r.task_id]
        assert len(linked) == len(set(linked)) == 15
        unlinked = [r for r in result.triplets if r.task_id is None]
        assert len(unlinked) == 3  # probes whose proposals duplicated earlier tasks

    def test_duplicate_texts_deduped(self, shop_config, shop_graph):
        result, _ = self.run_explore(shop_config, shop_graph)
        texts = [t.text for t in result.tasks]
        assert len(texts) == len(set(texts))

    def test_same_seed_reproduces_tasks(self, shop_config, shop_graph):
        a, _ = self.run_explore(shop_config, shop_graph)
        b, _ = self.run_explore(shop_config, shop_graph)
        assert [t.text for t in a.tasks] == [t.text for t in b.tasks]
        assert [r.triplet.action for r in a.triplets] == [r.triplet.action for r in b.triplets]

    def test_max_pages_cap(self, shop_config, shop_graph):
        result, _ = self.run_explore(shop_config, shop_graph, max_pages_per_site=2)
        assert result.pages_visited == 2

    def test_max_tasks_cap(self, shop_config, shop_graph):
        result, _ = self.run_explore(shop_config, shop_graph, max_tasks_per_site=4)
        assert len(result.tasks) == 4

    def test_max_depth_zero_stays_on_start_page(self, shop_config, shop_graph):
        result, _ = self.run_explore(shop_config, shop_graph, max_depth=0)
        assert result.pages_visited == 1

    def test_probe_state_persists_across_probes(self, shop_config, shop_graph):
        # The search probe types a query; the later "click Search" probe then
        # actually navigates, discovering the results page for the crawl.
        result, events = self.run_explore(shop_config, shop_graph)
        urls = [d["url"] for k, d in events if k == "explore.page"]
        assert "https://shop.example.com/search?q=usb cable" in urls
