"""Shared fixtures: the shop site graph, its scripted oracle, and config builders."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from synthweaver.actions import Action, ActionKind, make_action
from synthweaver.config import OracleSettings, RunConfig, parse_config
from synthweaver.environment import SimulatorSession, load_site_graph
from synthweaver.model import Element, Observation, Step
from synthweaver.oracle import CostLedger, MockScript, MockTransport, OracleClient

FIXTURES = Path(__file__).parent / "fixtures"
SHOP_GRAPH = FIXTURES / "shop.site.json"
SHOP_MOCK = FIXTURES / "shop.mock.json"

SHOP_INTRO = "MegaShop is a small online store selling electronics and health products."
SHOP_EXAMPLES = [
    "Find the return policy for electronics purchases",
    "Add a USB-C cable to the shopping cart",
]


def shop_config_dict(runs_dir: str = "runs", **overrides) -> dict:
    raw = {
        "seed": 7,
        "workers": 1,
        "runs_dir": runs_dir,
        "oracle": {"backend": "mock", "mock_script": str(SHOP_MOCK)},
        "sites": [
            {
                "name": "shop",
                "graph": str(SHOP_GRAPH),
                "intro": SHOP_INTRO,
                "task_examples": SHOP_EXAMPLES,
            }
        ],
    }
    raw.update(overrides)
    return raw


def write_config(tmp_path: Path, **overrides) -> Path:
    raw = shop_config_dict(runs_dir=str(tmp_path / "runs"), **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw, indent=2))
    return path


@pytest.fixture
def shop_config(tmp_path) -> RunConfig:
    raw = shop_config_dict(runs_dir=str(tmp_path / "runs"))
    return parse_config(raw, base_dir=tmp_path)


@pytest.fixture
def shop_graph():
    return load_site_graph(SHOP_GRAPH)


@pytest.fixture
def shop_session(shop_graph) -> SimulatorSession:
    return SimulatorSession(shop_graph)


def shop_client(stage: str = "") -> OracleClient:
    """Oracle client over the shop's scripted replies, charging `stage`."""
    script = MockScript.load(str(SHOP_MOCK))
    return OracleClient(MockTransport(script), CostLedger(), OracleSettings(), stage=stage)


def make_client(script_data: dict, budget=None, *, stage: str = "", **settings) -> OracleClient:
    """Oracle client over an in-memory mock script, with `settings` overriding
    the oracle defaults. Sleep is a no-op."""
    ledger = CostLedger(budget_usd=budget)
    return OracleClient(
        MockTransport(MockScript(script_data)), ledger, OracleSettings(**settings),
        stage=stage, sleep=lambda s: None,
    )


def obs(url: str = "https://example.com/", tree: str = "RootWebArea \"t\"",
        ids: tuple[int, ...] = (), screenshot: str | None = None) -> Observation:
    els = tuple(Element(id=i, role="button", name=f"b{i}") for i in ids)
    return Observation(url=url, accessibility_tree=tree, elements=els, screenshot_ref=screenshot)


def step(action: Action, url: str = "https://example.com/", summary: str = "") -> Step:
    return Step(observation=obs(url=url), action=action, state_summary=summary)


def none_action(value: str = "done") -> Action:
    return make_action(ActionKind.NONE, None, value)


def stop_action(value: str = "stuck") -> Action:
    return make_action(ActionKind.STOP, None, value)


def click_action(element_id: int = 1) -> Action:
    return make_action(ActionKind.CLICK, element_id)
