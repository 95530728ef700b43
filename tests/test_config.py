"""Run configuration: parsing, validation, path resolution, key handling."""
from __future__ import annotations

import json
import re
from dataclasses import fields
from decimal import Decimal
from pathlib import Path

import pytest

from synthweaver.config import (
    BrowserSettings, OracleSettings, RunConfig, api_key_for, load_config, parse_config,
)
from synthweaver.errors import ConfigError
from tests.conftest import SHOP_GRAPH, SHOP_MOCK, shop_config_dict


def section_of(raw: dict, section: str) -> dict:
    """The object of `raw` that holds the settings of `section` ("" is the root)."""
    if section == "sites[0]":
        return raw["sites"][0]
    return raw.setdefault(section, {}) if section else raw


def setting(section: str, key: str) -> str:
    return f"{section}.{key}" if section else key


# String settings that do not take null, by section ("" is the root).
NOT_NULL_STRINGS = [
    ("", "runs_dir"), ("sites[0]", "intro"), ("oracle", "model"),
    ("oracle", "endpoint_url"), ("oracle", "api_key_env"), ("browser", "endpoint_url"),
]


class TestParse:
    def test_defaults(self, tmp_path):
        config = parse_config(shop_config_dict(), base_dir=tmp_path)
        assert config.seed == 7
        assert config.step_budget == 30
        assert config.context_window == 3
        assert config.stall_noop_threshold == 3
        assert config.loop_repeat_threshold == 2
        assert config.max_refines_per_task == 4
        assert config.max_tasks_per_site == 500
        assert config.max_pages_per_site == 25
        assert config.max_depth == 3
        assert config.probes_per_category == 2
        assert config.diversity_sample_size == 100
        assert config.oracle.reparse_attempts == 2
        assert config.oracle.transport_retries == 3

    def test_site_fields(self, tmp_path):
        config = parse_config(shop_config_dict(), base_dir=tmp_path)
        site = config.sites[0]
        assert site.name == "shop"
        assert site.graph == str(SHOP_GRAPH)
        assert len(site.task_examples) == 2

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        (tmp_path / "g.json").write_text(SHOP_GRAPH.read_text())
        (tmp_path / "m.json").write_text(SHOP_MOCK.read_text())
        raw = shop_config_dict()
        raw["sites"][0]["graph"] = "g.json"
        raw["oracle"]["mock_script"] = "m.json"
        raw["runs_dir"] = "out"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        config = load_config(path)
        assert config.sites[0].graph == str(tmp_path / "g.json")
        assert config.oracle.mock_script == str(tmp_path / "m.json")
        assert config.runs_dir == str(tmp_path / "out")

    def test_api_key_in_config_rejected(self, tmp_path):
        raw = shop_config_dict()
        raw["oracle"]["api_key"] = "sk-oops"
        with pytest.raises(ConfigError, match="environment variable"):
            parse_config(raw, base_dir=tmp_path)

    def test_api_key_comes_from_environment(self, tmp_path, monkeypatch):
        config = parse_config(shop_config_dict(), base_dir=tmp_path)
        monkeypatch.delenv("SYNTHWEAVER_API_KEY", raising=False)
        assert api_key_for(config.oracle) is None
        monkeypatch.setenv("SYNTHWEAVER_API_KEY", "sk-test")
        assert api_key_for(config.oracle) == "sk-test"

    def test_custom_api_key_env(self, tmp_path, monkeypatch):
        raw = shop_config_dict()
        raw["oracle"]["api_key_env"] = "OTHER_KEY"
        config = parse_config(raw, base_dir=tmp_path)
        monkeypatch.setenv("OTHER_KEY", "sk-other")
        assert api_key_for(config.oracle) == "sk-other"

    def test_mock_backend_requires_script(self, tmp_path):
        raw = shop_config_dict()
        raw["oracle"] = {"backend": "mock"}
        with pytest.raises(ConfigError):
            parse_config(raw, base_dir=tmp_path)

    def test_http_backend_requires_endpoint(self, tmp_path):
        raw = shop_config_dict()
        raw["oracle"] = {"backend": "http"}
        with pytest.raises(ConfigError):
            parse_config(raw, base_dir=tmp_path)

    def test_unknown_backend_rejected(self, tmp_path):
        raw = shop_config_dict()
        raw["oracle"]["backend"] = "carrier-pigeon"
        with pytest.raises(ConfigError):
            parse_config(raw, base_dir=tmp_path)

    @pytest.mark.parametrize("key", ["step_budget", "context_window", "workers",
                                     "max_refines_per_task", "probes_per_category"])
    def test_integer_fields_validated(self, tmp_path, key):
        raw = shop_config_dict()
        raw[key] = "three"
        with pytest.raises(ConfigError):
            parse_config(raw, base_dir=tmp_path)

    @pytest.mark.parametrize("key,bad", [("step_budget", 0), ("workers", 0),
                                         ("context_window", -1), ("seed", "x")])
    def test_bounds_enforced(self, tmp_path, key, bad):
        raw = shop_config_dict()
        raw[key] = bad
        with pytest.raises(ConfigError):
            parse_config(raw, base_dir=tmp_path)

    @pytest.mark.parametrize("section,key,bad", [
        ("oracle", "transport_retries", "x"), ("oracle", "transport_retries", 0),
        ("oracle", "transport_retries", 2.5), ("oracle", "reparse_attempts", -1),
        ("oracle", "max_tokens", "many"), ("oracle", "max_tokens", True),
        ("oracle", "timeout_s", 0), ("oracle", "temperature", "hot"),
        ("oracle", "top_p", -0.1), ("oracle", "backoff_base_s", None),
        ("browser", "viewport_width", "wide"), ("browser", "viewport_height", 0),
        ("browser", "nav_timeout_ms", 1.5),
        ("oracle", "timeout_s", 1e10), ("browser", "nav_timeout_ms", 10**13),
    ])
    def test_section_numbers_validated(self, tmp_path, section, key, bad):
        raw = shop_config_dict()
        raw.setdefault(section, {})[key] = bad
        with pytest.raises(ConfigError, match=f"{section}.{key} must be"):
            parse_config(raw, base_dir=tmp_path)

    @pytest.mark.parametrize("key,bad", [
        ("temperature", float("nan")), ("top_p", float("inf")),
        ("timeout_s", float("inf")), ("backoff_base_s", float("-inf")),
        ("timeout_s", 10**400),
        ("budget_usd", "NaN"), ("budget_usd", "sNaN"), ("budget_usd", "Infinity"),
        ("prompt_cost_per_token", "NaN"), ("completion_cost_per_token", "-Infinity"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, key, bad):
        # json.dumps writes NaN and Infinity, which the config loader reads.
        raw = shop_config_dict()
        raw["oracle"][key] = bad
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"oracle.{key} .*finite"):
            load_config(path)

    def test_section_numbers_accept_ints_for_floats(self, tmp_path):
        raw = shop_config_dict()
        raw["oracle"].update(backoff_base_s=0, temperature=1, reparse_attempts=0)
        raw["browser"] = {"viewport_width": 800}
        config = parse_config(raw, base_dir=tmp_path)
        assert config.oracle.backoff_base_s == 0.0
        assert isinstance(config.oracle.temperature, float)
        assert config.oracle.reparse_attempts == 0
        assert config.browser.viewport_width == 800
        assert config.browser.viewport_height == 720

    @pytest.mark.parametrize("section,key", [
        ("sites[0]", "graph"), ("sites[0]", "start_url"),
        ("oracle", "mock_script"), ("browser", "screenshot_dir"), *NOT_NULL_STRINGS,
    ])
    @pytest.mark.parametrize("resolve", [True, False])
    def test_path_fields_must_be_strings(self, tmp_path, section, key, resolve):
        raw = shop_config_dict()
        section_of(raw, section)[key] = 5
        with pytest.raises(ConfigError, match=re.escape(f"{setting(section, key)} must be a string")):
            parse_config(raw, base_dir=tmp_path if resolve else None)

    @pytest.mark.parametrize("section,key", NOT_NULL_STRINGS)
    def test_string_fields_reject_null(self, tmp_path, section, key):
        raw = shop_config_dict()
        section_of(raw, section)[key] = None
        with pytest.raises(ConfigError, match=re.escape(f"{setting(section, key)} must be a string")):
            parse_config(raw, base_dir=tmp_path)

    @pytest.mark.parametrize("section,key", [
        ("", "budget_usd"), ("oracle", "budget"), ("browser", "timeout_ms"),
        ("sites[0]", "intro_text"),
    ])
    def test_unknown_keys_rejected(self, tmp_path, section, key):
        raw = shop_config_dict()
        section_of(raw, section)[key] = "x"
        where = section or "config root"
        with pytest.raises(ConfigError, match=re.escape(f"{where} has no setting {key!r}")):
            parse_config(raw, base_dir=tmp_path)

    def test_sites_required(self, tmp_path):
        raw = shop_config_dict()
        raw["sites"] = []
        with pytest.raises(ConfigError):
            parse_config(raw, base_dir=tmp_path)

    def test_site_needs_graph_or_start_url(self, tmp_path):
        raw = shop_config_dict()
        for site in ({"name": "bare"}, {"name": "bare", "start_url": ""}):
            raw["sites"][0] = site
            with pytest.raises(ConfigError, match="'bare' needs either a graph path or a start_url"):
                parse_config(raw, base_dir=tmp_path)

    def test_browser_site_needs_an_endpoint(self, tmp_path):
        raw = shop_config_dict()
        raw["sites"].append({"name": "wiki", "start_url": "https://wiki.example/"})
        with pytest.raises(
            ConfigError, match="site 'wiki' uses start_url but browser.endpoint_url is unset"
        ):
            parse_config(raw, base_dir=tmp_path)
        # A site with a graph runs on the simulator and needs no endpoint.
        raw["sites"][-1]["graph"] = str(SHOP_GRAPH)
        parse_config(raw, base_dir=tmp_path)
        del raw["sites"][-1]["graph"]
        raw["browser"] = {"endpoint_url": "http://localhost:9515"}
        assert parse_config(raw, base_dir=tmp_path).sites[-1].start_url == "https://wiki.example/"

    def test_budget_parsed_as_decimal(self, tmp_path):
        raw = shop_config_dict()
        raw["oracle"]["budget_usd"] = "12.50"
        config = parse_config(raw, base_dir=tmp_path)
        assert Decimal(config.oracle.budget_usd) == Decimal("12.50")

    def test_bad_decimal_rejected(self, tmp_path):
        raw = shop_config_dict()
        raw["oracle"]["budget_usd"] = "lots"
        with pytest.raises(ConfigError):
            parse_config(raw, base_dir=tmp_path)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_load_config_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError):
            load_config(path)


def readme_config_block() -> dict:
    """The README's ```jsonc configuration example, its // comments stripped."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("\n## Configuration\n"):]
    block = section.split("```jsonc\n", 1)[1].split("\n```", 1)[0]
    # A string is kept whole, so the // of a URL is not taken for a comment.
    return json.loads(re.sub(r'("(?:\\.|[^"\\])*")|//[^\n]*', lambda m: m.group(1) or "", block))


def test_readme_config_block_is_every_setting():
    raw = readme_config_block()
    parse_config(raw)
    assert set(raw) == {f.name for f in fields(RunConfig)}
    assert set(raw["oracle"]) == {f.name for f in fields(OracleSettings)}
    assert set(raw["browser"]) == {f.name for f in fields(BrowserSettings)}
