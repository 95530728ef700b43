"""Run configuration: JSON file in, validated frozen dataclasses out.

Credentials never live here. The HTTP oracle reads its API key from the
environment variable named by `api_key_env`.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Any

from .errors import ConfigError


@dataclass(frozen=True)
class SiteSpec:
    """One website to explore: a simulator graph or a live start URL."""

    name: str
    graph: str | None = None
    start_url: str | None = None
    intro: str = ""
    task_examples: tuple[str, ...] = ()


@dataclass(frozen=True)
class OracleSettings:
    backend: str = "http"  # http | mock
    endpoint_url: str = ""
    model: str = ""
    api_key_env: str = "SYNTHWEAVER_API_KEY"
    temperature: float = 0.7
    top_p: float = 1.0
    max_tokens: int = 2048
    timeout_s: float = 120.0
    mock_script: str | None = None
    prompt_cost_per_token: str = "0.000002"
    completion_cost_per_token: str = "0.000008"
    transport_retries: int = 3
    reparse_attempts: int = 2
    backoff_base_s: float = 1.0
    budget_usd: str | None = None


@dataclass(frozen=True)
class BrowserSettings:
    """Remote automation endpoint used by sites configured with start_url."""

    endpoint_url: str = ""
    viewport_width: int = 1280
    viewport_height: int = 720
    nav_timeout_ms: int = 10000
    screenshot_dir: str | None = None


@dataclass(frozen=True)
class RunConfig:
    sites: tuple[SiteSpec, ...]
    oracle: OracleSettings = field(default_factory=OracleSettings)
    browser: BrowserSettings = field(default_factory=BrowserSettings)
    seed: int = 0
    workers: int = 1
    runs_dir: str = "runs"
    step_budget: int = 30
    context_window: int = 3
    stall_noop_threshold: int = 3
    loop_repeat_threshold: int = 2
    max_refines_per_task: int = 4
    max_tasks_per_site: int = 500
    max_pages_per_site: int = 25
    max_depth: int = 3
    probes_per_category: int = 2
    diversity_sample_size: int = 100


# The number fields of each config section: key -> (type, lowest allowed value
# or None). An int field takes only ints; a float field takes ints too.
_RUN_NUMBERS = {
    "seed": (int, None),
    "workers": (int, 1),
    "step_budget": (int, 1),
    "context_window": (int, 1),
    "stall_noop_threshold": (int, 0),
    "loop_repeat_threshold": (int, 1),
    "max_refines_per_task": (int, 0),
    "max_tasks_per_site": (int, 1),
    "max_pages_per_site": (int, 1),
    "max_depth": (int, 0),
    "probes_per_category": (int, 1),
    "diversity_sample_size": (int, 0),
}

_ORACLE_NUMBERS = {
    "temperature": (float, 0),
    "top_p": (float, 0),
    "max_tokens": (int, 1),
    "timeout_s": (float, 0.001),
    "transport_retries": (int, 1),
    "reparse_attempts": (int, 0),
    "backoff_base_s": (float, 0),
}

_BROWSER_NUMBERS = {
    "viewport_width": (int, 1),
    "viewport_height": (int, 1),
    "nav_timeout_ms": (int, 1),
}


def _numbers(
    raw: dict[str, Any], prefix: str, defaults: Any, fields: dict[str, tuple[type, Any]]
) -> dict[str, Any]:
    """The checked number fields of one config section, defaults filled in."""
    out: dict[str, Any] = {}
    for key, (kind, low) in fields.items():
        value = raw.get(key, getattr(defaults, key))
        accepted = (int,) if kind is int else (int, float)
        if not isinstance(value, accepted) or isinstance(value, bool):
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{prefix}{key} must be {what}, got {value!r}")
        # False for NaN, the infinities, and ints too large for a float.
        if kind is float and not -sys.float_info.max <= value <= sys.float_info.max:
            raise ConfigError(f"{prefix}{key} must be a finite number, got {value!r}")
        if low is not None and value < low:
            raise ConfigError(f"{prefix}{key} must be at least {low}, got {value!r}")
        out[key] = kind(value)
    return out


def _path(raw: dict[str, Any], key: str, where: str) -> str | None:
    """An optional path or URL field: absent, null, or a string."""
    value = raw.get(key)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{where}{key} must be a string, got {value!r}")
    return value


def _parse_site(index: int, raw: Any) -> SiteSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"sites[{index}] must be an object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"sites[{index}].name must be a non-empty string")
    graph = _path(raw, "graph", f"sites[{index}].")
    start_url = _path(raw, "start_url", f"sites[{index}].")
    if graph is None and start_url is None:
        raise ConfigError(f"site {name!r} needs either a graph path or a start_url")
    examples = raw.get("task_examples", [])
    if not isinstance(examples, list) or not all(isinstance(e, str) for e in examples):
        raise ConfigError(f"site {name!r} task_examples must be a list of strings")
    return SiteSpec(
        name=name,
        graph=graph,
        start_url=start_url,
        intro=str(raw.get("intro", "")),
        task_examples=tuple(examples),
    )


def _parse_oracle(raw: Any) -> OracleSettings:
    if raw is None:
        return OracleSettings()
    if not isinstance(raw, dict):
        raise ConfigError("oracle must be an object")
    backend = raw.get("backend", OracleSettings.backend)
    if backend not in ("http", "mock"):
        raise ConfigError(f"oracle.backend must be 'http' or 'mock', got {backend!r}")
    if "api_key" in raw:
        raise ConfigError(
            "api_key must not appear in config; set it in the environment "
            "variable named by oracle.api_key_env"
        )
    settings = OracleSettings(
        backend=backend,
        endpoint_url=str(raw.get("endpoint_url", OracleSettings.endpoint_url)),
        model=str(raw.get("model", OracleSettings.model)),
        api_key_env=str(raw.get("api_key_env", OracleSettings.api_key_env)),
        mock_script=_path(raw, "mock_script", "oracle."),
        prompt_cost_per_token=str(
            raw.get("prompt_cost_per_token", OracleSettings.prompt_cost_per_token)
        ),
        completion_cost_per_token=str(
            raw.get("completion_cost_per_token", OracleSettings.completion_cost_per_token)
        ),
        **_numbers(raw, "oracle.", OracleSettings, _ORACLE_NUMBERS),
        budget_usd=None if raw.get("budget_usd") is None else str(raw["budget_usd"]),
    )
    for key in ("prompt_cost_per_token", "completion_cost_per_token", "budget_usd"):
        value = getattr(settings, key)
        if value is None:
            continue
        try:
            finite = Decimal(value).is_finite()
        except InvalidOperation:
            finite = False
        if not finite:
            raise ConfigError(f"oracle.{key} is not a finite decimal number: {value!r}")
    if backend == "mock" and not settings.mock_script:
        raise ConfigError("oracle.backend=mock requires oracle.mock_script")
    if backend == "http" and not settings.endpoint_url:
        raise ConfigError("oracle.backend=http requires oracle.endpoint_url")
    return settings


def _parse_browser(raw: Any) -> BrowserSettings:
    if raw is None:
        return BrowserSettings()
    if not isinstance(raw, dict):
        raise ConfigError("browser must be an object")
    return BrowserSettings(
        endpoint_url=str(raw.get("endpoint_url", BrowserSettings.endpoint_url)),
        **_numbers(raw, "browser.", BrowserSettings, _BROWSER_NUMBERS),
        screenshot_dir=_path(raw, "screenshot_dir", "browser."),
    )


def parse_config(raw: Any, *, base_dir: Path | None = None) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    sites_raw = raw.get("sites")
    if not isinstance(sites_raw, list) or not sites_raw:
        raise ConfigError("config needs a non-empty sites list")
    sites = tuple(_parse_site(i, s) for i, s in enumerate(sites_raw))
    names = [s.name for s in sites]
    if len(set(names)) != len(names):
        raise ConfigError("site names must be unique")
    config = RunConfig(
        sites=sites,
        oracle=_parse_oracle(raw.get("oracle")),
        browser=_parse_browser(raw.get("browser")),
        runs_dir=str(raw.get("runs_dir", RunConfig.runs_dir)),
        **_numbers(raw, "", RunConfig, _RUN_NUMBERS),
    )
    if base_dir is not None:
        config = _resolve_paths(config, base_dir)
    return config


def _resolve_paths(config: RunConfig, base_dir: Path) -> RunConfig:
    """Interpret relative paths in the config as relative to the config file."""

    def resolve(p: str | None) -> str | None:
        if p is None:
            return None
        path = Path(p)
        return str(path if path.is_absolute() else base_dir / path)

    sites = tuple(replace(s, graph=resolve(s.graph)) for s in config.sites)
    oracle = replace(config.oracle, mock_script=resolve(config.oracle.mock_script))
    browser = replace(
        config.browser, screenshot_dir=resolve(config.browser.screenshot_dir)
    )
    return replace(
        config, sites=sites, oracle=oracle, browser=browser,
        runs_dir=resolve(config.runs_dir),
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {path}: {exc}") from None
    return parse_config(raw, base_dir=path.resolve().parent)


def api_key_for(settings: OracleSettings) -> str | None:
    return os.environ.get(settings.api_key_env) or None
