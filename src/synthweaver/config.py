"""Run configuration: JSON file in, validated frozen dataclasses out.

Each setting is declared once, as a dataclass field. Its annotation says which
JSON value it takes; its metadata holds the rest: `min` and `max` bounds,
`path` for a path that resolves against the config file's directory, and
`decimal` for an amount kept as an exact decimal string. `_section` checks a
section's keys against those fields, so a new setting is one field, plus its
line in the README's configuration block.

Credentials never live here. The HTTP oracle reads its API key from the
environment variable named by `api_key_env`.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import MISSING, Field, dataclass, field, fields
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Any

from .errors import ConfigError, SchemaError
from .model import read_json_file


def _setting(default: Any, **metadata: Any) -> Any:
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class SiteSpec:
    """One website to explore: a simulator graph or a live start URL."""

    name: str
    graph: str | None = _setting(None, path=True)
    start_url: str | None = None
    intro: str = ""
    task_examples: tuple[str, ...] = ()


@dataclass(frozen=True)
class OracleSettings:
    backend: str = "http"  # http | mock
    endpoint_url: str = ""
    model: str = ""
    api_key_env: str = "SYNTHWEAVER_API_KEY"
    temperature: float = _setting(0.7, min=0)
    top_p: float = _setting(1.0, min=0)
    max_tokens: int = _setting(2048, min=1)
    # The socket layer cannot wait longer than threading.TIMEOUT_MAX.
    timeout_s: float = _setting(120.0, min=0.001, max=threading.TIMEOUT_MAX)
    mock_script: str | None = _setting(None, path=True)
    prompt_cost_per_token: str = _setting("0.000002", decimal=True)
    completion_cost_per_token: str = _setting("0.000008", decimal=True)
    transport_retries: int = _setting(3, min=1)
    reparse_attempts: int = _setting(2, min=0)
    backoff_base_s: float = _setting(1.0, min=0)
    budget_usd: str | None = _setting(None, decimal=True)


@dataclass(frozen=True)
class BrowserSettings:
    """Remote automation endpoint used by sites configured with start_url."""

    endpoint_url: str = ""
    viewport_width: int = _setting(1280, min=1)
    viewport_height: int = _setting(720, min=1)
    nav_timeout_ms: int = _setting(10000, min=1, max=int(1000 * threading.TIMEOUT_MAX))
    screenshot_dir: str | None = _setting(None, path=True)


@dataclass(frozen=True)
class RunConfig:
    sites: tuple[SiteSpec, ...]
    oracle: OracleSettings = field(default_factory=OracleSettings)
    browser: BrowserSettings = field(default_factory=BrowserSettings)
    seed: int = 0
    workers: int = _setting(1, min=1)
    runs_dir: str = _setting("runs", path=True)
    step_budget: int = _setting(30, min=1)
    context_window: int = _setting(3, min=1)
    stall_noop_threshold: int = _setting(3, min=0)
    loop_repeat_threshold: int = _setting(2, min=1)
    max_refines_per_task: int = _setting(4, min=0)
    max_tasks_per_site: int = _setting(500, min=1)
    max_pages_per_site: int = _setting(25, min=1)
    max_depth: int = _setting(3, min=0)
    probes_per_category: int = _setting(2, min=1)
    diversity_sample_size: int = _setting(100, min=0)


def _value(f: Field, value: Any, name: str, base_dir: Path | None) -> Any:
    """`value` checked against the annotation and metadata of field `f`."""
    meta, kind = f.metadata, f.type
    if value is None and kind == "str | None":
        return None
    if meta.get("decimal"):
        # A string or a JSON number; str() of any other JSON value is no decimal.
        try:
            finite = Decimal(str(value)).is_finite()
        except InvalidOperation:
            finite = False
        if not finite:
            raise ConfigError(f"{name} is not a finite decimal number: {value!r}")
        return str(value)
    if kind in ("int", "float"):
        accepted = (int,) if kind == "int" else (int, float)
        if not isinstance(value, accepted) or isinstance(value, bool):
            what = "an integer" if kind == "int" else "a number"
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        # False for NaN, the infinities, and ints too large for a float.
        if kind == "float" and not -sys.float_info.max <= value <= sys.float_info.max:
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if "min" in meta and value < meta["min"]:
            raise ConfigError(f"{name} must be at least {meta['min']}, got {value!r}")
        if "max" in meta and value > meta["max"]:
            raise ConfigError(f"{name} must be at most {meta['max']}, got {value!r}")
        return float(value) if kind == "float" else value
    if kind in ("str", "str | None"):
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        if meta.get("path") and base_dir is not None:
            return str(base_dir / value)  # an absolute value replaces base_dir
        return value
    assert kind == "tuple[str, ...]", f"no JSON reading for {name}: {kind}"
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{name} must be a list of strings, got {value!r}")
    return tuple(value)


def _section(raw: Any, where: str, cls: type, base_dir: Path | None, **parsed: Any) -> Any:
    """One config section: every key of `raw` checked against a field of `cls`,
    defaults filled in. `parsed` holds the nested sections, already read."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'config root'} must be an object")
    settings = fields(cls)
    known = {f.name for f in settings}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{where or 'config root'} has no setting {key!r}")
    values = dict(parsed)
    for f in settings:
        if f.name in parsed:
            continue
        name = f"{where}.{f.name}" if where else f.name
        if f.name in raw:
            values[f.name] = _value(f, raw[f.name], name, base_dir)
        elif f.default is MISSING:
            raise ConfigError(f"{name} is required")
        elif f.metadata.get("path"):
            values[f.name] = _value(f, f.default, name, base_dir)
    return cls(**values)


def _parse_site(index: int, raw: Any, base_dir: Path | None) -> SiteSpec:
    site = _section(raw, f"sites[{index}]", SiteSpec, base_dir)
    if not site.name:
        raise ConfigError(f"sites[{index}].name must be a non-empty string")
    if not (site.graph or site.start_url):
        raise ConfigError(f"site {site.name!r} needs either a graph path or a start_url")
    return site


def _parse_oracle(raw: Any, base_dir: Path | None) -> OracleSettings:
    if isinstance(raw, dict) and "api_key" in raw:
        raise ConfigError(
            "api_key must not appear in config; set it in the environment "
            "variable named by oracle.api_key_env"
        )
    settings = _section(raw, "oracle", OracleSettings, base_dir)
    if settings.backend not in ("http", "mock"):
        raise ConfigError(
            f"oracle.backend must be 'http' or 'mock', got {settings.backend!r}"
        )
    if settings.backend == "mock" and not settings.mock_script:
        raise ConfigError("oracle.backend=mock requires oracle.mock_script")
    if settings.backend == "http" and not settings.endpoint_url:
        raise ConfigError("oracle.backend=http requires oracle.endpoint_url")
    return settings


def parse_config(raw: Any, *, base_dir: Path | None = None) -> RunConfig:
    """Check `raw`, a config's JSON value; relative paths resolve against
    `base_dir` when it is given."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    sites_raw = raw.get("sites")
    if not isinstance(sites_raw, list) or not sites_raw:
        raise ConfigError("config needs a non-empty sites list")
    sites = tuple(_parse_site(i, s, base_dir) for i, s in enumerate(sites_raw))
    names = [s.name for s in sites]
    if len(set(names)) != len(names):
        raise ConfigError("site names must be unique")
    # An absent or null section takes its defaults.
    oracle, browser = ({} if raw.get(key) is None else raw[key] for key in ("oracle", "browser"))
    oracle = _parse_oracle(oracle, base_dir)
    browser = _section(browser, "browser", BrowserSettings, base_dir)
    for site in sites:
        # A site with a graph runs on the simulator, whatever its start_url.
        if not site.graph and not browser.endpoint_url:
            raise ConfigError(
                f"site {site.name!r} uses start_url but browser.endpoint_url is unset"
            )
    return _section(raw, "", RunConfig, base_dir, sites=sites, oracle=oracle, browser=browser)


def _overlaid(raw: Any, overrides: dict[str, Any]) -> Any:
    """`raw` with `overrides` laid over it, key by key into nested sections."""
    if not isinstance(raw, dict):
        return raw  # parse_config reports it
    out = dict(raw)
    for key, value in overrides.items():
        if isinstance(value, dict):
            value = _overlaid({} if raw.get(key) is None else raw[key], value)
        out[key] = value
    return out


def load_config(path: str | Path, overrides: dict[str, Any] | None = None) -> RunConfig:
    """Read and check the config file at `path`, with `overrides` (say, from
    the command line) laid over it before the check."""
    path = Path(path)
    try:
        raw = read_json_file(path)
    except SchemaError as exc:
        raise ConfigError(str(exc)) from None
    if overrides:
        raw = _overlaid(raw, overrides)
    return parse_config(raw, base_dir=path.resolve().parent)


def api_key_for(settings: OracleSettings) -> str | None:
    return os.environ.get(settings.api_key_env) or None
