"""Oracle client: transports, cost accounting, and the request loop.

The client is transport-agnostic. An HTTP transport talks to an OpenAI-style
chat endpoint; a mock transport replays scripted replies from a JSON file so
the whole pipeline runs hermetically in tests and offline runs.
"""

from __future__ import annotations

import fnmatch
import json
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from decimal import Decimal
from typing import Any, Callable, Protocol, Sequence, TypeVar

from ..config import OracleSettings, api_key_for
from ..errors import (
    BudgetExhausted,
    MockReplyMissing,
    NoJsonFound,
    SchemaError,
    SchemaViolation,
    TransportError,
)
from ..http_json import NoReply, request_json
from ..model import check_schema_version, read_json_file
from .replies import parse_reply
from .templates import RenderedPrompt

T = TypeVar("T")
U = TypeVar("U")
V = TypeVar("V")


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass(frozen=True)
class RawCompletion:
    text: str
    usage: Usage


def extract_json(text: str) -> dict[str, Any]:
    """Return the first balanced JSON object embedded anywhere in text.

    Completions wrap their JSON in prose, code fences, or stray braces, so we
    scan every '{' and take the first position where a full object decodes.
    """
    decoder = json.JSONDecoder()
    idx = text.find("{")
    while idx != -1:
        try:
            obj, _ = decoder.raw_decode(text, idx)
        except ValueError:
            pass
        else:
            if isinstance(obj, dict):
                return obj
        idx = text.find("{", idx + 1)
    raise NoJsonFound("no JSON object found in completion")


# ======================================================================
# cost ledger
# ======================================================================

@dataclass(frozen=True)
class Pricing:
    """Per-token USD rates, kept as Decimal so totals are exact."""

    prompt_per_token: Decimal
    completion_per_token: Decimal

    def cost(self, usage: Usage) -> Decimal:
        return (
            Decimal(usage.prompt_tokens) * self.prompt_per_token
            + Decimal(usage.completion_tokens) * self.completion_per_token
        )


class CostLedger:
    """Thread-safe token and cost accumulator: the run's only cost account.

    Spend is kept per (site, stage), so every per-site or per-stage figure is
    a sum over this one map and adds up to the total.
    """

    def __init__(self, budget_usd: Decimal | None = None) -> None:
        self._lock = threading.Lock()
        self.budget_usd = budget_usd
        self.total_cost = Decimal("0")
        self.total_prompt_tokens = 0
        self.total_completion_tokens = 0
        self.calls = 0
        self.by_site_stage: dict[tuple[str, str], Decimal] = {}

    def add(self, usage: Usage, cost: Decimal, *, site: str = "", stage: str = "") -> None:
        with self._lock:
            self.total_cost += cost
            self.total_prompt_tokens += usage.prompt_tokens
            self.total_completion_tokens += usage.completion_tokens
            self.calls += 1
            key = (site, stage)
            self.by_site_stage[key] = self.by_site_stage.get(key, Decimal("0")) + cost

    def stage_cost_by_site(self, stage: str) -> dict[str, Decimal]:
        """Spend of one stage, per site."""
        with self._lock:
            return {site: v for (site, s), v in self.by_site_stage.items() if s == stage}

    def check_budget(self) -> None:
        with self._lock:
            if self.budget_usd is not None and self.total_cost >= self.budget_usd:
                raise BudgetExhausted(
                    f"spent {self.total_cost} USD of {self.budget_usd} budget"
                )

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            nested: dict[str, dict[str, str]] = {}
            for (site, stage), cost in sorted(self.by_site_stage.items()):
                nested.setdefault(site, {})[stage] = str(cost)
            return {
                "total_cost_usd": str(self.total_cost),
                "budget_usd": None if self.budget_usd is None else str(self.budget_usd),
                "prompt_tokens": self.total_prompt_tokens,
                "completion_tokens": self.total_completion_tokens,
                "calls": self.calls,
                "by_site_stage": nested,
            }

    @classmethod
    def from_snapshot(cls, data: dict[str, Any]) -> "CostLedger":
        """The ledger a snapshot holds: each amount a finite decimal and each
        count an integer, none below 0."""

        def read(name: str, convert: Callable[[Any], Any], default: Any) -> Any:
            value = data.get(name, default)
            try:
                return convert(value)
            except (AttributeError, TypeError, ValueError, ArithmeticError):
                raise SchemaError(f"malformed value {value!r}", field=name) from None

        ledger = cls(budget_usd=read("budget_usd", _optional_amount, None))
        ledger.total_cost = read("total_cost_usd", _amount, "0")
        ledger.total_prompt_tokens = read("prompt_tokens", _count, 0)
        ledger.total_completion_tokens = read("completion_tokens", _count, 0)
        ledger.calls = read("calls", _count, 0)
        ledger.by_site_stage = read("by_site_stage", _costs_by_site_stage, None)
        return ledger


def _amount(value: Any) -> Decimal:
    # As in the config, str() of a JSON value other than a string or a number
    # is no decimal.
    amount = Decimal(str(value))
    if not amount.is_finite() or amount < 0:
        raise ValueError(value)
    return amount


def _optional_amount(value: Any) -> Decimal | None:
    return None if value is None else _amount(value)


def _count(value: Any) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(value)
    return value


def _costs_by_site_stage(nested: dict[str, dict[str, str]]) -> dict[tuple[str, str], Decimal]:
    return {
        (site, stage): _amount(cost)
        for site, stages in nested.items()
        for stage, cost in stages.items()
    }


# ======================================================================
# transports
# ======================================================================

class Transport(Protocol):
    def complete(self, prompt: RenderedPrompt) -> RawCompletion: ...


class HttpTransport:
    """OpenAI-compatible chat completions over HTTP.

    The API key comes from the environment, never from config files.
    """

    def __init__(self, settings: OracleSettings) -> None:
        self.settings = settings
        self.api_key = api_key_for(settings)

    def complete(self, prompt: RenderedPrompt) -> RawCompletion:
        content: Any
        if prompt.images:
            content = [{"type": "text", "text": prompt.text}]
            for ref in prompt.images:
                content.append({"type": "image_url", "image_url": {"url": ref}})
        else:
            content = prompt.text
        settings = self.settings
        body = {
            "model": settings.model,
            "messages": [{"role": "user", "content": content}],
            "temperature": settings.temperature,
            "top_p": settings.top_p,
            "max_tokens": settings.max_tokens,
        }
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        try:
            status, raw = request_json(
                "POST", settings.endpoint_url, body, headers, settings.timeout_s
            )
        except NoReply as exc:
            raise TransportError(f"completion request failed: {exc}") from exc
        if status != 200:
            raise TransportError(
                f"completion endpoint returned {status}: {raw.decode('utf-8', 'replace')[:200]}"
            )
        try:
            payload = json.loads(raw)
            text = payload["choices"][0]["message"]["content"]
            usage_raw = payload.get("usage")
            usage = _usage({} if usage_raw is None else usage_raw, "usage", strict=False)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError, SchemaError) as exc:
            raise TransportError(f"malformed completion payload: {exc}") from exc
        return RawCompletion(text=text if isinstance(text, str) else "", usage=usage)


def _usage(raw: Any, field: str, *, strict: bool = True) -> Usage:
    """Token counts, of a mock script or an HTTP reply: each a non-negative
    integer, 0 when absent. Other keys are an error only when `strict`."""
    keys = ("prompt_tokens", "completion_tokens")
    if not isinstance(raw, dict) or strict and not set(raw) <= set(keys):
        raise SchemaError("must be an object of prompt_tokens and completion_tokens", field=field)
    counts = {key: raw.get(key, 0) for key in keys}
    for key, value in counts.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise SchemaError(f"{key} must be a non-negative integer", field=field)
    return Usage(**counts)


_REPLY_KEYS = ("reply", "raw", "replies", "raws")
_RULE_KEYS = frozenset(("template", "when", "scope", "usage", *_REPLY_KEYS))


def _check_rule(rule: Any, loc: str) -> None:
    """A mock rule: a template name, string `when` patterns and `scope`, and
    exactly one reply field, where a series is a non-empty list. Any other
    key is an error, so a misspelt `when` cannot widen what a rule matches."""
    if not isinstance(rule, dict):
        raise SchemaError("rule must be an object", field=loc)
    unknown = set(rule) - _RULE_KEYS
    if unknown:
        raise SchemaError(f"unknown keys: {', '.join(sorted(unknown))}", field=loc)
    if not isinstance(rule.get("template"), str):
        raise SchemaError("must be a string", field=f"{loc}.template")
    when = rule.get("when", {})
    if not isinstance(when, dict) or not all(isinstance(p, str) for p in when.values()):
        raise SchemaError("must be an object of string patterns", field=f"{loc}.when")
    if not isinstance(rule.get("scope", ""), str):
        raise SchemaError("must be a string", field=f"{loc}.scope")
    replies = [key for key in _REPLY_KEYS if key in rule]
    if len(replies) != 1:
        raise SchemaError(f"needs exactly one of {', '.join(_REPLY_KEYS)}", field=loc)
    series = rule.get(replies[0])
    if replies[0] in ("replies", "raws") and not (isinstance(series, list) and series):
        raise SchemaError("must be a non-empty list", field=f"{loc}.{replies[0]}")


class MockScript:
    """Deterministic scripted replies loaded from a JSON file.

    Rules match on template name plus fnmatch patterns over the rendered
    prompt's variables. A rule may carry one reply or a sequence; sequences
    advance a cursor keyed by the value of the rule's `scope` variable, so
    independent tasks replay independently even under thread interleaving.
    """

    def __init__(self, data: dict[str, Any]) -> None:
        check_schema_version(data, 1)
        self.default_usage = _usage(data.get("default_usage", {}), "default_usage")
        self.rules: list[dict[str, Any]] = data.get("rules", [])
        if not isinstance(self.rules, list):
            raise SchemaError("must be a list", field="rules")
        self._usages: list[Usage] = []
        for idx, rule in enumerate(self.rules):
            _check_rule(rule, f"rules[{idx}]")
            usage = rule.get("usage")
            self._usages.append(
                _usage(usage, f"rules[{idx}].usage") if usage else self.default_usage
            )
        self._cursors: dict[tuple[int, str], int] = {}
        self._lock = threading.Lock()

    @classmethod
    def load(cls, path: str) -> "MockScript":
        data = read_json_file(path)
        try:
            return cls(data)
        except SchemaError as exc:
            raise SchemaError(str(exc), path=str(path)) from None

    def _matches(self, rule: dict[str, Any], prompt: RenderedPrompt) -> bool:
        if rule.get("template") != prompt.template.value:
            return False
        for var, pattern in rule.get("when", {}).items():
            value = prompt.variables.get(var)
            if value is None:
                return False
            if not fnmatch.fnmatchcase(str(value), pattern):
                return False
        return True

    @staticmethod
    def _interpolate(node: Any, variables: dict[str, Any]) -> Any:
        if isinstance(node, str):
            out = node
            for key, value in variables.items():
                out = out.replace("{{" + key + "}}", str(value))
            return out
        if isinstance(node, list):
            return [MockScript._interpolate(n, variables) for n in node]
        if isinstance(node, dict):
            return {k: MockScript._interpolate(v, variables) for k, v in node.items()}
        return node

    def reply_for(self, prompt: RenderedPrompt) -> RawCompletion:
        for idx, rule in enumerate(self.rules):
            if not self._matches(rule, prompt):
                continue
            series = rule.get("replies", rule.get("raws"))
            if series is None:
                pick = rule["reply"] if "reply" in rule else rule["raw"]
            else:
                scope_var = rule.get("scope", "")
                scope_value = str(prompt.variables.get(scope_var, "")) if scope_var else ""
                with self._lock:
                    cursor = self._cursors.get((idx, scope_value), 0)
                    # Repeat the last entry once the series runs out.
                    pick = series[min(cursor, len(series) - 1)]
                    self._cursors[(idx, scope_value)] = cursor + 1
            pick = self._interpolate(pick, prompt.variables)
            text = pick if isinstance(pick, str) else json.dumps(pick, ensure_ascii=False)
            return RawCompletion(text=text, usage=self._usages[idx])
        raise MockReplyMissing(
            f"no mock rule matches template={prompt.template.value} "
            f"variables={sorted(prompt.variables)}"
        )


class MockTransport:
    def __init__(self, script: MockScript) -> None:
        self.script = script

    def complete(self, prompt: RenderedPrompt) -> RawCompletion:
        return self.script.reply_for(prompt)


# ======================================================================
# client
# ======================================================================

def run_now(fn: Callable[..., Any], *args: Any) -> Future:
    """Run fn(*args) on this thread; a finished future holds its result or
    exception."""
    future: Future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


class OracleClient:
    """One call = transport with retry, JSON extraction, schema validation.

    A client serves one pipeline stage and charges every call to that stage,
    under the site the caller names. Transport failures retry with
    exponential backoff. Schema violations get one or more re-requests that
    append the violation as a corrective hint. Every attempt is charged to
    the ledger, including failed ones, and none is sent once spend has
    reached the budget. Retries, re-asks and prices come from `settings`.

    The client owns the stage's one pool, of 2 x `workers` - 1 threads
    started on demand. `map` runs the stage's jobs on the calling thread and
    pool threads. On an HTTP oracle (`overlaps`), jobs that never call
    `submit` take the whole pool, 2 x `workers` at once; explore's site
    crawls, which `submit` their task proposals, take `workers` and leave the
    rest to those proposals. The in-process `MockTransport` has nothing to
    wait for: there `map` runs `workers` jobs and `submit` runs inline. So a
    stage has at most 2 x `workers` calls in flight on an HTTP oracle, and
    at most `workers` on the mock.
    """

    def __init__(
        self,
        transport: Transport,
        ledger: CostLedger,
        settings: OracleSettings,
        *,
        stage: str,
        sleep: Callable[[float], None] = time.sleep,
        workers: int = 1,
    ) -> None:
        self.transport = transport
        self.ledger = ledger
        self.settings = settings
        self.stage = stage
        self.pricing = Pricing(
            Decimal(settings.prompt_cost_per_token),
            Decimal(settings.completion_cost_per_token),
        )
        self._sleep = sleep
        self.overlaps = not isinstance(transport, MockTransport)
        self.workers = workers
        self._pool = ThreadPoolExecutor(max_workers=2 * workers - 1)
        self._pool_taken = False

    def map(
        self,
        fn: Callable[[T], U],
        jobs: Sequence[T],
        *,
        submits: bool = False,
        commit: Callable[[U], V] | None = None,
    ) -> list[Any]:
        """fn over jobs, in job order; each thread takes the next job. When
        the client overlaps, jobs run on the calling thread and the whole
        pool, and `submit` refuses work until they are done, as its future
        would wait behind them; jobs that call `submit` (`submits=True`) run
        on the calling thread and `workers` - 1 pool threads, and leave the
        rest to what they submit. Otherwise `workers` jobs run at once.

        `commit`, when given, runs under one lock on each job's result in job
        order, once that job and every earlier one have finished, and what
        it returns replaces the result; it stops at the first job that
        raised. So what it writes has the same order at any width.

        Once a job or a commit has raised, or the caller is interrupted, no
        job starts; the others finish their current job, then the first job
        in order that raised re-raises."""
        results: list[Any] = [None] * len(jobs)
        errors: dict[int, BaseException] = {}
        todo = deque(range(len(jobs)))  # its pops and clears are atomic
        finished = [False] * len(jobs)
        committed = 0  # jobs whose result has gone through `commit`
        lock = threading.Lock()

        def settle(i: int) -> None:
            nonlocal committed
            with lock:
                finished[i] = True
                while committed < len(jobs) and finished[committed] and committed not in errors:
                    try:
                        results[committed] = commit(results[committed])
                    except BaseException as exc:
                        errors[committed] = exc
                        todo.clear()
                        return
                    committed += 1

        def work() -> None:
            while True:
                try:
                    i = todo.popleft()
                except IndexError:
                    return
                try:
                    results[i] = fn(jobs[i])
                except BaseException as exc:
                    errors[i] = exc
                    todo.clear()
                if commit is not None:
                    settle(i)

        wide = not submits and self.overlaps
        width = 2 * self.workers if wide else self.workers
        self._pool_taken = wide
        helpers = [self._pool.submit(work) for _ in range(min(width, len(jobs)) - 1)]
        try:
            work()
        finally:
            todo.clear()  # the caller is done or interrupted
            wait(helpers)
            self._pool_taken = False
        if errors:
            raise errors[min(errors)]
        return results

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Run fn(*args) on the pool, or inline when the client does not
        overlap; its result or exception is read from the future."""
        if self._pool_taken:
            raise RuntimeError("submit from a map whose jobs were declared not to submit")
        if self.overlaps:
            return self._pool.submit(fn, *args)
        return run_now(fn, *args)

    def close(self) -> None:
        """Cancel submitted work not yet started and wait for the running
        work, so nothing is charged after this returns."""
        self._pool.shutdown(wait=True, cancel_futures=True)

    def _complete_with_retry(self, prompt: RenderedPrompt) -> RawCompletion:
        retries = self.settings.transport_retries
        last: TransportError | None = None
        for attempt in range(retries):
            try:
                return self.transport.complete(prompt)
            except TransportError as exc:
                last = exc
                if attempt + 1 < retries:
                    self._sleep(self.settings.backoff_base_s * (2**attempt))
        raise TransportError(f"transport failed after {retries} attempts: {last}")

    def call(
        self,
        prompt: RenderedPrompt,
        *,
        site: str = "",
        context: dict[str, Any] | None = None,
    ) -> Any:
        """Return the validated reply; every attempt is charged to the ledger
        under (site, this client's stage)."""
        current = prompt
        last_violation: SchemaViolation | None = None
        attempts = 1 + self.settings.reparse_attempts
        for _ in range(attempts):
            self.ledger.check_budget()
            completion = self._complete_with_retry(current)
            cost = self.pricing.cost(completion.usage)
            self.ledger.add(completion.usage, cost, site=site, stage=self.stage)
            try:
                payload = extract_json(completion.text)
                return parse_reply(prompt.template, payload, context)
            except SchemaViolation as exc:
                last_violation = exc
                hint = (
                    f"{prompt.text}\n\nYour previous reply was rejected: {exc}. "
                    "Reply again with a single valid JSON object."
                )
                current = replace(prompt, text=hint)
        raise SchemaViolation(
            f"reply failed validation after {attempts} attempts: {last_violation}"
        )
