"""Oracle layer: JSON extraction, reply validation, scripted mock, client retries, ledger."""
from __future__ import annotations

import json
import threading
import time
from decimal import Decimal
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from synthweaver import __version__
from synthweaver.actions import ActionKind, make_action
from synthweaver.config import OracleSettings
from synthweaver.errors import (
    BudgetExhausted,
    MockReplyMissing,
    NoJsonFound,
    SchemaError,
    SchemaViolation,
    TransportError,
)
from synthweaver.oracle import (
    CostLedger,
    EditEnd,
    HttpTransport,
    Judgment,
    MockScript,
    MockTransport,
    OracleClient,
    RawCompletion,
    RefineDecision,
    Usage,
    extract_json,
    parse_reply,
)
from synthweaver.oracle.templates import RenderedPrompt, TemplateName
from tests.conftest import make_client


def prompt(template=TemplateName.NEXT_ACTION, text="do it", **variables) -> RenderedPrompt:
    return RenderedPrompt(template=template, text=text, variables=variables)


# ======================================================================
# extract_json
# ======================================================================

EXTRACT_CASES = [
    ('{"a": 1}', {"a": 1}),
    ('  {"a": 1}  ', {"a": 1}),
    ('prose before {"a": 1}', {"a": 1}),
    ('{"a": 1} prose after', {"a": 1}),
    ('```json\n{"a": 1}\n```', {"a": 1}),
    ('```\n{"a": 1}\n```', {"a": 1}),
    ('{"a": {"b": [1, 2]}}', {"a": {"b": [1, 2]}}),
    ('{"a": "text with } brace"}', {"a": "text with } brace"}),
    ('{"a": "text with { brace"}', {"a": "text with { brace"}),
    ('first {"a": 1} then {"b": 2}', {"a": 1}),
    ('{broken then {"ok": true}', {"ok": True}),
    ('{"a": "multi\\nline"}', {"a": "multi\nline"}),
    ('{"é": "ü"}', {"é": "ü"}),
    ('Answer:\r\n{"a": 1}\r\n', {"a": 1}),
    ('{"score": 100, "nested": {"deep": {"deeper": null}}}',
     {"score": 100, "nested": {"deep": {"deeper": None}}}),
    ('x{y{z{"a":1}', {"a": 1}),
]


@pytest.mark.parametrize("text,expected", EXTRACT_CASES)
def test_extract_json_finds_first_object(text, expected):
    assert extract_json(text) == expected


@pytest.mark.parametrize("text", ["", "no json here", "[1, 2, 3]", '"just a string"',
                                  "{unclosed", "{{{{", "42"])
def test_extract_json_rejects_objectless_text(text):
    with pytest.raises(NoJsonFound):
        extract_json(text)


# ======================================================================
# reply validation
# ======================================================================

def next_action_payload(kind="click", element_id=3, value=""):
    return {
        "state_observation_summary": "a page",
        "reasoning": "because",
        "next_action": {
            "low-level_instruction": "do the thing",
            "action": {"type": kind, "element_id": element_id, "value": value},
        },
    }


class TestNextActionReply:
    def test_valid_click(self):
        reply = parse_reply(TemplateName.NEXT_ACTION, next_action_payload())
        assert reply.action.kind is ActionKind.CLICK
        assert reply.action.element_id == 3
        assert reply.action.low_level_instruction == "do the thing"

    def test_empty_string_element_id_means_none(self):
        reply = parse_reply(
            TemplateName.NEXT_ACTION, next_action_payload("scroll", "", "down")
        )
        assert reply.action.element_id is None

    def test_null_value_means_empty(self):
        payload = next_action_payload("go_back", "")
        payload["next_action"]["action"]["value"] = None
        assert parse_reply(TemplateName.NEXT_ACTION, payload).action.value == ""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("reasoning"),
            lambda p: p.pop("next_action"),
            lambda p: p["next_action"].pop("action"),
            lambda p: p["next_action"]["action"].pop("type"),
            lambda p: p["next_action"]["action"].update(type="fly"),
            lambda p: p["next_action"]["action"].update(element_id="seven"),
            lambda p: p["next_action"]["action"].update(element_id=True),
            lambda p: p["next_action"]["action"].update(type="none", element_id=""),
            lambda p: p["next_action"]["action"].update(type="type", value=""),
            lambda p: p["next_action"]["action"].update(type="stop", element_id="",
                                                        value="has ] bracket"),
            # Checked though no stage keeps it.
            lambda p: p.update(reasoning=["a list"]),
        ],
    )
    def test_violations(self, mutate):
        payload = next_action_payload()
        mutate(payload)
        with pytest.raises(SchemaViolation):
            parse_reply(TemplateName.NEXT_ACTION, payload)


class TestRefineTaskReply:
    def test_yes_requires_task(self):
        reply = parse_reply(
            TemplateName.REFINE_TASK,
            {"Analysis": "conflict", "Need-to-Refine": "YES", "High-Level-Task": " new task "},
        )
        assert reply == "new task"

    def test_no_requires_empty_task(self):
        reply = parse_reply(
            TemplateName.REFINE_TASK,
            {"Analysis": "fine", "Need-to-Refine": "No", "High-Level-Task": ""},
        )
        assert reply is None

    @pytest.mark.parametrize(
        "payload",
        [
            {"Analysis": "x", "Need-to-Refine": "maybe", "High-Level-Task": ""},
            {"Analysis": "x", "Need-to-Refine": "yes", "High-Level-Task": "  "},
            {"Analysis": "x", "Need-to-Refine": "no", "High-Level-Task": "stray"},
            {"Analysis": "x", "Need-to-Refine": True, "High-Level-Task": ""},
            {"Need-to-Refine": "no", "High-Level-Task": ""},
        ],
    )
    def test_violations(self, payload):
        with pytest.raises(SchemaViolation):
            parse_reply(TemplateName.REFINE_TASK, payload)


def refine_payload(**overrides):
    payload = {
        "task": "the task",
        "score": 80,
        "decision": "keep",
        "order": [0, 1, 2],
        "modify_end": False,
        "append_end": False,
        "final_none_value": "the answer",
        "drop_reason": "",
        "modification_reason": "",
    }
    payload.update(overrides)
    return payload


REFINE_CTX = {"k": 3, "expected_task": "the task"}


class TestRefineTrajectoryReply:
    def test_valid_keep(self):
        reply = parse_reply(TemplateName.REFINE_TRAJECTORY, refine_payload(), REFINE_CTX)
        assert reply.decision.value == "keep" and reply.order == (0, 1, 2)

    def test_valid_refine_subset(self):
        reply = parse_reply(
            TemplateName.REFINE_TRAJECTORY,
            refine_payload(decision="refine", order=[0, 2], modification_reason="cut a step"),
            REFINE_CTX,
        )
        # A parsed judgment names no trajectory; a keep end writes no answer.
        assert reply == Judgment(site="", trajectory_id="", decision=RefineDecision.REFINE,
                                 score=80, order=(0, 2), end=EditEnd.KEEP,
                                 final_none_value="", reason="cut a step")

    def test_valid_drop(self):
        reply = parse_reply(
            TemplateName.REFINE_TRAJECTORY,
            refine_payload(decision="drop", order=[], final_none_value="",
                           drop_reason="went nowhere", score=5),
            REFINE_CTX,
        )
        assert (reply.decision, reply.order, reply.reason) == (
            RefineDecision.DROP, (), "went nowhere")

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(order=[0, 1, 1]),                          # duplicate index
            dict(order=[0, 1, 3]),                          # out of range for K=3
            dict(order=[-1, 0, 1]),                         # negative index
            dict(order=[0, 1]),                             # keep must be identity
            dict(order=[2, 1, 0]),                          # keep must be ascending identity
            dict(score=101),
            dict(score=-1),
            dict(score=True),                               # bool is not an int score
            dict(score="80"),
            dict(decision="maybe"),
            dict(task="a different task"),
            dict(final_none_value=""),                      # keep needs a final answer
            dict(decision="refine", order=[0, 1], modify_end=True, append_end=True),
            dict(modify_end=True),                          # keep may not modify
            dict(append_end=True),
            dict(modify_end="yes"),                         # strict bool
            dict(decision="drop", order=[0], final_none_value="", drop_reason="r"),
            dict(decision="drop", order=[], final_none_value="", drop_reason="  "),
            dict(decision="drop", order=[], final_none_value="leftover", drop_reason="r"),
            # The edit makes it the answer of a `none` step, which may not hold ']'.
            dict(decision="refine", order=[0, 1], modify_end=True, final_none_value="a]b"),
            dict(decision="refine", order=[0, 1], append_end=True, final_none_value="a]b"),
            dict(drop_reason=None),
            dict(modification_reason=3),
        ],
    )
    def test_violations(self, overrides):
        with pytest.raises(SchemaViolation):
            parse_reply(TemplateName.REFINE_TRAJECTORY, refine_payload(**overrides), REFINE_CTX)

    def test_requires_length_context(self):
        with pytest.raises(SchemaViolation):
            parse_reply(TemplateName.REFINE_TRAJECTORY, refine_payload(), {"expected_task": "the task"})


def diversity_payload(**overrides):
    payload = {
        "score": 70,
        "subscores": {"intent_variety": 20, "action_diversity": 15,
                      "goal_coverage": 20, "redundancy_minimization": 15},
        "analysis": "spread is decent",
        "representative_examples": ["task one", "task two"],
    }
    payload.update(overrides)
    return payload


class TestDiversityReply:
    def test_valid(self):
        reply = parse_reply(TemplateName.JUDGE_DIVERSITY, diversity_payload())
        assert reply == {"score": 70, "subscores": diversity_payload()["subscores"]}

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(score=71),                                  # sum mismatch
            dict(subscores={"intent_variety": 30, "action_diversity": 15,
                            "goal_coverage": 20, "redundancy_minimization": 5}),
            dict(subscores={"intent_variety": 20, "action_diversity": 15,
                            "goal_coverage": 20}),           # missing key
            dict(subscores={"intent_variety": 20, "action_diversity": 15,
                            "goal_coverage": 20, "redundancy_minimization": 15,
                            "extra": 0}),
            dict(representative_examples="not a list"),
            dict(analysis=7),
        ],
    )
    def test_violations(self, overrides):
        with pytest.raises(SchemaViolation):
            parse_reply(TemplateName.JUDGE_DIVERSITY, diversity_payload(**overrides))


def categorize_payload():
    return {
        "Analysis": "a page",
        "Categorization": {
            "Navigation": [
                {"action": "click", "element_id": 1, "value": "",
                 "low-level_instruction": "Click the link"}
            ],
            "Forms": [
                {"action": "type", "element_id": 2, "value": "abc",
                 "low-level_instruction": "Type abc"}
            ],
            "uninteractive_elements": [3],
        },
    }


class TestCategorizeReply:
    def test_valid_with_coverage(self):
        reply = parse_reply(TemplateName.CATEGORIZE, categorize_payload(),
                            {"element_ids": [1, 2, 3]})
        assert set(reply) == {"Navigation", "Forms"}

    def test_phantom_id_rejected(self):
        with pytest.raises(SchemaViolation, match="not on the page"):
            parse_reply(TemplateName.CATEGORIZE, categorize_payload(),
                        {"element_ids": [1, 2]})

    def test_uncovered_id_rejected(self):
        with pytest.raises(SchemaViolation, match="uncategorized"):
            parse_reply(TemplateName.CATEGORIZE, categorize_payload(),
                        {"element_ids": [1, 2, 3, 9]})

    def test_duplicate_id_across_categories(self):
        payload = categorize_payload()
        payload["Categorization"]["Navigation"].append(
            {"action": "hover", "element_id": 2, "value": "", "low-level_instruction": "Hover"})
        with pytest.raises(SchemaViolation, match="two categories"):
            parse_reply(TemplateName.CATEGORIZE, payload, {"element_ids": [1, 2, 3]})

    def test_type_requires_value(self):
        payload = categorize_payload()
        payload["Categorization"]["Forms"][0]["value"] = ""
        with pytest.raises(SchemaViolation):
            parse_reply(TemplateName.CATEGORIZE, payload, {"element_ids": [1, 2, 3]})

    def test_non_interaction_kinds_rejected(self):
        payload = categorize_payload()
        payload["Categorization"]["Navigation"][0]["action"] = "scroll"
        with pytest.raises(SchemaViolation):
            parse_reply(TemplateName.CATEGORIZE, payload, {"element_ids": [1, 2, 3]})

    def test_probes_are_actions(self):
        reply = parse_reply(TemplateName.CATEGORIZE, categorize_payload(),
                            {"element_ids": [1, 2, 3]})
        assert reply == {
            "Navigation": (make_action(ActionKind.CLICK, 1),),
            "Forms": (make_action(ActionKind.TYPE, 2, "abc"),),
        }
        assert reply["Forms"][0].low_level_instruction == "Type abc"

    @pytest.mark.parametrize("category,value", [
        ("Navigation", "x"),     # a click has no value slot
        ("Forms", "a]b"),        # no value may hold ']'
    ])
    def test_probe_that_breaks_the_grammar_is_rejected(self, category, value):
        payload = categorize_payload()
        payload["Categorization"][category][0]["value"] = value
        with pytest.raises(SchemaViolation, match="invalid probe on element"):
            parse_reply(TemplateName.CATEGORIZE, payload, {"element_ids": [1, 2, 3]})

    # Fields no stage reads are still checked.
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("Analysis"),
            lambda p: p.update(Analysis=["a page"]),
            lambda p: p["Categorization"].update(uninteractive_elements=["3"]),
        ],
    )
    def test_violations(self, mutate):
        payload = categorize_payload()
        mutate(payload)
        with pytest.raises(SchemaViolation):
            parse_reply(TemplateName.CATEGORIZE, payload, {"element_ids": [1, 2, 3]})


PROPOSAL = {"Sub-Instruction": "s", "Analysis": "a", "High-Level-Instruction": "Find a cable"}


class TestProposeAndQuality:
    def test_propose_collapses_whitespace(self):
        payload = {**PROPOSAL, "High-Level-Instruction": "  Find the\n cheapest   cable "}
        assert parse_reply(TemplateName.PROPOSE_TASK, payload) == "Find the cheapest cable"

    def test_propose_requires_instruction(self):
        with pytest.raises(SchemaViolation):
            parse_reply(TemplateName.PROPOSE_TASK,
                        {"Sub-Instruction": "s", "Analysis": "a", "High-Level-Instruction": " "})

    @pytest.mark.parametrize("missing", ["Sub-Instruction", "Analysis"])
    def test_propose_violations(self, missing):
        payload = {k: v for k, v in PROPOSAL.items() if k != missing}
        with pytest.raises(SchemaViolation, match=missing):
            parse_reply(TemplateName.PROPOSE_TASK, payload)

    def test_quality_score_range(self):
        assert parse_reply(TemplateName.JUDGE_QUALITY, {"score": 0, "analysis": "meh"}) == 0
        with pytest.raises(SchemaViolation):
            parse_reply(TemplateName.JUDGE_QUALITY, {"score": 101, "analysis": "x"})

    def test_quality_violations(self):
        with pytest.raises(SchemaViolation, match="analysis"):
            parse_reply(TemplateName.JUDGE_QUALITY, {"score": 50, "analysis": None})


# ======================================================================
# MockScript
# ======================================================================

class TestMockScript:
    def test_schema_version_enforced(self):
        with pytest.raises(SchemaError):
            MockScript({"schema_version": 2, "rules": []})

    def test_template_and_when_matching(self):
        script = MockScript({
            "schema_version": 1,
            "rules": [
                {"template": "next_action", "when": {"url": "*login*"}, "raw": '{"page": "login"}'},
                {"template": "next_action", "raw": '{"page": "any"}'},
            ],
        })
        hit = script.reply_for(prompt(url="https://x.test/login"))
        assert '"login"' in hit.text
        miss = script.reply_for(prompt(url="https://x.test/home"))
        assert '"any"' in miss.text

    def test_missing_when_variable_skips_rule(self):
        script = MockScript({
            "schema_version": 1,
            "rules": [
                {"template": "next_action", "when": {"absent_var": "*"}, "raw": '{"a": 1}'},
                {"template": "next_action", "raw": '{"b": 2}'},
            ],
        })
        assert '"b"' in script.reply_for(prompt(url="u")).text

    def test_no_match_raises(self):
        script = MockScript({"schema_version": 1, "rules": []})
        with pytest.raises(MockReplyMissing):
            script.reply_for(prompt())

    def test_reply_series_advances_and_repeats_last(self):
        script = MockScript({
            "schema_version": 1,
            "rules": [{"template": "next_action", "scope": "task",
                       "raws": ['{"n": 1}', '{"n": 2}']}],
        })
        p = prompt(task="t1")
        assert [script.reply_for(p).text for _ in range(4)] == \
            ['{"n": 1}', '{"n": 2}', '{"n": 2}', '{"n": 2}']

    def test_scoped_cursors_are_independent(self):
        script = MockScript({
            "schema_version": 1,
            "rules": [{"template": "next_action", "scope": "task",
                       "raws": ['{"n": 1}', '{"n": 2}']}],
        })
        assert script.reply_for(prompt(task="a")).text == '{"n": 1}'
        assert script.reply_for(prompt(task="b")).text == '{"n": 1}'
        assert script.reply_for(prompt(task="a")).text == '{"n": 2}'

    def test_interpolation_of_variables(self):
        script = MockScript({
            "schema_version": 1,
            "rules": [{"template": "propose_task",
                       "reply": {"echo": "got {{current_action_str}}"}}],
        })
        out = script.reply_for(prompt(TemplateName.PROPOSE_TASK,
                                      current_action_str="Click it"))
        assert '"got Click it"' in out.text

    def test_usage_overrides_default(self):
        script = MockScript({
            "schema_version": 1,
            "default_usage": {"prompt_tokens": 10, "completion_tokens": 5},
            "rules": [
                {"template": "next_action", "when": {"task": "big"}, "raw": "{}",
                 "usage": {"prompt_tokens": 1000, "completion_tokens": 400}},
                {"template": "next_action", "raw": "{}"},
            ],
        })
        assert script.reply_for(prompt(task="big")).usage == Usage(1000, 400)
        assert script.reply_for(prompt(task="small")).usage == Usage(10, 5)


# ======================================================================
# HttpTransport
# ======================================================================

PATH = "/v1/chat/completions"


class _ChatHandler(BaseHTTPRequestHandler):
    def log_message(self, *args: object) -> None:
        pass

    def do_POST(self) -> None:  # noqa: N802 (protocol casing)
        fake = self.server.fake  # type: ignore[attr-defined]
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        fake.sent.append({"method": self.command, "path": self.path,
                          "headers": self.headers, "json": json.loads(raw)})
        fake.release.wait(fake.delay_s)
        status, payload = fake.reply
        data = json.dumps(payload).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except ConnectionError:  # the client gave up waiting
            pass


@pytest.fixture
def posted():
    """A chat endpoint on 127.0.0.1: records each request's method, path,
    headers and decoded JSON body, and answers with `posted.reply`, a
    (status, payload) pair, after holding it `posted.delay_s` seconds."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    fake = server.fake = SimpleNamespace(  # type: ignore[attr-defined]
        sent=[], reply=(200, reply_payload()), delay_s=0.0, release=threading.Event(),
        url=f"http://127.0.0.1:{server.server_address[1]}{PATH}",
    )
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02})
    thread.start()
    try:
        yield fake
    finally:
        fake.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def reply_payload(**overrides):
    payload = {"choices": [{"message": {"content": "hi"}}],
               "usage": {"prompt_tokens": 3, "completion_tokens": 4}}
    payload.update(overrides)
    return payload


def http_transport(posted, **fields) -> HttpTransport:
    return HttpTransport(OracleSettings(endpoint_url=posted.url, model="m", **fields))


class TestHttpTransport:
    def test_body_and_timeout_come_from_settings(self, posted):
        posted.delay_s = 0.3  # answered within timeout_s=7.5
        transport = http_transport(posted, temperature=0.2, top_p=0.9, max_tokens=64,
                                   timeout_s=7.5)
        completion = transport.complete(prompt(text="do it"))
        [request] = posted.sent
        assert (request["method"], request["path"]) == ("POST", PATH)
        assert request["json"] == {
            "model": "m",
            "messages": [{"role": "user", "content": "do it"}],
            "temperature": 0.2,
            "top_p": 0.9,
            "max_tokens": 64,
        }
        assert request["headers"]["Content-Type"] == "application/json"
        assert request["headers"]["User-Agent"] == f"synthweaver/{__version__}"
        assert completion == RawCompletion(text="hi", usage=Usage(3, 4))

    def test_reply_held_past_the_timeout_is_a_transport_error(self, posted):
        posted.delay_s = 0.3
        with pytest.raises(TransportError, match="completion request failed"):
            http_transport(posted, timeout_s=0.1).complete(prompt())

    def test_images_are_sent_as_content_parts(self, posted):
        shot = RenderedPrompt(template=TemplateName.NEXT_ACTION, text="look",
                              variables={}, images=("data:image/png;base64,AA",))
        http_transport(posted).complete(shot)
        assert posted.sent[0]["json"]["messages"][0]["content"] == [
            {"type": "text", "text": "look"},
            {"type": "image_url", "image_url": {"url": "data:image/png;base64,AA"}},
        ]

    def test_authorization_comes_from_the_named_variable(self, posted, monkeypatch):
        monkeypatch.setenv("SW_TEST_KEY", "sekret")
        http_transport(posted, api_key_env="SW_TEST_KEY").complete(prompt())
        monkeypatch.delenv("SW_TEST_KEY")
        http_transport(posted, api_key_env="SW_TEST_KEY").complete(prompt())
        first, second = posted.sent
        assert first["headers"]["Authorization"] == "Bearer sekret"
        assert "Authorization" not in second["headers"]

    def test_non_200_raises_transport_error(self, posted):
        posted.reply = (503, {"error": "busy"})
        with pytest.raises(TransportError, match="503"):
            http_transport(posted).complete(prompt())

    @pytest.mark.parametrize("usage", [None, "absent"])
    def test_null_or_missing_usage_counts_zero_tokens(self, posted, usage):
        payload = reply_payload(usage=usage)
        if usage == "absent":
            del payload["usage"]
        posted.reply = (200, payload)
        assert http_transport(posted).complete(prompt()).usage == Usage(0, 0)

    @pytest.mark.parametrize("usage", [
        {"prompt_tokens": None, "completion_tokens": 4},
        {"prompt_tokens": 3, "completion_tokens": "many"},
        ["not", "an", "object"],
        # Each count passes the rule of mock scripts: a non-negative integer.
        {"prompt_tokens": -100000, "completion_tokens": 4},
        {"prompt_tokens": 3, "completion_tokens": -1},
        {"prompt_tokens": 3.0, "completion_tokens": 4},
        {"prompt_tokens": 3, "completion_tokens": True},
        {"prompt_tokens": "3", "completion_tokens": 4},
        "3 tokens",
    ])
    def test_malformed_usage_is_a_transport_error(self, posted, usage):
        posted.reply = (200, reply_payload(usage=usage))
        with pytest.raises(TransportError, match="malformed completion payload"):
            http_transport(posted).complete(prompt())

    @pytest.mark.parametrize("usage,counted", [
        ({"prompt_tokens": 3, "completion_tokens": 4, "total_tokens": 7}, Usage(3, 4)),
        ({"completion_tokens": 4}, Usage(0, 4)),
        ({}, Usage(0, 0)),
    ])
    def test_absent_counts_are_zero_and_other_keys_ignored(self, posted, usage, counted):
        posted.reply = (200, reply_payload(usage=usage))
        assert http_transport(posted).complete(prompt()).usage == counted


# ======================================================================
# OracleClient
# ======================================================================

class FlakyTransport:
    """Fails N times with TransportError, then delegates to a queue of texts."""

    def __init__(self, failures: int, texts: list[str]):
        self.failures = failures
        self.texts = list(texts)
        self.prompts: list[RenderedPrompt] = []

    def complete(self, prompt: RenderedPrompt) -> RawCompletion:
        self.prompts.append(prompt)
        if self.failures > 0:
            self.failures -= 1
            raise TransportError("boom")
        return RawCompletion(text=self.texts.pop(0), usage=Usage(100, 20))


def quality_prompt():
    return prompt(TemplateName.JUDGE_QUALITY, text="judge this")


def flaky_client(transport, ledger=None, *, stage="", sleep=lambda s: None, **settings):
    return OracleClient(transport, ledger or CostLedger(), OracleSettings(**settings),
                        stage=stage, sleep=sleep)


class TestOracleClient:
    def test_transport_retry_with_backoff(self):
        sleeps: list[float] = []
        transport = FlakyTransport(2, ['{"score": 50, "analysis": "ok"}'])
        client = flaky_client(transport, sleep=sleeps.append,
                              transport_retries=3, backoff_base_s=0.5)
        assert client.call(quality_prompt()) == 50
        assert sleeps == [0.5, 1.0]  # base * 2^attempt

    def test_transport_exhaustion_raises(self):
        transport = FlakyTransport(5, [])
        client = flaky_client(transport, transport_retries=3)
        with pytest.raises(TransportError):
            client.call(quality_prompt())

    def test_reparse_appends_hint_and_recovers(self):
        transport = FlakyTransport(0, ["not json at all",
                                       '{"score": 40, "analysis": "fixed"}'])
        client = flaky_client(transport)
        assert client.call(quality_prompt()) == 40
        assert client.ledger.calls == 2
        assert "previous reply was rejected" in transport.prompts[1].text
        assert transport.prompts[1].text.startswith(transport.prompts[0].text)

    def test_reparse_exhaustion_raises_schema_violation(self):
        transport = FlakyTransport(0, ["junk", "junk", "junk", "junk"])
        client = flaky_client(transport, reparse_attempts=2)
        with pytest.raises(SchemaViolation, match="after 3 attempts"):
            client.call(quality_prompt())

    def test_every_attempt_is_charged(self):
        ledger = CostLedger()
        transport = FlakyTransport(0, ["junk", '{"score": 10, "analysis": "a"}'])
        client = flaky_client(transport, ledger, stage="stats")
        client.call(quality_prompt(), site="shop")
        snap = ledger.snapshot()
        assert snap["calls"] == 2
        assert snap["prompt_tokens"] == 200  # both attempts accumulated
        # 2 * (100 * 2e-6 + 20 * 8e-6)
        assert Decimal(snap["total_cost_usd"]) == Decimal("0.00072")
        assert snap["by_site_stage"] == {"shop": {"stats": "0.000720"}}

    def test_client_charges_only_its_stage(self):
        ledger = CostLedger()
        transport = FlakyTransport(0, ["junk", '{"score": 10, "analysis": "a"}',
                                       '{"score": 20, "analysis": "b"}'])
        client = flaky_client(transport, ledger, stage="refine")
        client.call(quality_prompt(), site="shop")
        client.call(quality_prompt(), site="shop")
        assert ledger.calls == 3
        assert list(ledger.by_site_stage) == [("shop", "refine")]
        assert ledger.by_site_stage["shop", "refine"] == ledger.total_cost

    def test_budget_exhaustion_blocks_next_call(self):
        # Each call costs 100 * 2e-6 + 20 * 8e-6 = 0.00036 USD, crossing the budget.
        ledger = CostLedger(budget_usd=Decimal("0.0003"))
        transport = FlakyTransport(0, ['{"score": 1, "analysis": "a"}',
                                       '{"score": 2, "analysis": "b"}'])
        client = flaky_client(transport, ledger)
        client.call(quality_prompt())
        with pytest.raises(BudgetExhausted):
            client.call(quality_prompt())
        assert len(transport.prompts) == 1  # the gate fired before any transport use

    def test_budget_blocks_reask_after_crossing_reply(self):
        # The first, invalid reply costs 0.00036 USD and crosses the budget,
        # so the schema re-ask is never sent.
        ledger = CostLedger(budget_usd=Decimal("0.0003"))
        transport = FlakyTransport(0, ["junk", '{"score": 2, "analysis": "b"}'])
        client = flaky_client(transport, ledger)
        with pytest.raises(BudgetExhausted):
            client.call(quality_prompt())
        assert len(transport.prompts) == 1
        assert ledger.snapshot()["calls"] == 1

    def test_mock_end_to_end_pricing(self):
        client = make_client({
            "schema_version": 1,
            "default_usage": {"prompt_tokens": 1000, "completion_tokens": 250},
            "rules": [{"template": "judge_quality", "reply": {"score": 9, "analysis": "x"}}],
        })
        client.call(quality_prompt())
        assert client.ledger.total_cost == Decimal("1000") * Decimal("0.000002") \
            + Decimal("250") * Decimal("0.000008")

    def test_custom_pricing(self):
        script = MockScript({
            "schema_version": 1,
            "default_usage": {"prompt_tokens": 10, "completion_tokens": 10},
            "rules": [{"template": "judge_quality", "reply": {"score": 9, "analysis": "x"}}],
        })
        client = flaky_client(MockTransport(script), prompt_cost_per_token="0.001",
                              completion_cost_per_token="0.002")
        client.call(quality_prompt())
        assert client.ledger.total_cost == Decimal("0.030")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_map_that_takes_the_pool_refuses_submit(self, workers):
        # On a client that overlaps, jobs not declared to submit take every
        # pool thread, so a submit from one of them would wait behind them
        # forever; it fails instead.
        client = OracleClient(FlakyTransport(0, []), CostLedger(), OracleSettings(),
                              stage="refine", workers=workers)
        try:
            def job(n):
                return client.submit(lambda: n).result()

            with pytest.raises(RuntimeError, match="declared not to submit"):
                client.map(job, range(4))
            assert client.map(job, range(4), submits=True) == [0, 1, 2, 3]
        finally:
            client.close()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_map_commits_in_job_order(self, workers):
        # Later jobs finish first; each result is committed once every
        # earlier job has finished, and what commit returns is the result.
        client = OracleClient(FlakyTransport(0, []), CostLedger(), OracleSettings(),
                              stage="collect", workers=workers)
        finished, committed = [], []

        def job(n):
            time.sleep(0.002 * (8 - n))
            finished.append(n)
            return n

        def commit(n):
            assert n in finished
            committed.append(n)
            return -n

        try:
            assert client.map(job, range(8), commit=commit) == [-n for n in range(8)]
        finally:
            client.close()
        assert committed == list(range(8))
        if workers > 1:
            assert finished != committed

    @pytest.mark.parametrize("failing", ["job", "commit"])
    def test_map_commits_nothing_from_the_first_job_that_raised(self, failing):
        client = OracleClient(FlakyTransport(0, []), CostLedger(), OracleSettings(),
                              stage="collect", workers=2)
        committed = []

        def job(n):
            if failing == "job" and n == 2:
                raise TransportError("endpoint down")
            return n

        def commit(n):
            if failing == "commit" and n == 2:
                raise OSError("disk full")
            committed.append(n)

        try:
            with pytest.raises(TransportError if failing == "job" else OSError):
                client.map(job, range(6), commit=commit)
        finally:
            client.close()
        assert committed == [0, 1]


# ======================================================================
# CostLedger
# ======================================================================

class TestCostLedger:
    def test_snapshot_round_trip(self):
        ledger = CostLedger(budget_usd=Decimal("5"))
        ledger.add(Usage(100, 50), Decimal("0.001"), site="shop", stage="explore")
        ledger.add(Usage(10, 5), Decimal("0.0002"), site="shop", stage="collect")
        snap = ledger.snapshot()
        back = CostLedger.from_snapshot(snap)
        assert back.snapshot() == snap
        assert Decimal(snap["total_cost_usd"]) == Decimal("0.0012")

    def test_two_site_snapshot_round_trip(self):
        ledger = CostLedger()
        ledger.add(Usage(1, 1), Decimal("0.25"), site="shop", stage="collect")
        ledger.add(Usage(1, 1), Decimal("0.5"), site="blog", stage="explore")
        ledger.add(Usage(1, 1), Decimal("0.125"), site="shop", stage="collect")
        ledger.add(Usage(1, 1), Decimal("0.0625"), site="shop", stage="refine")
        snap = ledger.snapshot()
        assert snap["by_site_stage"] == {
            "blog": {"explore": "0.5"},
            "shop": {"collect": "0.375", "refine": "0.0625"},
        }
        back = CostLedger.from_snapshot(snap)
        assert back.snapshot() == snap
        assert back.stage_cost_by_site("collect") == {"shop": Decimal("0.375")}
        assert sum(back.by_site_stage.values()) == back.total_cost

    def test_snapshot_without_site_stage_map_is_rejected(self):
        snap = CostLedger().snapshot()
        del snap["by_site_stage"]
        snap["by_site"] = {}
        with pytest.raises(SchemaError, match="by_site_stage"):
            CostLedger.from_snapshot(snap)

    def test_decimal_sums_are_exact(self):
        ledger = CostLedger()
        for _ in range(1000):
            ledger.add(Usage(1, 1), Decimal("0.0001"))
        assert Decimal(ledger.snapshot()["total_cost_usd"]) == Decimal("0.1")

    def test_budget_boundary_inclusive(self):
        ledger = CostLedger(budget_usd=Decimal("0.001"))
        ledger.add(Usage(1, 1), Decimal("0.001"))
        with pytest.raises(BudgetExhausted):
            ledger.check_budget()

    def test_concurrent_adds(self):
        ledger = CostLedger()

        def work():
            for _ in range(500):
                ledger.add(Usage(2, 1), Decimal("0.00001"))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = ledger.snapshot()
        assert snap["calls"] == 4000
        assert Decimal(snap["total_cost_usd"]) == Decimal("0.04")
        assert snap["prompt_tokens"] == 8000
