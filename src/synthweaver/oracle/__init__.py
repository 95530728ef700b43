"""Prompt templates, reply schemas, and the oracle client."""

from .client import (
    CostLedger,
    HttpTransport,
    MockScript,
    MockTransport,
    OracleClient,
    Pricing,
    RawCompletion,
    Usage,
    extract_json,
)
from .replies import (
    DIVERSITY_SUBSCORE_KEYS,
    EditEnd,
    Judgment,
    NextActionReply,
    RefineDecision,
    parse_reply,
)
from .templates import (
    PromptTemplate,
    RenderedPrompt,
    TemplateName,
    UNINTERACTIVE_CATEGORY,
    load_template,
    render,
)

__all__ = [
    "CostLedger",
    "DIVERSITY_SUBSCORE_KEYS",
    "EditEnd",
    "HttpTransport",
    "Judgment",
    "MockScript",
    "MockTransport",
    "NextActionReply",
    "OracleClient",
    "Pricing",
    "PromptTemplate",
    "RawCompletion",
    "RefineDecision",
    "RenderedPrompt",
    "TemplateName",
    "UNINTERACTIVE_CATEGORY",
    "Usage",
    "extract_json",
    "load_template",
    "parse_reply",
    "render",
]
