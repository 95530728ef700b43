"""Exception types shared across the pipeline."""

from __future__ import annotations


class SynthweaverError(Exception):
    """Base class for every pipeline error."""


# action grammar

class MalformedAction(SynthweaverError):
    """An action wire string does not match the grammar."""


class InvalidAction(SynthweaverError):
    """An Action object violates its structural invariants."""


# environment

class SchemaError(SynthweaverError):
    """A config, site-graph, or mock-script file failed validation."""

    def __init__(self, message: str, *, path: str | None = None, field: str | None = None):
        self.path = path
        self.field = field
        loc = "".join(p for p in (path and f"{path}: ", field and f"{field}: ") if p)
        super().__init__(f"{loc}{message}")


class ElementNotFound(SynthweaverError):
    """An action referenced an element id absent from the current view."""


# browser adapter

class ConnectFailed(SynthweaverError):
    """Could not reach the browser automation endpoint."""


class ProtocolError(SynthweaverError):
    """The browser endpoint replied outside the wire protocol."""


# oracle

class OracleError(SynthweaverError):
    """Base class for oracle-side failures."""


class TransportError(OracleError):
    """A network-level failure talking to the completion endpoint."""


class SchemaViolation(OracleError):
    """An oracle reply failed strict schema validation."""


class NoJsonFound(SchemaViolation):
    """No balanced JSON object could be located in the raw reply."""


class MissingPlaceholder(OracleError):
    """A template placeholder had no bound variable at render time."""


class BudgetExhausted(OracleError):
    """The run-level token budget was exceeded."""


class MockReplyMissing(OracleError):
    """No mock-script rule matched the rendered prompt."""


# pipeline stages

class EmptyPlan(SynthweaverError):
    """The categorization oracle produced no interactive categories."""


class EditContractViolation(SynthweaverError):
    """An edited trajectory would not end in a valid terminal None."""


class ConfigError(SynthweaverError):
    """The run configuration is missing or inconsistent."""
