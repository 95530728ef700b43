"""Versioned prompt templates and byte-stable rendering."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from importlib import resources

from ..errors import MissingPlaceholder

# Category name used for elements the categorizer deems non-interactive.
UNINTERACTIVE_CATEGORY = "uninteractive_elements"


class TemplateName(str, Enum):
    CATEGORIZE = "categorize"
    PROPOSE_TASK = "propose_task"
    NEXT_ACTION = "next_action"
    REFINE_TASK = "refine_task"
    REFINE_TRAJECTORY = "refine_trajectory"
    JUDGE_DIVERSITY = "judge_diversity"
    # Supplementary rubric used only by `stats --judge-quality`, never a gate.
    JUDGE_QUALITY = "judge_quality"


# Placeholders are lowercase snake_case words in single braces; literal braces
# in the template bodies never wrap a bare identifier, so one regex is enough.
_PLACEHOLDER = re.compile(r"\{([a-z_][a-z0-9_]*)\}")


@dataclass(frozen=True)
class PromptTemplate:
    name: TemplateName
    body: str

    @property
    def placeholders(self) -> frozenset[str]:
        return frozenset(_PLACEHOLDER.findall(self.body))


@lru_cache(maxsize=None)
def load_template(name: TemplateName) -> PromptTemplate:
    """Load a template body from the packaged data files."""
    body = (
        resources.files("synthweaver.prompts").joinpath(f"{name.value}.txt").read_text("utf-8")
    )
    return PromptTemplate(name=name, body=body)


@dataclass(frozen=True)
class RenderedPrompt:
    """A fully substituted prompt plus the variables that produced it.

    Variables are retained so the scripted mock can match on them; extra
    variables beyond the template's placeholders are allowed for that reason.
    """

    template: TemplateName
    text: str
    variables: dict[str, str] = field(default_factory=dict)
    images: tuple[str, ...] = ()


def render(
    template: TemplateName | PromptTemplate,
    variables: dict[str, str],
    images: tuple[str, ...] | list[str] = (),
) -> RenderedPrompt:
    """Substitute placeholders in one pass; substituted values are never rescanned."""
    if not isinstance(template, PromptTemplate):
        template = load_template(template)
    missing = sorted(template.placeholders - set(variables))
    if missing:
        raise MissingPlaceholder(
            f"{template.name.value}: unbound placeholders: {', '.join(missing)}"
        )

    def _sub(match: re.Match[str]) -> str:
        name = match.group(1)
        return variables[name] if name in variables else match.group(0)

    text = _PLACEHOLDER.sub(_sub, template.body)
    return RenderedPrompt(
        template=template.name,
        text=text,
        variables=dict(variables),
        images=tuple(images),
    )
