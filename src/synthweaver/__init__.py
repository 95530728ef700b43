"""synthweaver: synthetic web-agent training data with dual refinement.

Explore websites to synthesize grounded tasks, collect trajectories whose
tasks are refined in flight when they conflict with the site, judge and
repair the finished trajectories, and export windowed SFT records.
"""

__version__ = "0.1.0"

from .actions import (
    Action,
    ActionKind,
    make_action,
    parse_action,
    render_action,
)
from .model import (
    Element,
    InteractionTriplet,
    Observation,
    RefinementEvent,
    Step,
    Task,
    Terminal,
    TrainingExample,
    Trajectory,
    classify_terminal,
    observation_fingerprint,
)

__all__ = [
    "Action",
    "ActionKind",
    "Element",
    "InteractionTriplet",
    "Observation",
    "RefinementEvent",
    "Step",
    "Task",
    "Terminal",
    "TrainingExample",
    "Trajectory",
    "__version__",
    "classify_terminal",
    "make_action",
    "observation_fingerprint",
    "parse_action",
    "render_action",
]
