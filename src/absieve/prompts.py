"""Deterministic rendering of the screening, explain, and reflect prompts.

The template files under ``templates/`` are the normative byte-level
artifacts. Rendering is a single-pass substitution: braces inside record or
criteria text pass through untouched, and the placeholder set of each
template is checked once at load time.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from importlib import resources
from string import Formatter
from typing import NamedTuple

from .corpus import DECIDED, CriteriaSet, Decision, ScreeningRecord


class PromptError(Exception):
    pass


class InvalidDecision(PromptError):
    """A decision handed to a prompt builder was not included/excluded."""


class NotADisagreement(PromptError):
    """Reflection asked for a record where human and model agree."""


class PromptKind(enum.Enum):
    DECISION = "decision"
    EXPLAIN = "explain"
    REFLECT = "reflect"


class PromptText(NamedTuple):
    kind: PromptKind
    body: str


# The screening prompt must end with this line; explain/reflect embed the
# prompt with the terminator stripped before the decisions are appended.
DECISION_TERMINATOR = "\n\nDecision:"

_EXPECTED_FIELDS = {
    "decision": frozenset({"title", "abstract", "inclusion_criteria", "exclusion_criteria"}),
    "explain": frozenset({"screening_prompt", "human_decision", "model_decision"}),
    "reflect": frozenset({"screening_prompt", "human_decision", "model_decision"}),
}


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    """Read a golden template and verify its placeholder set."""
    text = (
        resources.files(__package__)
        .joinpath("templates", f"{name}.txt")
        .read_text(encoding="ascii")
    )
    fields = {f for _, f, _, _ in Formatter().parse(text) if f}
    if fields != _EXPECTED_FIELDS[name]:
        raise PromptError(
            f"template {name}.txt has placeholders {sorted(fields)}, "
            f"expected {sorted(_EXPECTED_FIELDS[name])}"
        )
    return text


def build_decision_prompt(record: ScreeningRecord, criteria: CriteriaSet) -> PromptText:
    """Render the screening prompt for one record.

    An empty abstract leaves the ``Abstract:`` line present but empty; the
    record is still screened on its title.
    """
    body = load_template("decision").format(
        title=record.title,
        abstract=record.abstract,
        inclusion_criteria=criteria.inclusion,
        exclusion_criteria=criteria.exclusion,
    )
    return PromptText(PromptKind.DECISION, body)


def _require_decided(decision: Decision, role: str) -> None:
    if decision not in DECIDED:
        raise InvalidDecision(
            f"{role} decision must be included or excluded, got {decision.value!r}"
        )


def _appended_prompt(
    kind: PromptKind,
    record: ScreeningRecord,
    criteria: CriteriaSet,
    human: Decision,
    model: Decision,
) -> PromptText:
    screening = build_decision_prompt(record, criteria).body
    assert screening.endswith(DECISION_TERMINATOR)
    body = load_template(kind.value).format(
        screening_prompt=screening[: -len(DECISION_TERMINATOR)],
        human_decision=human.value,
        model_decision=model.value,
    )
    return PromptText(kind, body)


def build_explain_prompt(
    record: ScreeningRecord,
    criteria: CriteriaSet,
    human: Decision,
    model: Decision,
) -> PromptText:
    """Ask the model to justify a decision it already gave.

    The body is the explain lead-in, the screening prompt minus its
    ``Decision:`` terminator, then the human and model decisions, in that
    order.
    """
    _require_decided(model, "model")
    return _appended_prompt(PromptKind.EXPLAIN, record, criteria, human, model)


def build_reflect_prompt(
    record: ScreeningRecord,
    criteria: CriteriaSet,
    human: Decision,
    model: Decision,
) -> PromptText:
    """Ask the model why a decision that disagrees with the human was wrong."""
    _require_decided(model, "model")
    _require_decided(human, "human")
    if human is model:
        raise NotADisagreement(
            f"human and model both decided {model.value!r}; nothing to reflect on"
        )
    return _appended_prompt(PromptKind.REFLECT, record, criteria, human, model)
