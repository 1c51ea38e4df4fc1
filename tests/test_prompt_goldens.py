"""The explain and reflect prompt bodies, pinned byte for byte.

The template files are read as they are, with no check of their
placeholders, so these literal bodies are what holds each template to its
contract: a placeholder dropped, added or renamed changes a body here or
fails its rendering.
"""

from __future__ import annotations

from absieve.corpus import CriteriaSet, Decision, ScreeningRecord
from absieve.prompts import PromptKind, build_explain_prompt, build_reflect_prompt

RECORD = ScreeningRecord(0, "T", "A")
CRITERIA = CriteriaSet("I", "E")

# The screening prompt for RECORD/CRITERIA without its "\n\nDecision:" line.
SCREENING = (
    "Instructions: You are a researcher rigorously screening titles and "
    "abstracts of scientific papers for inclusion or exclusion in a review "
    "paper. Use the criteria below to inform your decision. If any exclusion "
    "criteria are met or not all inclusion criteria are met, exclude the "
    "article. If all inclusion criteria are met, include the article. Only "
    'type "included" or "excluded" to indicate your decision. Do not type '
    "anything else.\n"
    "\n"
    "Title: T\n"
    "\n"
    "Abstract: A\n"
    "\n"
    "Inclusion criteria: I\n"
    "\n"
    "Exclusion criteria: E"
)

GOLDEN_EXPLAIN_BODY = (
    "Explain your reasoning for the decision given with the information below.\n"
    "\n"
    f"{SCREENING}\n"
    "\n"
    "Human decision: excluded\n"
    "\n"
    "Model decision: included"
)

GOLDEN_REFLECT_BODY = (
    "Explain your reasoning for why the decision given was incorrect with the "
    "information below.\n"
    "\n"
    f"{SCREENING}\n"
    "\n"
    "Human decision: included\n"
    "\n"
    "Model decision: excluded"
)


def test_explain_body_matches_pinned_golden():
    prompt = build_explain_prompt(RECORD, CRITERIA, Decision.EXCLUDED, Decision.INCLUDED)
    assert prompt.kind is PromptKind.EXPLAIN
    assert prompt.body == GOLDEN_EXPLAIN_BODY


def test_reflect_body_matches_pinned_golden():
    prompt = build_reflect_prompt(RECORD, CRITERIA, Decision.INCLUDED, Decision.EXCLUDED)
    assert prompt.kind is PromptKind.REFLECT
    assert prompt.body == GOLDEN_REFLECT_BODY
