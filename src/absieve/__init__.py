"""absieve: batch title/abstract screening with an LLM, and its evaluation suite.

Immutable records are NamedTuples: use ``_replace``/``_asdict``, not ``dataclasses.replace``/``asdict``."""

from .corpus import (
    CriteriaSet,
    Decision,
    ManifestEntry,
    ScreeningManifest,
    ScreeningRecord,
    clean_text,
    load_dataset,
    load_manifest,
    write_results,
)
from .llm import (
    CompletionRequest,
    CompletionResult,
    HttpBackend,
    MockBackend,
    MockScript,
    count_tokens_estimate,
    parse_decision,
)
from .metrics import (
    ConfusionMatrix,
    DatasetMetrics,
    accuracy,
    classification_report,
    cohens_kappa,
    confusion_matrix,
    sensitivity,
    weighted_summary,
)
from .prompts import (
    PromptKind,
    PromptText,
    build_decision_prompt,
    build_explain_prompt,
    build_reflect_prompt,
)
from .runner import (
    CostEstimate,
    RunConfig,
    RunReport,
    estimate_cost,
    run_explanations,
    run_screening,
)

__version__ = "0.1.0"

__all__ = [
    "CompletionRequest",
    "CompletionResult",
    "ConfusionMatrix",
    "CostEstimate",
    "CriteriaSet",
    "DatasetMetrics",
    "Decision",
    "HttpBackend",
    "ManifestEntry",
    "MockBackend",
    "MockScript",
    "PromptKind",
    "PromptText",
    "RunConfig",
    "RunReport",
    "ScreeningManifest",
    "ScreeningRecord",
    "accuracy",
    "build_decision_prompt",
    "build_explain_prompt",
    "build_reflect_prompt",
    "classification_report",
    "clean_text",
    "cohens_kappa",
    "confusion_matrix",
    "count_tokens_estimate",
    "estimate_cost",
    "load_dataset",
    "load_manifest",
    "parse_decision",
    "run_explanations",
    "run_screening",
    "sensitivity",
    "weighted_summary",
    "write_results",
]
