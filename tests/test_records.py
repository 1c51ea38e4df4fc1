"""Record types: immutable ones are NamedTuples, and only the two mutable ones are dataclasses."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import pkgutil

import pytest

import absieve
from absieve.corpus import Decision
from absieve.llm import CompletionRequest, MockScript
from absieve.metrics import ConfusionMatrix, DatasetMetrics
from absieve.prompts import PromptKind, PromptText

# Code mutates these, so they stay dataclasses; every other record is a NamedTuple.
MUTABLE_TYPES = {
    "absieve.corpus.ScreeningRecord",
    "absieve.runner.RunConfig",
}
IMMUTABLE_TYPES = [
    "absieve.corpus.CriteriaSet",
    "absieve.corpus.ManifestEntry",
    "absieve.corpus.ScreeningManifest",
    "absieve.llm.CompletionRequest",
    "absieve.llm.CompletionResult",
    "absieve.llm.InjectedFailure",
    "absieve.llm.MockScript",
    "absieve.llm.MockCall",
    "absieve.prompts.PromptText",
    "absieve.metrics.ConfusionMatrix",
    "absieve.metrics.ClassStats",
    "absieve.metrics.ClassificationReport",
    "absieve.metrics.DatasetMetrics",
    "absieve.metrics.WeightedSummary",
    "absieve.runner._Reply",
    "absieve.runner.DatasetStats",
    "absieve.runner.RunReport",
    "absieve.runner.ExplainReport",
    "absieve.runner.DatasetCostEstimate",
    "absieve.runner.CostEstimate",
    "absieve.cli.AppConfig",
]
PROMPT = PromptText(PromptKind.DECISION, "Decide.")
I, E = Decision.INCLUDED, Decision.EXCLUDED


def _class(dotted: str) -> type:
    module, _, name = dotted.rpartition(".")
    return getattr(importlib.import_module(module), name)


def test_only_the_mutable_types_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(absieve.__path__, "absieve."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                found.add(f"{module.__name__}.{obj.__qualname__}")
    assert found == MUTABLE_TYPES


@pytest.mark.parametrize("dotted", IMMUTABLE_TYPES)
def test_immutable_types_are_named_tuples_without_instance_dicts(dotted):
    cls = _class(dotted)
    assert issubclass(cls, tuple) and cls._fields
    assert cls.__name__ == dotted.rpartition(".")[2]
    # No __dict__ on instances, so setting any attribute raises AttributeError.
    assert all("__dict__" not in vars(klass) for klass in cls.__mro__)


def test_record_semantics():
    request = CompletionRequest("m", PROMPT, dataset_name="IVM", row_index=3)
    assert request == ("m", PROMPT, 0.0, 8, "IVM", 3)
    assert len(PROMPT) == 2 and list(PROMPT) == [PromptKind.DECISION, "Decide."]
    with pytest.raises(AttributeError):
        request.temperature = 1.0
    with pytest.raises(AttributeError):
        request.extra = 1
    changed = request._replace(temperature=0.5)
    assert type(changed) is CompletionRequest and changed.temperature == 0.5
    assert request._asdict()["row_index"] == 3


@pytest.mark.parametrize(
    "changes",
    [{"temperature": -0.5}, {"max_output_tokens": 0}, {"prompt": PromptText(PromptKind.DECISION, "")}],
    ids=["temperature", "max_output_tokens", "prompt"],
)
def test_completion_request_replace_and_make_validate(changes):
    request = CompletionRequest("m", PROMPT)
    with pytest.raises(ValueError):
        request._replace(**changes)
    with pytest.raises(ValueError):
        CompletionRequest._make({**request._asdict(), **changes}.values())


@pytest.mark.parametrize("field", ConfusionMatrix._fields)
def test_confusion_matrix_replace_and_make_validate(field):
    cm = ConfusionMatrix(1, 2, 3, 4, 5)
    with pytest.raises(ValueError, match=f"{field} must be >= 0"):
        cm._replace(**{field: -1})
    with pytest.raises(ValueError, match=f"{field} must be >= 0"):
        ConfusionMatrix._make({**cm._asdict(), field: -1}.values())
    assert ConfusionMatrix._make([1, 2, 3, 4]) == (1, 2, 3, 4, 0)


def test_dataset_metrics_json_nests_objects():
    # Every prediction included: precision_excluded is 0/0, so zero_division_fields is non-empty.
    metrics = DatasetMetrics.from_decisions("IVM", [I, E, E, None], [I, I, I, I])
    document = json.loads(json.dumps(metrics.to_dict()))
    assert document["confusion"] == {"tp": 1, "fn": 0, "fp": 2, "tn": 0, "dropped": 1}
    report = document["report"]
    assert list(report) == ["included", "excluded", "macro_avg", "weighted_avg", "zero_division_fields"]
    for name in ("included", "excluded", "macro_avg", "weighted_avg"):
        assert list(report[name]) == ["precision", "recall", "f1", "support"]
    assert report["zero_division_fields"] == ["precision_excluded"]
    assert list(document) == [
        "dataset_name",
        "n",
        "n_included",
        "accuracy",
        "sensitivity_included",
        "sensitivity_excluded",
        "kappa",
        "confusion",
        "report",
    ]


def test_mock_script_default_mappings_are_read_only():
    script = MockScript()
    for mapping in (script.responses, script.failures):
        assert mapping == {}
        with pytest.raises(TypeError):
            mapping[("IVM", 0)] = "included"
