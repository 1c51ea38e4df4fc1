"""Agreement metrics between two screening decision columns.

Rows where either side is not a clean included/excluded decision (missing,
unparseable, or errored) are dropped from every count but reported in
``ConfusionMatrix.dropped`` so the denominator is always explicit.

Undefined values are values here, not exceptions: Cohen's kappa returns
``None`` when expected agreement is 1 (both raters constant), and 0/0
precision or recall is reported as 0.0 with the affected metric named in
``ClassificationReport.zero_division_fields``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .corpus import DECIDED, Decision

WEIGHTING_NOTE = (
    "size-weighted mean: each dataset contributes with weight n / sum(n), "
    "where n counts its comparable (non-dropped) rows"
)


class MetricsError(Exception):
    pass


class LengthMismatch(MetricsError):
    pass


class EmptyMatrix(MetricsError):
    pass


class ZeroSupport(MetricsError):
    pass


class EmptyInput(MetricsError):
    pass


class _ConfusionCounts(NamedTuple):
    tp: int
    fn: int
    fp: int
    tn: int
    dropped: int = 0


class ConfusionMatrix(_ConfusionCounts):
    """2x2 agreement counts; "positive" means the included class.

    ``tp``: truth included, predicted included;  ``fn``: truth included,
    predicted excluded;  ``fp``: truth excluded, predicted included;
    ``tn``: both excluded. A negative count raises ``ValueError``.
    """

    __slots__ = ()

    def __new__(cls, *counts, **named):
        self = super().__new__(cls, *counts, **named)
        for name, count in zip(self._fields, self):
            if count < 0:
                raise ValueError(f"{name} must be >= 0")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # namedtuple's _make skips __new__

    @property
    def n(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    def to_dict(self) -> dict:
        return self._asdict()


def confusion_matrix(
    truth: Sequence[Decision | None], predicted: Sequence[Decision | None]
) -> ConfusionMatrix:
    """Tally agreement between two equal-length decision columns."""
    if len(truth) != len(predicted):
        raise LengthMismatch(
            f"truth has {len(truth)} rows, predicted has {len(predicted)}"
        )
    tp = fn = fp = tn = dropped = 0
    for t, p in zip(truth, predicted):
        if t not in DECIDED or p not in DECIDED:
            dropped += 1
        elif t is Decision.INCLUDED:
            if p is Decision.INCLUDED:
                tp += 1
            else:
                fn += 1
        else:
            if p is Decision.INCLUDED:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn, dropped=dropped)


def accuracy(cm: ConfusionMatrix) -> float:
    """Absolute agreement: the fraction of comparable rows both sides match."""
    if cm.n == 0:
        raise EmptyMatrix("no comparable rows")
    return (cm.tp + cm.tn) / cm.n


def sensitivity(cm: ConfusionMatrix, decision_class: Decision) -> float:
    """Fraction of rows of the given true class that were predicted as it."""
    if decision_class is Decision.INCLUDED:
        support = cm.tp + cm.fn
        if support == 0:
            raise ZeroSupport("no rows with truth included")
        return cm.tp / support
    if decision_class is Decision.EXCLUDED:
        support = cm.tn + cm.fp
        if support == 0:
            raise ZeroSupport("no rows with truth excluded")
        return cm.tn / support
    raise ValueError(f"sensitivity is defined for included/excluded, got {decision_class}")


def cohens_kappa(cm: ConfusionMatrix) -> float | None:
    """Chance-corrected agreement, (p_o - p_e) / (1 - p_e).

    Returns ``None`` when p_e = 1, i.e. both raters gave a single constant
    answer, where the statistic is undefined.
    """
    if cm.n == 0:
        raise EmptyMatrix("no comparable rows")
    n = cm.n
    p_observed = (cm.tp + cm.tn) / n
    p_expected = ((cm.tp + cm.fn) / n) * ((cm.tp + cm.fp) / n) + (
        (cm.fp + cm.tn) / n
    ) * ((cm.fn + cm.tn) / n)
    if p_expected == 1.0:
        return None
    return (p_observed - p_expected) / (1.0 - p_expected)


class ClassStats(NamedTuple):
    precision: float
    recall: float
    f1: float
    support: int


class ClassificationReport(NamedTuple):
    included: ClassStats
    excluded: ClassStats
    macro_avg: ClassStats
    weighted_avg: ClassStats
    # Metrics whose natural ratio was 0/0 and were reported as 0.0 instead.
    zero_division_fields: tuple[str, ...] = ()


def _ratio(numerator: int, denominator: int, name: str, flagged: list[str]) -> float:
    if denominator == 0:
        flagged.append(name)
        return 0.0
    return numerator / denominator


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def classification_report(cm: ConfusionMatrix) -> ClassificationReport:
    """Per-class precision/recall/F1/support, plus macro and weighted averages."""
    if cm.n == 0:
        raise EmptyMatrix("no comparable rows")
    flagged: list[str] = []
    support_inc = cm.tp + cm.fn
    support_exc = cm.fp + cm.tn

    precision_inc = _ratio(cm.tp, cm.tp + cm.fp, "precision_included", flagged)
    recall_inc = _ratio(cm.tp, support_inc, "recall_included", flagged)
    precision_exc = _ratio(cm.tn, cm.tn + cm.fn, "precision_excluded", flagged)
    recall_exc = _ratio(cm.tn, support_exc, "recall_excluded", flagged)

    included = ClassStats(precision_inc, recall_inc, _f1(precision_inc, recall_inc), support_inc)
    excluded = ClassStats(precision_exc, recall_exc, _f1(precision_exc, recall_exc), support_exc)

    macro_avg = ClassStats(
        (included.precision + excluded.precision) / 2,
        (included.recall + excluded.recall) / 2,
        (included.f1 + excluded.f1) / 2,
        cm.n,
    )
    w_inc, w_exc = support_inc / cm.n, support_exc / cm.n
    weighted_avg = ClassStats(
        included.precision * w_inc + excluded.precision * w_exc,
        included.recall * w_inc + excluded.recall * w_exc,
        included.f1 * w_inc + excluded.f1 * w_exc,
        cm.n,
    )
    return ClassificationReport(included, excluded, macro_avg, weighted_avg, tuple(flagged))


class DatasetMetrics(NamedTuple):
    """The full evaluation of one dataset against a truth column."""

    dataset_name: str
    n: int
    n_included: int
    accuracy: float
    sensitivity_included: float | None
    sensitivity_excluded: float | None
    kappa: float | None
    confusion: ConfusionMatrix
    report: ClassificationReport

    @classmethod
    def from_decisions(
        cls,
        dataset_name: str,
        truth: Sequence[Decision | None],
        predicted: Sequence[Decision | None],
    ) -> "DatasetMetrics":
        cm = confusion_matrix(truth, predicted)
        if cm.n == 0:
            raise EmptyMatrix(f"{dataset_name}: no comparable rows")
        sens_inc = sensitivity(cm, Decision.INCLUDED) if cm.tp + cm.fn else None
        sens_exc = sensitivity(cm, Decision.EXCLUDED) if cm.tn + cm.fp else None
        return cls(
            dataset_name=dataset_name,
            n=cm.n,
            n_included=cm.tp + cm.fn,
            accuracy=accuracy(cm),
            sensitivity_included=sens_inc,
            sensitivity_excluded=sens_exc,
            kappa=cohens_kappa(cm),
            confusion=cm,
            report=classification_report(cm),
        )

    def to_dict(self) -> dict:
        # json.dumps would write the nested records as arrays.
        report = {k: v._asdict() if hasattr(v, "_asdict") else v for k, v in self.report._asdict().items()}
        return {**self._asdict(), "confusion": self.confusion._asdict(), "report": report}


class WeightedSummary(NamedTuple):
    """Size-weighted totals across datasets.

    Kappa is deliberately omitted: chance correction does not average
    meaningfully across datasets with different base rates. ``weighting``
    documents the scheme applied to the other metrics.
    """

    n_total: int
    accuracy: float
    sensitivity_included: float | None
    sensitivity_excluded: float | None
    kappa: None = None
    weighting: str = WEIGHTING_NOTE

    def to_dict(self) -> dict:
        return self._asdict()


def _weighted_mean(pairs: list[tuple[float, int]]) -> float | None:
    total = sum(weight for _, weight in pairs)
    if total == 0:
        return None
    return sum(value * weight for value, weight in pairs) / total


def weighted_summary(rows: Sequence[DatasetMetrics]) -> WeightedSummary:
    """Average metrics across datasets, weighting each by its row count.

    Datasets where a sensitivity is undefined (no rows of that class) are
    left out of that metric's average, with the weights renormalized.
    """
    if not rows:
        raise EmptyInput("no dataset metrics to summarize")
    accuracy_total = _weighted_mean([(r.accuracy, r.n) for r in rows])
    assert accuracy_total is not None  # every DatasetMetrics has n > 0
    return WeightedSummary(
        n_total=sum(r.n for r in rows),
        accuracy=accuracy_total,
        sensitivity_included=_weighted_mean(
            [(r.sensitivity_included, r.n) for r in rows if r.sensitivity_included is not None]
        ),
        sensitivity_excluded=_weighted_mean(
            [(r.sensitivity_excluded, r.n) for r in rows if r.sensitivity_excluded is not None]
        ),
    )
