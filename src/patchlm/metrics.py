"""Forecast and classification metrics.

Forecast metrics follow the scale-free conventions: MASE divides the
forecast MAE by the in-sample one-step seasonal-naive MAE of the
training context, and WQL is twice the pinball loss summed over the
level grid, normalized by Q times the total absolute target mass.
Per-task metrics standardize against the seasonal-naive baseline and
aggregate by geometric mean; tasks with undefined metrics or ratios
(zero denominators, exact forecasts, contexts no longer than the season)
are excluded and flagged, never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

SEASON_BY_FREQ = {"hourly": 24, "daily": 7, "weekly": 52, "monthly": 12}


def season_for_freq(freq: str | None) -> int:
    return SEASON_BY_FREQ.get(freq or "", 1)


def seasonal_naive(context: np.ndarray, season: int, horizon: int) -> np.ndarray:
    """Repeat the value one season back: forecast[h] = y[L + h - m*ceil(h/m)]."""
    context = np.asarray(context, dtype=np.float64)
    if season < 1:
        raise DataError("season must be >= 1")
    if season > len(context):
        raise DataError(f"season {season} exceeds context length {len(context)}")
    h = np.arange(1, horizon + 1)
    idx = (len(context) - 1) + h - season * np.ceil(h / season).astype(int)
    return context[idx]


def mae(forecast: np.ndarray, target: np.ndarray) -> float:
    forecast = np.asarray(forecast, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if forecast.shape != target.shape:
        raise DataError("forecast/target shape mismatch")
    return float(np.mean(np.abs(forecast - target)))


def mase(forecast: np.ndarray, target: np.ndarray, train_context: np.ndarray,
         season: int = 1) -> float:
    """MAE scaled by the in-sample one-step seasonal-naive MAE.

    NaN (undefined) when the context is constant-periodic."""
    context = np.asarray(train_context, dtype=np.float64)
    if season >= len(context):
        raise DataError("season must be shorter than the training context")
    scale = float(np.mean(np.abs(context[season:] - context[:-season])))
    if scale == 0.0:
        return float("nan")
    return mae(forecast, target) / scale


def pinball_matrix(target: np.ndarray, quantiles: np.ndarray, levels: np.ndarray) -> np.ndarray:
    u = target[:, None] - quantiles
    return np.maximum(levels[None, :] * u, (levels[None, :] - 1.0) * u)


def wql(quantiles: np.ndarray, target: np.ndarray, levels: np.ndarray) -> float:
    """2 * sum(rho) / (Q * sum|y|); NaN when sum|y| is zero."""
    quantiles = np.asarray(quantiles, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    levels = np.asarray(levels, dtype=np.float64)
    if quantiles.shape != (len(target), len(levels)):
        raise DataError(f"quantiles must be [H={len(target)}, Q={len(levels)}]")
    mass = float(np.sum(np.abs(target)))
    if mass == 0.0:
        return float("nan")
    rho = pinball_matrix(target, quantiles, levels)
    return 2.0 * float(rho.sum()) / (len(levels) * mass)


def aggregate_geomean(ratios) -> float:
    ratios = np.asarray(list(ratios), dtype=np.float64)
    if ratios.size == 0:
        return float("nan")
    if np.any(ratios <= 0):
        raise DataError("geometric mean needs positive ratios")
    return float(np.exp(np.mean(np.log(ratios))))


# -- classification -----------------------------------------------------

def macro_f1(preds, labels) -> float:
    """Mean per-class F1; a class absent from both sides contributes 0."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise DataError("preds/labels length mismatch")
    classes = np.unique(np.concatenate([preds, labels]))
    scores = []
    for c in classes:
        tp = float(np.sum((preds == c) & (labels == c)))
        fp = float(np.sum((preds == c) & (labels != c)))
        fn = float(np.sum((preds != c) & (labels == c)))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


def binary_auc(scores, labels) -> float:
    """Rank-based (Mann-Whitney) AUC; NaN on single-class input."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels != 1]
    if len(pos) == 0 or len(neg) == 0:
        return float("nan")
    # a tie group's mean rank: its last rank minus (count - 1) / 2
    _, group, counts = np.unique(np.concatenate([neg, pos]), return_inverse=True,
                                 return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    rank_sum_pos = ranks[len(neg):].sum()
    u = rank_sum_pos - len(pos) * (len(pos) + 1) / 2.0
    return float(u / (len(pos) * len(neg)))


def auc(scores: np.ndarray, labels) -> float:
    """Binary AUC from a score vector, or macro one-vs-rest from [N, K] scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim == 1:
        return binary_auc(scores, labels)
    per_class = []
    for c in range(scores.shape[1]):
        val = binary_auc(scores[:, c], (labels == c).astype(int))
        if not math.isnan(val):
            per_class.append(val)
    return float(np.mean(per_class)) if per_class else float("nan")


def accuracy(preds, labels) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    return float(np.mean(preds == labels))


# -- task-level report ------------------------------------------------------

@dataclass
class ForecastTask:
    task_id: str
    context: np.ndarray
    target: np.ndarray
    quantiles: np.ndarray          # [H, Q]
    median: np.ndarray             # [H]
    levels: np.ndarray
    season: int = 1


@dataclass
class MetricReport:
    per_task: list[dict] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)
    geomean_mase_ratio: float = float("nan")
    geomean_wql_ratio: float = float("nan")


TASK_METRICS = ("mase", "baseline_mase", "wql", "baseline_wql")


def evaluate_forecast_tasks(tasks: list[ForecastTask]) -> MetricReport:
    """Standardize each task by its seasonal-naive baseline, then geomean;
    a task with a metric that is 0 or NaN goes to ``skipped``."""
    report = MetricReport()
    for task in tasks:
        entry = {"task_id": task.task_id}
        if task.season < len(task.context):
            baseline = seasonal_naive(task.context, task.season, len(task.target))
            base_quantiles = np.repeat(baseline[:, None], len(task.levels), axis=1)
            entry.update(
                mase=mase(task.median, task.target, task.context, task.season),
                baseline_mase=mase(baseline, task.target, task.context, task.season),
                wql=wql(task.quantiles, task.target, task.levels),
                baseline_wql=wql(base_quantiles, task.target, task.levels))
        else:  # no in-sample seasonal-naive step, so no MASE scale
            entry.update(dict.fromkeys(TASK_METRICS, float("nan")))
        if not all(entry[k] > 0 for k in TASK_METRICS):
            report.skipped.append(entry)
            continue
        entry["mase_ratio"] = entry["mase"] / entry["baseline_mase"]
        entry["wql_ratio"] = entry["wql"] / entry["baseline_wql"]
        report.per_task.append(entry)
    report.geomean_mase_ratio = aggregate_geomean(e["mase_ratio"] for e in report.per_task)
    report.geomean_wql_ratio = aggregate_geomean(e["wql_ratio"] for e in report.per_task)
    return report
