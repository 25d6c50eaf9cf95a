import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchlm import losses as L
from patchlm import metrics as X
from patchlm.errors import DataError
from patchlm.tensor import Tensor


def test_seasonal_naive_repeat_last():
    out = X.seasonal_naive(np.array([1.0, 2.0, 3.0]), season=1, horizon=4)
    assert np.array_equal(out, [3.0, 3.0, 3.0, 3.0])


def test_seasonal_naive_periodic_zero_error():
    context = np.tile([1.0, 5.0, 2.0], 4)
    target = np.tile([1.0, 5.0, 2.0], 2)
    fc = X.seasonal_naive(context, season=3, horizon=6)
    assert np.array_equal(fc, target)


def test_seasonal_naive_season_too_long():
    with pytest.raises(DataError):
        X.seasonal_naive(np.ones(4), season=5, horizon=2)


def test_mase_perfect_zero():
    ctx = np.array([0.0, 1.0, 0.0, 1.0])
    assert X.mase(np.array([5.0]), np.array([5.0]), ctx, season=1) == 0.0


def test_mase_constructed_unity():
    # in-sample one-step MAE is 1; the forecast errs by exactly 1 per step
    ctx = np.array([0.0, 1.0])
    forecast = X.seasonal_naive(ctx, season=1, horizon=2)
    target = np.array([2.0, 0.0])
    assert X.mase(forecast, target, ctx, season=1) == pytest.approx(1.0)


def test_mase_scale_invariance():
    rng = np.random.default_rng(0)
    ctx = rng.normal(size=30)
    fc = rng.normal(size=5)
    tg = rng.normal(size=5)
    a = X.mase(fc, tg, ctx, season=7)
    b = X.mase(10 * fc, 10 * tg, 10 * ctx, season=7)
    assert a == pytest.approx(b, rel=1e-12)


def test_mase_constant_context_undefined():
    assert np.isnan(X.mase(np.ones(2), np.ones(2), np.ones(10), season=1))


def test_wql_zero_when_exact():
    levels = L.quantile_levels(5)
    target = np.array([1.0, -2.0, 3.0])
    q = np.repeat(target[:, None], 5, axis=1)
    assert X.wql(q, target, levels) == 0.0


def test_wql_hand_value():
    # Q=1, tau=0.5, y=[2], q=[0]: 2 * rho / (1 * 2) = 2*1/2 = 1.0
    assert X.wql(np.array([[0.0]]), np.array([2.0]), np.array([0.5])) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 100.0), st.integers(0, 2 ** 31 - 1))
def test_wql_scale_invariance(lam, seed):
    rng = np.random.default_rng(seed)
    levels = L.quantile_levels(5)
    target = rng.normal(size=6) + 3.0
    q = np.sort(rng.normal(size=(6, 5)), axis=1)
    assert X.wql(lam * q, lam * target, levels) == pytest.approx(
        X.wql(q, target, levels), rel=1e-9)


def test_wql_zero_target_mass_undefined():
    assert np.isnan(X.wql(np.zeros((2, 3)), np.zeros(2), L.quantile_levels(3)))


def test_wql_reconciles_with_training_loss():
    rng = np.random.default_rng(1)
    levels = L.quantile_levels(7)
    target = rng.normal(size=9) + 2.0
    q = rng.normal(size=(9, 7))
    mql, _ = L.masked_quantile_loss(
        Tensor(q[None, ...]), target[None, :], np.ones((1, 9)), levels)
    expect = 2.0 * mql.item() / np.mean(np.abs(target))
    assert X.wql(q, target, levels) == pytest.approx(expect, abs=1e-12)


def test_geomean():
    assert X.aggregate_geomean([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert X.aggregate_geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert X.aggregate_geomean([4.0, 1.0]) == pytest.approx(2.0)


def test_mae():
    fc = np.array([1.0, 3.0])
    tg = np.array([2.0, 1.0])
    assert X.mae(fc, tg) == pytest.approx(1.5)


def test_macro_f1_perfect_and_absent_class():
    assert X.macro_f1([0, 1, 2], [0, 1, 2]) == 1.0
    # class 2 predicted never, appears once -> F1_2 = 0
    score = X.macro_f1([0, 0, 0], [0, 0, 2])
    assert score == pytest.approx((0.8 + 0.0) / 2)


def test_auc_perfect_and_reversed():
    labels = np.array([0, 0, 1, 1])
    assert X.auc(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 1.0
    assert X.auc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 0.0


def test_auc_random_near_half():
    rng = np.random.default_rng(2)
    labels = np.concatenate([np.zeros(5000), np.ones(5000)]).astype(int)
    scores = rng.uniform(size=10000)
    assert abs(X.auc(scores, labels) - 0.5) < 0.03


def test_auc_single_class_flagged():
    assert np.isnan(X.auc(np.array([0.3, 0.7]), np.array([1, 1])))


def roc_integral_oracle(scores, labels):
    uniq = np.unique(scores)[::-1]
    pos = (labels == 1).sum()
    neg = (labels != 1).sum()
    tpr, fpr = [0.0], [0.0]
    for th in uniq:
        pred = scores >= th
        tpr.append(float(((pred) & (labels == 1)).sum()) / pos)
        fpr.append(float(((pred) & (labels != 1)).sum()) / neg)
    return float(np.trapezoid(tpr, fpr))


def test_auc_matches_roc_integral():
    rng = np.random.default_rng(3)
    for _ in range(10):
        labels = rng.integers(0, 2, size=30)
        if labels.min() == labels.max():
            continue
        scores = np.round(rng.uniform(size=30), 2)  # force ties
        assert X.auc(scores, labels) == pytest.approx(
            roc_integral_oracle(scores, labels), abs=1e-12)


def tie_loop_auc_oracle(scores, labels):
    """The Mann-Whitney AUC with ties averaged by a Python loop over sorted runs."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels != 1]
    merged = np.concatenate([neg, pos])
    order = np.argsort(merged, kind="mergesort")
    ranks = np.empty(len(order), dtype=np.float64)
    ranks[order] = np.arange(1, len(order) + 1)
    sorted_vals = merged[order]
    tie_start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or sorted_vals[i] != sorted_vals[tie_start]:
            if i - tie_start > 1:
                ranks[order[tie_start:i]] = ranks[order[tie_start:i]].mean()
            tie_start = i
    u = ranks[len(neg):].sum() - len(pos) * (len(pos) + 1) / 2.0
    return float(u / (len(pos) * len(neg)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=2, max_size=300))
def test_binary_auc_equals_tie_loop_oracle(rows):
    """Heavy ties: scores take at most five distinct values."""
    scores = np.array([value / 4.0 for value, _ in rows])
    labels = np.array([int(label) for _, label in rows])
    if labels.min() == labels.max():
        assert np.isnan(X.binary_auc(scores, labels))
    else:
        assert X.binary_auc(scores, labels) == tie_loop_auc_oracle(scores, labels)


def test_auc_multiclass_one_vs_rest():
    labels = np.array([0, 1, 2, 0, 1, 2])
    scores = np.eye(3)[labels]  # perfect per-class scores
    assert X.auc(scores, labels) == 1.0


def test_evaluate_tasks_self_standardized_unity():
    rng = np.random.default_rng(4)
    levels = L.quantile_levels(5)
    tasks = []
    for i in range(4):
        ctx = rng.normal(size=40)
        target = rng.normal(size=6)
        baseline = X.seasonal_naive(ctx, 1, 6)
        tasks.append(X.ForecastTask(
            task_id=f"t{i}", context=ctx, target=target,
            quantiles=np.repeat(baseline[:, None], 5, axis=1),
            median=baseline, levels=levels, season=1))
    report = X.evaluate_forecast_tasks(tasks)
    assert report.geomean_mase_ratio == pytest.approx(1.0)
    assert report.geomean_wql_ratio == pytest.approx(1.0)
    assert len(report.per_task) == 4 and not report.skipped


def test_evaluate_tasks_flags_undefined():
    levels = L.quantile_levels(3)
    task = X.ForecastTask(
        task_id="flat", context=np.ones(20), target=np.ones(4),
        quantiles=np.ones((4, 3)), median=np.ones(4), levels=levels, season=1)
    report = X.evaluate_forecast_tasks([task])
    assert report.skipped and not report.per_task


def _task(task_id, context, target, median, season=1):
    levels = L.quantile_levels(3)
    median = np.asarray(median, dtype=np.float64)
    return X.ForecastTask(task_id=task_id, context=np.asarray(context, dtype=np.float64),
                          target=np.asarray(target, dtype=np.float64),
                          quantiles=np.repeat(median[:, None], 3, axis=1), median=median,
                          levels=levels, season=season)


def test_evaluate_tasks_flags_an_exact_forecast():
    context = np.arange(10.0) ** 1.5
    exact = _task("exact", context, [5.0, 7.0], [5.0, 7.0])
    inexact = _task("inexact", context, [5.0, 7.0], [6.0, 6.0])
    report = X.evaluate_forecast_tasks([exact, inexact])
    assert [e["task_id"] for e in report.per_task] == ["inexact"]
    assert [e["task_id"] for e in report.skipped] == ["exact"]
    assert report.skipped[0]["mase"] == 0.0 and report.skipped[0]["wql"] == 0.0
    assert report.geomean_mase_ratio == report.per_task[0]["mase_ratio"] > 0
    assert report.geomean_wql_ratio == report.per_task[0]["wql_ratio"] > 0


@pytest.mark.parametrize("extra", [0, 1])
def test_evaluate_tasks_flags_a_context_not_longer_than_the_season(extra):
    short = _task("short", [1.0, 3.0, 2.0], [4.0, 5.0], [4.5, 4.5], season=3 + extra)
    fine = _task("fine", [1.0, 3.0, 2.0, 5.0, 4.0], [4.0, 5.0], [4.5, 4.5], season=1)
    report = X.evaluate_forecast_tasks([short, fine])
    assert [e["task_id"] for e in report.per_task] == ["fine"]
    assert [e["task_id"] for e in report.skipped] == ["short"]
    assert all(math.isnan(report.skipped[0][k])
               for k in ("mase", "baseline_mase", "wql", "baseline_wql"))
    assert report.geomean_mase_ratio == report.per_task[0]["mase_ratio"]


def test_season_map():
    assert X.season_for_freq("hourly") == 24
    assert X.season_for_freq("daily") == 7
    assert X.season_for_freq("weekly") == 52
    assert X.season_for_freq("monthly") == 12
    assert X.season_for_freq(None) == 1
    assert X.season_for_freq("5min") == 1
