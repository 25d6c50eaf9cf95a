"""Smoke tests for the benchmark at the tiny size.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("train_text", "train_ts", "forecast", "tokenize")
# the workload's own name for the end-to-end metric behind each generic one
OWN_NAMES = {
    "train_text": ("step_ms_p50", "step_ms_p90", "train_positions_per_s", "resume_ms_p50",
                   "ce_final"),
    "train_ts": ("step_ms_p50", "step_ms_p90", "train_positions_per_s", "resume_ms_p50",
                 "ql_final"),
    "forecast": ("forecast_ms_p50", "forecast_ms_p90", "forecast_series_per_s",
                 "embed_ms_p50", "embed_series_per_s", "forecast_wql"),
    "tokenize": ("encode_ms_p50", "encode_ms_p90", "encode_bytes_per_s", "bpe_train_s",
                 "tokens_per_byte"),
}


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(workload: str, seed: int = 1, trace: int = 0, cwd: str = ROOT,
          script: str = os.path.join(BENCH, "run.py")) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_cache: dict = {}


def cached(workload: str, seed: int = 1, trace: int = 0):
    key = (workload, seed, trace)
    if key not in _cache:
        proc = bench(workload, seed, trace)
        _cache[key] = (proc, result(proc))
    return _cache[key]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    proc, res = cached(workload, trace=trace)
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    listed = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {name: m["unit"] for name, m in res["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())
    lines = proc.stdout.splitlines()
    printed = {line.split()[1]: line for line in lines if line.startswith(workload)}
    names = OWN_NAMES[workload] + ("setup_s", "peak_rss_mb", "error_rate") if not trace \
        else tuple(res["metrics"])
    for name in names:
        assert name in printed, name
    if not trace:
        assert float(printed["error_rate"].split()[2]) == 0.0
    assert any(line.startswith("# environment") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quality_repeats_for_one_seed(workload):
    first = cached(workload)[1]["metrics"]["quality"]["value"]
    again = result(bench(workload))["metrics"]["quality"]["value"]
    assert first == again


@pytest.mark.parametrize("workload", ("train_text", "train_ts"))
def test_spans_account_for_the_traced_step(workload):
    metrics = cached(workload, trace=1)[1]["metrics"]
    assert metrics["trace.unattributed_share"]["value"] < 0.10
    assert metrics["training.step_other_ms"]["value"] > 0.0


def test_seed_changes_inputs():
    sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
    try:
        import numpy as np

        import inputs
    finally:
        del sys.path[:2]

    def draw(seed):
        rng = np.random.default_rng(seed)
        ids = inputs.bigram_token_ids(rng, 512, 256)
        series = inputs.train_series(rng, 4, 64, 256)
        items = inputs.forecast_items(rng, 4, 128, 32, 128, 8, 512)
        doc = inputs.Language.make(rng, 100).text(rng, 200)
        return ids, series, items, doc

    a, b, c = draw(1), draw(1), draw(2)
    assert np.array_equal(a[0], b[0]) and a[3] == b[3]
    assert np.array_equal(a[2][0].context, b[2][0].context, equal_nan=True)
    assert not np.array_equal(a[0], c[0])
    assert not np.array_equal(a[1][0].values, c[1][0].values)
    assert not np.array_equal(a[2][0].target, c[2][0].target)
    assert a[3] != c[3]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("train_text", cwd=str(tmp_path), script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
