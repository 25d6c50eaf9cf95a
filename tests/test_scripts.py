"""Smoke tests for the scripts: the digest map that proves two trees compute
the same bits, and the end-to-end CLI demo."""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_digest_script_prints_the_digest_map():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "digest.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout)
    assert len(digests) == 138
    assert all(name.split(".")[0] in ("patch", "batch", "train", "forecast", "embed", "fixed",
                                      "deep", "qloss", "attn")
               for name in digests)
    assert sum(name.startswith("qloss.") for name in digests) == 10
    assert sum(name.startswith("attn.") for name in digests) == 16
    assert sum(name.startswith("fixed.") for name in digests) == 23
    assert sum(name.startswith("deep.") for name in digests) == 25
    assert all(re.fullmatch(r"[0-9a-f]{64}", value) for value in digests.values())


def test_train_demo_script_writes_checkpoint_forecast_and_embeddings(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = tmp_path / "demo"
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "train_demo.py"),
                           "--steps", "4", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in ("stage2.ckpt", "forecast.jsonl", "embeddings.jsonl"):
        assert (out / name).stat().st_size > 0, name
    forecasts = [json.loads(line) for line in (out / "forecast.jsonl").read_text().splitlines()]
    assert len(forecasts) == 8 and len(forecasts[0]["median"]) == 16
