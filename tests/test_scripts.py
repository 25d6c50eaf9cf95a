"""Smoke tests for the scripts: the digest map that proves two trees compute
the same bits (of the tree it is told to digest), and the end-to-end CLI
demo."""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_digest_script_prints_the_digest_map():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "digest.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout)
    assert len(digests) == 146
    assert all(name.split(".")[0] in ("patch", "batch", "train", "forecast", "embed", "fixed",
                                      "deep", "qloss", "attn")
               for name in digests)
    assert sum(name.startswith("qloss.") for name in digests) == 10
    assert sum(name.startswith("attn.") for name in digests) == 24
    assert sum(name.startswith("fixed.") for name in digests) == 23
    assert sum(name.startswith("deep.") for name in digests) == 25
    assert all(re.fullmatch(r"[0-9a-f]{64}", value) for value in digests.values())


def _digest_map(*args, pythonpath=None):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    if pythonpath:
        env["PYTHONPATH"] = pythonpath
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "digest.py"), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout), done.stderr


def test_digest_script_digests_the_tree_it_is_told_to(tmp_path):
    for name in ("same", "nudged"):
        shutil.copytree(os.path.join(ROOT, "src", "patchlm"), tmp_path / name / "patchlm",
                        ignore=shutil.ignore_patterns("__pycache__"))
    codec = tmp_path / "nudged" / "patchlm" / "codec.py"
    source = codec.read_text()
    assert "SIGMA_FLOOR = 1e-6\n" in source
    codec.write_text(source.replace("SIGMA_FLOOR = 1e-6\n", "SIGMA_FLOOR = 1e+6\n"))
    own, _ = _digest_map()
    same, err = _digest_map("--src", str(tmp_path / "same"))
    assert os.path.realpath(tmp_path / "same") in err
    nudged, _ = _digest_map("--src", str(tmp_path / "nudged"), pythonpath=str(tmp_path / "same"))
    from_path, _ = _digest_map(pythonpath=str(tmp_path / "nudged"))
    assert same == own
    assert nudged == from_path != same
    assert any(name.startswith("patch.") and nudged[name] != same[name] for name in same)


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
