"""Smoke test for the scripts that prove two trees compute the same bits."""

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
    assert len(digests) == 64
    assert all(name.split(".")[0] in ("patch", "batch", "train", "forecast", "embed")
               for name in digests)
    assert all(re.fullmatch(r"[0-9a-f]{64}", value) for value in digests.values())
