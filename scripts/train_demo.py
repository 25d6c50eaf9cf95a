#!/usr/bin/env python3
"""End-to-end smoke run through the CLI: tokenizer -> two-stage train ->
synthetic contexts -> forecast -> embeddings.  Writes everything under
--out (default demo_run/) and prints the last training metrics and the
first forecast median.

python scripts/train_demo.py --steps 300 --out demo_run
"""

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from patchlm.cli import dispatch  # noqa: E402

CONFIG_TEMPLATE = """
[model]
n_layers = 2
d_model = 64
n_q_heads = 4
n_kv_heads = 2
head_dim = 16
patch_len = 8
n_quantiles = 21
vocab_size = 1024
max_seq = 256

[stage1]
seq_len = 128
total_steps = {stage1_steps}
micro_batch = 2
text_prob = 0.92
log_every = 25

[stage2]
seq_len = 256
total_steps = {stage2_steps}
micro_batch = 1
text_prob = 0.92
align_fraction = 0.05
log_every = 25

[data]
text = "{out}/corpus.txt"
vocab = "{out}/vocab.json"
out_dir = "{out}"
synth_length = 256
align_length = 64
"""

SENTENCES = [
    "the river climbs past the mill at dusk.",
    "a lantern swings over the quiet harbor.",
    "the meter ticks while the kettle cools.",
    "storms gather west of the old stone bridge.",
    "the orchard counts its apples one by one.",
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--steps", type=int, default=300, help="stage-1 steps")
    parser.add_argument("--out", default="demo_run")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    with open(f"{args.out}/corpus.txt", "w") as fh:
        fh.write(" ".join(SENTENCES * 40))
    with open(f"{args.out}/run.toml", "w") as fh:
        fh.write(CONFIG_TEMPLATE.format(out=args.out, stage1_steps=args.steps,
                                        stage2_steps=max(args.steps // 4, 10)))

    steps = [
        ["tokenize", "train", "--input", f"{args.out}/corpus.txt",
         "--vocab-size", "1020", "--out", f"{args.out}/vocab.json"],
        ["--seed", str(args.seed), "train", "--config", f"{args.out}/run.toml"],
        ["--seed", str(args.seed), "synth", "generate", "--n", "8", "--len", "96",
         "--out", f"{args.out}/context.jsonl"],
        ["forecast", "--ckpt", f"{args.out}/stage2.ckpt",
         "--input", f"{args.out}/context.jsonl", "--horizon", "16",
         "--out", f"{args.out}/forecast.jsonl"],
        ["embed", "--ckpt", f"{args.out}/stage2.ckpt",
         "--input", f"{args.out}/context.jsonl", "--repeat", "4",
         "--out", f"{args.out}/embeddings.jsonl"],
    ]
    for argv in steps:
        print("+ patchlm", " ".join(argv))
        code = dispatch(argv)
        if code != 0:
            return code

    last = None
    with open(f"{args.out}/metrics.jsonl") as fh:
        for line in fh:
            last = json.loads(line)
    print("\nfinal training metrics:", json.dumps(last, indent=2))
    fc = [json.loads(l) for l in open(f"{args.out}/forecast.jsonl")]
    med = np.asarray(fc[0]["median"])
    print(f"first forecast median (H=16): {np.round(med, 3).tolist()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
