#!/usr/bin/env python3
"""Desk-scale learning experiment: text overfit, time-series-only, and a
joint 92/8 run on the same 2-layer/64-dim architecture, reporting
corpus cross-entropy and seasonal-naive-standardized forecast metrics.

python scripts/desk_learning.py --text-steps 2000 --ts-steps 2000 --joint-steps 10000

The acceptance suite (criterion 8) imports this file and runs the same
three trainings at these default step counts.
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from patchlm import bpe, data, inference, losses, metrics, training  # noqa: E402
from patchlm import model as M  # noqa: E402
from patchlm import tensor as T  # noqa: E402
from patchlm.optim import Schedule  # noqa: E402

# 50 sentences: five passes over a 10-sentence cycle in which each sentence
# names the next subject, so every continuation is locally determined
NOUNS = ["brynaor", "caldeor", "drenior", "fylooor", "gorluor",
         "hennaor", "jaspeor", "keltior", "lornoor", "maveuor"]
SENTENCES = [f"the {NOUNS[i]} calls the {NOUNS[(i + 1) % 10]} at dawn."
             for i in range(10)] * 5
ZERO_MODEL_SEED = 777   # the untrained reference model of the WQL comparison


def corpus():
    """The packed token ids of SENTENCES and a default model sized to their vocabulary."""
    vocab = bpe.bpe_train([" ".join(SENTENCES).encode()], vocab_size=360)
    ids = data.pack_documents([s.encode() for s in SENTENCES], vocab)
    return ids, M.ModelConfig(vocab_size=max(512, vocab.size))


def corpus_ce(params, cfg, ids):
    stream = data.TokenStream(ids)
    total, count = 0.0, 0
    with T.no_grad():
        for _ in range(max(1, len(ids) // 128) + 1):
            batch = data.build_text_batch(stream, 128, 1)
            rows = M.forward_hidden(params, cfg, batch.inputs)
            ce, n = losses.lm_loss(params, rows, batch.text_targets[0])
            total += ce.item() * n
            count += n
    return total / count


def held_out_seasonal(rng, n=48, length=112):
    out = []
    for _ in range(n):
        period = rng.choice([16, 24, 32, 40])
        amp = rng.uniform(0.5, 2.0)
        phase = rng.uniform(0, 2 * np.pi)
        t = np.arange(length)
        out.append(amp * np.sin(2 * np.pi * t / period + phase)
                   + rng.normal(0, 0.05 * amp, length))
    return out


def ts_report(params, cfg):
    """Forecast the last 16 points of 48 held-out seasonal series and score them."""
    levels = losses.quantile_levels(cfg.n_quantiles)
    held = held_out_seasonal(np.random.default_rng(999))
    horizon = 16
    tasks = []
    for i, x in enumerate(held):
        ctx, tgt = x[:-horizon], x[-horizon:]
        fc = inference.forecast_values(params, cfg, ctx, horizon)
        tasks.append(metrics.ForecastTask(f"t{i}", ctx, tgt, fc.quantiles,
                                          fc.median, levels, season=1))
    return metrics.evaluate_forecast_tasks(tasks)


def ts_scores(report):
    """(MASE ratio, WQL ratio, mean WQL) of a ts_report."""
    wql_mean = float(np.mean([t["wql"] for t in report.per_task]))
    return report.geomean_mase_ratio, report.geomean_wql_ratio, wql_mean


def run(cfg, ids, steps, text_prob, seed):
    """Train from scratch: the corpus with probability text_prob, synthetic series otherwise."""
    trainer = training.Trainer(cfg, seed=seed)
    sources = training.DataSources(
        text_stream=data.TokenStream(ids.copy()) if text_prob > 0 else None,
        ts_source=training.synthetic_ts_source(160) if text_prob < 1 else None)
    stage = training.StageConfig(seq_len=128, total_steps=steps, micro_batch=2,
                                 text_prob=text_prob, log_every=10 ** 9)
    trainer.run_stage(stage, sources, Schedule(total_steps=steps))
    return trainer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--text-steps", type=int, default=2000)
    parser.add_argument("--ts-steps", type=int, default=2000)
    parser.add_argument("--joint-steps", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ids, cfg = corpus()

    t0 = time.monotonic()
    text_trainer = run(cfg, ids, args.text_steps, 1.0, args.seed)
    text = corpus_ce(text_trainer.params, cfg, ids)
    print(f"[text-only {args.text_steps:5d} steps] corpus CE = {text:.4f}")

    ts_trainer = run(cfg, ids, args.ts_steps, 0.0, args.seed)
    mase_r, wql_r, wql_abs = ts_scores(ts_report(ts_trainer.params, cfg))
    _, _, zero_wql = ts_scores(ts_report(M.init_params(cfg, seed=ZERO_MODEL_SEED), cfg))
    print(f"[ts-only   {args.ts_steps:5d} steps] MASE ratio = {mase_r:.3f}  "
          f"WQL ratio = {wql_r:.3f}  WQL vs zero-model: -{1 - wql_abs / zero_wql:.1%}")

    joint_trainer = run(cfg, ids, args.joint_steps, 0.92, args.seed)
    j_ce = corpus_ce(joint_trainer.params, cfg, ids)
    j_mase, j_wql_r, j_wql = ts_scores(ts_report(joint_trainer.params, cfg))
    print(f"[joint 92/8 {args.joint_steps:4d} steps] corpus CE = {j_ce:.4f}  "
          f"MASE ratio = {j_mase:.3f}  WQL ratio = {j_wql_r:.3f}")
    print(f"relative degradation: CE x{j_ce / text:.2f}, MASE x{j_mase / mase_r:.2f}, "
          f"WQL x{j_wql / wql_abs:.2f}")
    print(f"total wall clock: {time.monotonic() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
