#!/usr/bin/env python3
"""Print one JSON map of SHA-256 digests over patchlm's seeded outputs.

The map covers:
- training batches (model inputs, CE targets, TS targets and masks) for
  text, TS and interleaved batches at seq_len 16, 33 and 64, with series
  cut at seq_len and short samples padded;
- the per-step records and final parameters of four 30-step training runs,
  each at seq_len 16 and 33: text only, TS only, interleaved (text 0.5,
  align 0.3) and all-aligned;
- forecasts with and without a text prefix, of univariate contexts and of
  2- and 3-channel gappy series, and embeddings of series, text and both at
  repeat 1-3: once with the interleaved S=16 run's trained parameters and
  once (``fixed.*``) with fixed ones, ``init_params`` at a fixed seed with
  its zero-initialised matrices filled from a seeded rng, so that a change
  to the training bits alone leaves the ``fixed.*`` digests as they are;
- ``deep.*``: the records and parameters of one 30-step interleaved run of
  a 2-layer model at seq_len 16, and the forecasts and embeddings above
  with its parameters, so that state shared across layers shows too;
- ``codec.patchify`` features, as [C*n, 4P] rows: one channel that fits
  whole patches, a padded last patch, interior NaNs, three gappy channels,
  P = 1, P > L, and explicit stats on a front-NaN-padded context;
- ``qloss.*``: the value of ``losses.masked_quantile_loss`` and its
  gradients at an upstream 2.5 (the TS weight of ``combined_loss``), on
  fixed float32 inputs with partial masks, NaN targets under the mask,
  exact ties and a row with one valid entry: the q_hat gradient at Q = 1,
  5 and 21, and through the quantile head its weight, norm and row
  gradients;
- ``attn.*``: the output of ``tensor.causal_gqa_attention`` and its q, k
  and v gradients, in float32 on fixed inputs at 129, 256 and 300 queries
  from position 0 and for a 150-query chunk after 100 cached keys, so
  passes longer than one 128-row query tile show too.

Two trees that print the same map compute the same bits for all of these.
It runs in a few seconds.  ``--src`` names the ``src`` directory whose
``patchlm`` it digests; without it, a set ``PYTHONPATH`` comes first, then
the script's own tree.  It names the tree it digested on stderr.

    python scripts/digest.py --src ../other/src > other.json
    python scripts/digest.py > digests.json
"""

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import sys

import numpy as np

_parser = argparse.ArgumentParser(description="Print the digest map of one patchlm tree.")
_parser.add_argument("--src", help="the src directory to digest (first on sys.path)")
_src = _parser.parse_args().src
_own_src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if _src:
    sys.path.insert(0, os.path.abspath(_src))
elif os.environ.get("PYTHONPATH"):
    sys.path.append(_own_src)
else:
    sys.path.insert(0, _own_src)

from patchlm import bpe, codec, data, inference, losses, training  # noqa: E402
from patchlm import model as M  # noqa: E402
from patchlm import tensor as T  # noqa: E402
from patchlm.optim import Schedule  # noqa: E402
from patchlm.tensor import Tensor  # noqa: E402

CORPUS = b"the quick brown fox jumps over the lazy dog while a slow series rises " * 12
CONFIG = M.ModelConfig(n_layers=1, d_model=16, n_q_heads=2, n_kv_heads=1, head_dim=8,
                       patch_len=4, n_quantiles=5, vocab_size=300, max_seq=64)
DEEP = dataclasses.replace(CONFIG, n_layers=2)
P = CONFIG.patch_len


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def gappy_series(rng: np.random.Generator, channels: int, length: int) -> codec.RawSeries:
    values = rng.normal(size=(channels, length)).cumsum(axis=1)
    values[rng.random(values.shape) < 0.15] = np.nan
    values[:, 0] = 1.0  # every channel keeps a finite value
    return codec.RawSeries(values)


def batch_digests(vocab: bpe.BpeVocab, out: dict) -> None:
    def record(name, batch):
        # patches enter by value only: an empty block may be [0, 0] or [0, 4P]
        patches = np.asarray(batch.inputs.patches, dtype=np.float32).ravel()
        out[f"batch.{name}.inputs"] = digest(batch.inputs.ids, patches)
        out[f"batch.{name}.targets"] = digest(batch.text_targets, batch.ts_targets,
                                              batch.ts_mask, np.array([batch.modality]))

    ids = data.pack_documents([CORPUS, b"a second short document", CORPUS[:50]], vocab)
    for S in (16, 33, 64):
        rng = np.random.default_rng(S)
        record(f"text.S{S}", data.build_text_batch(data.TokenStream(ids), S, 3))

        lengths = iter(rng.integers(3, 70, size=1000))
        channels = iter(rng.integers(1, 4, size=1000))
        record(f"ts.S{S}", data.build_ts_batch(
            lambda: gappy_series(rng, int(next(channels)), int(next(lengths))), S, 3, P))

        align = training.synthetic_alignment_source(24)
        samples = [align(rng) for _ in range(2)]
        samples.append([("text", b"two series:"), ("series", gappy_series(rng, 2, 9)),
                        ("text", b"and"), ("series", gappy_series(rng, 1, 30))])
        samples.append([("text", b"short")])
        samples.append([("series", gappy_series(rng, 1, 4 * S))])  # cut inside the series
        record(f"interleaved.S{S}", data.build_interleaved_batch(samples, vocab, S, P))


def patch_digests(out: dict) -> None:
    rng = np.random.default_rng(5)
    gappy = rng.normal(size=20).cumsum()
    gappy[[3, 4, 11]] = np.nan
    context = rng.normal(size=13).cumsum()
    context_stats = codec.compute_visible_stats(codec.RawSeries(context))
    cases = {
        "exact": (codec.RawSeries(rng.normal(size=16)), 4, None),
        "tail": (codec.RawSeries(rng.normal(size=13)), 4, None),
        "nan": (codec.RawSeries(gappy), 4, None),
        "gappy3": (gappy_series(rng, 3, 23), 4, None),
        "p1": (codec.RawSeries(rng.normal(size=7)), 1, None),
        "p_over_l": (codec.RawSeries(rng.normal(size=3)), 8, None),
        # forecasting front-pads the context with NaN and keeps its own stats
        "stats": (codec.RawSeries(np.concatenate([np.full(3, np.nan), context])), 4,
                  context_stats),
    }
    for name, (series, patch_len, stats) in cases.items():
        feats = codec.patchify(series, patch_len, stats=stats)
        out[f"patch.{name}"] = digest(feats.reshape(-1, 4 * patch_len))


def qloss_case(rng: np.random.Generator, q_hat: np.ndarray):
    """float32 targets and mask for ``q_hat``: a partial mask, NaN targets
    under it, exact ties with q_hat and a row with one valid entry."""
    n, p, n_q = q_hat.shape
    targets = rng.normal(size=(n, p)).astype(np.float32)
    mask = (rng.random((n, p)) < 0.6).astype(np.float32)
    mask[0] = 0.0
    mask[0, 1] = 1.0                                       # one valid entry
    targets[1, 0] = q_hat[1, 0, n_q // 2]                  # exact ties
    targets[2, 2] = q_hat[2, 2, 0]
    mask[1, 0] = mask[2, 2] = 1.0
    targets[mask == 0] = np.nan
    return targets, mask


def quantile_objective(ql):
    """``combined_loss`` of a TS batch: the quantile loss at weight 2.5."""
    return losses.combined_loss(Tensor(np.zeros((), dtype=np.float32)), ql, 1.0, 2.5)


def qloss_digests(out: dict) -> None:
    rng = np.random.default_rng(23)
    for n_q in (1, 5, 21):
        q_hat = Tensor(rng.normal(size=(7, 4, n_q)).astype(np.float32), requires_grad=True)
        targets, mask = qloss_case(rng, q_hat.data)
        ql, _ = losses.masked_quantile_loss(q_hat, targets, mask,
                                            losses.quantile_levels(n_q))
        quantile_objective(ql).backward()
        out[f"qloss.q{n_q}.value"] = digest(ql.data)
        out[f"qloss.q{n_q}.dq"] = digest(q_hat.grad)

    params = fixed_params()
    rows = Tensor(rng.normal(size=(9, CONFIG.d_model)).astype(np.float32), requires_grad=True)
    q_hat = losses.quantile_head(params, CONFIG, rows)
    targets, mask = qloss_case(rng, q_hat.data)
    ql, _ = losses.masked_quantile_loss(q_hat, targets, mask,
                                        losses.quantile_levels(CONFIG.n_quantiles))
    quantile_objective(ql).backward()
    out["qloss.head.value"] = digest(ql.data)
    out["qloss.head.dw"] = digest(params["quantile_head"].grad)
    out["qloss.head.dnorm"] = digest(params["qhead_norm"].grad)
    out["qloss.head.drows"] = digest(rows.grad)


def attention_digests(out: dict) -> None:
    rng = np.random.default_rng(29)
    for S, offset in ((129, 0), (256, 0), (300, 0), (150, 100)):
        q, k, v = (Tensor(rng.normal(size=(2, heads, n, 16)).astype(np.float32),
                          requires_grad=True)
                   for heads, n in ((4, S), (2, offset + S), (2, offset + S)))
        ctx = T.causal_gqa_attention(q, k, v, offset)
        probe = Tensor(rng.normal(size=ctx.shape).astype(np.float32))
        T.tsum(T.mul(ctx, probe)).backward()
        name = f"attn.S{S}.off{offset}"
        out[f"{name}.out"] = digest(ctx.data)
        for x, part in ((q, "dq"), (k, "dk"), (v, "dv")):
            out[f"{name}.{part}"] = digest(x.grad)


RUNS = {
    "text": dict(text_prob=1.0),
    "ts": dict(text_prob=0.0),
    "interleaved": dict(text_prob=0.5, align_fraction=0.3),
    "aligned": dict(text_prob=0.0, align_fraction=1.0),
}


def train(config: M.ModelConfig, vocab: bpe.BpeVocab, S: int, knobs: dict,
          out: dict, name: str) -> dict:
    """One 30-step run: digests of its records and final parameters."""
    sources = training.DataSources(
        text_stream=data.TokenStream(data.pack_documents([CORPUS], vocab)),
        ts_source=training.synthetic_ts_source(length=40),
        alignment_source=training.synthetic_alignment_source(length=24),
        vocab=vocab)
    trainer = training.Trainer(config, seed=3)
    stage = training.StageConfig(seq_len=S, total_steps=30, micro_batch=2,
                                 log_every=1, **knobs)
    records = []
    trainer.run_stage(stage, sources, Schedule(total_steps=30),
                      metrics_sink=records.append)
    out[f"{name}.records"] = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    out[f"{name}.params"] = digest(*(trainer.params[k].data for k in sorted(trainer.params)))
    return trainer.params


def training_digests(vocab: bpe.BpeVocab, out: dict) -> dict:
    return {(name, S): train(CONFIG, vocab, S, knobs, out, f"train.{name}.S{S}")
            for (name, knobs), S in itertools.product(RUNS.items(), (16, 33))}


def fixed_params() -> dict:
    params = M.init_params(CONFIG, seed=17)
    rng = np.random.default_rng(17)
    for name in sorted(params):
        if name.rsplit(".", 1)[-1] in ("wo", "w3", "quantile_head"):  # zero at init
            params[name].data[:] = rng.normal(0, 0.3, size=params[name].shape)
    return params


def inference_digests(params: dict, out: dict, prefix: str = "",
                      config: M.ModelConfig = CONFIG) -> None:
    rng = np.random.default_rng(11)
    contexts = [rng.normal(size=n).cumsum() for n in (13, 20, 37)]
    contexts[1][[2, 5, 6]] = np.nan
    for i, values in enumerate(contexts):
        for horizon in (3, 9):
            for text_ids in ((), (3, 1, 7)):
                result = inference.forecast_values(params, config, values, horizon, text_ids)
                out[f"{prefix}forecast.{i}.h{horizon}.text{len(text_ids)}"] = digest(
                    result.quantiles, result.median)
    series = gappy_series(rng, 2, 11)
    for repeat in (1, 2, 3):
        for text_ids in ((), (5, 9, 2, 8)):
            emb = inference.extract_embedding(params, config, series, text_ids, repeat)
            out[f"{prefix}embed.r{repeat}.text{len(text_ids)}"] = digest(emb)
    out[f"{prefix}embed.text_only"] = digest(
        inference.extract_embedding(params, config, text_ids=(4, 2, 9)))
    for channels in (2, 3):
        series = gappy_series(rng, channels, 18)
        for text_ids in ((), (3, 1, 7)):
            results = inference.forecast_series(params, config, series, 9, text_ids)
            out[f"{prefix}forecast.multi.c{channels}.text{len(text_ids)}"] = digest(
                *(a for r in results for a in (r.quantiles, r.median)))


def main() -> None:
    tree = os.path.realpath(os.path.dirname(os.path.dirname(T.__file__)))
    print(f"digesting {tree}", file=sys.stderr)
    vocab = bpe.bpe_train([CORPUS], 280)  # 280 tokens plus the specials
    out: dict = {}
    patch_digests(out)
    qloss_digests(out)
    attention_digests(out)
    batch_digests(vocab, out)
    trained = training_digests(vocab, out)
    inference_digests(trained["interleaved", 16], out)
    inference_digests(fixed_params(), out, prefix="fixed.")
    deep = train(DEEP, vocab, 16, RUNS["interleaved"], out, "deep.train.interleaved.S16")
    inference_digests(deep, out, prefix="deep.", config=DEEP)
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
