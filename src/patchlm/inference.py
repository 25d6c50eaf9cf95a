"""Forecasting, frozen-embedding extraction, and heads over frozen embeddings.

Forecasting is autoregressive one-patch-at-a-time generation with a KV
cache: normalization statistics come from the original context once and
stay fixed for every step; the per-step quantile matrix is sorted to
repair crossings and the median patch feeds back as the next input.
Contexts front-pad with NaN to the next patch boundary so generation
starts exactly where the data ends.  A series' C channels are decoded
as C independent rows of one batch, each a univariate series (channel ramp 0).

Embedding extraction mean-pools the final-norm hidden states over every
position, with the whole TS patch block optionally repeated r times to
rebalance the modality share against long text prefixes.

Both hand the model one ``model.Inputs`` row per sequence: the text
prefix's token ids, then ``model.PATCH`` at each patch position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import codec, losses
from . import model as M
from . import optim
from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor


@dataclass
class ForecastResult:
    quantiles: np.ndarray   # [H, Q] data units, nondecreasing per step
    median: np.ndarray      # [H]
    levels: np.ndarray


def context_patch_features(values: np.ndarray, patch_len: int,
                           stats: codec.NormStats) -> np.ndarray:
    """[C, n, 4P] features of a [C, L] context front-padded with NaN to the
    next patch boundary, each channel with the channel ramp 0 of one series."""
    values = np.asarray(values, dtype=np.float64)
    padded = np.pad(values, ((0, 0), (-values.shape[1] % patch_len, 0)),
                    constant_values=np.nan)
    feats = codec.patchify(codec.RawSeries(padded), patch_len, stats=stats)
    feats[..., 3 * patch_len:] = 0.0
    return feats


def _generated_patch_features(median_patch: np.ndarray, padded_len: int, start: int,
                              patch_len: int) -> np.ndarray:
    """[C, 1, 4P] features of the [C, P] median patches generated at ``start``."""
    ramp = np.broadcast_to(codec.extend_time_ramp(padded_len, start, patch_len),
                           median_patch.shape)
    feats = codec.assemble_features(ramp, median_patch, np.ones_like(median_patch),
                                    np.zeros_like(median_patch))
    return feats[:, None, :]


def _text_then_patches(text_ids: Sequence[int], patches: np.ndarray) -> M.Inputs:
    """B sequences from [B, n, 4P] patches: the text tokens, then the n patches."""
    B, n = patches.shape[:2]
    ids = np.full((B, len(text_ids) + n), M.PATCH, dtype=np.int64)
    ids[:, :len(text_ids)] = np.asarray(list(text_ids), dtype=np.int64)
    return M.Inputs(ids, patches.reshape(B * n, patches.shape[2]))


def forecast_values(params: dict[str, Tensor], config: M.ModelConfig,
                    values: np.ndarray, horizon: int,
                    text_ids: Sequence[int] = ()) -> ForecastResult:
    """Quantile forecast for a univariate context (1-D array, NaN = missing)."""
    return forecast_series(params, config, codec.RawSeries(values), horizon, text_ids)[0]


def forecast_series(params: dict[str, Tensor], config: M.ModelConfig,
                    series: codec.RawSeries, horizon: int,
                    text_ids: Sequence[int] = ()) -> list[ForecastResult]:
    """Channel-independent forecasts for a [C, L] series, one per channel,
    decoded as one C-row batch."""
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    P = config.patch_len
    stats = codec.compute_visible_stats(series)
    feats = context_patch_features(series.values, P, stats)
    padded_len = feats.shape[1] * P
    levels = losses.quantile_levels(config.n_quantiles)

    n_steps = -(-horizon // P)
    # the last generated patch is never fed back, so it takes no position
    need = len(text_ids) + feats.shape[1] + n_steps - 1
    if need > config.max_seq:
        raise ConfigError(f"context+horizon needs {need} positions > max_seq {config.max_seq}")

    collected = []
    with T.no_grad():
        cache = M.KVCache(config)
        inputs = _text_then_patches(text_ids, feats)
        S = inputs.ids.shape[1]
        rows = M.forward_hidden(params, config, inputs, cache=cache)
        last = Tensor(rows.data[S - 1::S])          # each channel's last position
        for step in range(n_steps):
            q_hat = losses.quantile_head(params, config, last).data   # [C, P, Q]
            q_sorted = np.sort(q_hat, axis=-1)
            collected.append(q_sorted)
            if step == n_steps - 1:
                break
            median_patch = q_sorted[:, :, config.n_quantiles // 2]
            feats_next = _generated_patch_features(
                median_patch, padded_len, padded_len + step * P, P)
            # one position per channel: the rows are the channels' last states
            last = M.forward_hidden(params, config, _text_then_patches((), feats_next),
                                    cache=cache)

    normed = np.concatenate(collected, axis=1)[:, :horizon]     # [C, H, Q]
    # per-channel stats act on [C, H*Q] rows; sinh keeps the sort order
    quantiles = codec.denormalize(normed.reshape(len(normed), -1), stats).reshape(normed.shape)
    return [ForecastResult(quantiles=q, median=q[:, config.n_quantiles // 2], levels=levels)
            for q in quantiles]


# ---------------------------------------------------------------------
# frozen embeddings
# ---------------------------------------------------------------------

def build_repeat_layout(ts_features: Optional[np.ndarray], text_ids: Sequence[int] = (),
                        repeat: int = 1) -> M.Inputs:
    """Text tokens followed by `repeat` contiguous copies of the patch block."""
    if repeat < 1:
        raise ConfigError("repeat must be >= 1")
    block = (np.zeros((0, 0), dtype=np.float32) if ts_features is None
             else np.asarray(ts_features, dtype=np.float32))
    if len(block) == 0 and len(text_ids) == 0:
        raise ConfigError("embedding layout needs text or series content")
    return _text_then_patches(text_ids, np.tile(block, (repeat, 1))[None])


def extract_embedding(params: dict[str, Tensor], config: M.ModelConfig,
                      series: Optional[codec.RawSeries] = None,
                      text_ids: Sequence[int] = (), repeat: int = 1) -> np.ndarray:
    """Mean-pooled final-norm hidden state over all positions."""
    feats = (None if series is None
             else codec.patchify(series, config.patch_len).reshape(-1, 4 * config.patch_len))
    inputs = build_repeat_layout(feats, text_ids, repeat)
    with T.no_grad():
        rows = M.forward_hidden(params, config, inputs)
    return rows.data.mean(axis=0)


# ---------------------------------------------------------------------
# heads over frozen embeddings
# ---------------------------------------------------------------------

# probe-head training constants
PROBE_LR = 1e-2
PROBE_BATCH = 64
MLP_LR = 1e-3
MLP_BATCH = 8
MLP_DROPOUT = 0.1
MLP_HIDDEN = 128


def _weighted_ce(logits: Tensor, labels: np.ndarray, weights: Optional[np.ndarray]) -> Tensor:
    logp = T.log_softmax(logits)
    picked = T.gather_values(logp, labels)
    if weights is None:
        return T.mul_const(T.tsum(picked), -1.0 / len(labels))
    w = weights[labels]
    return T.mul_const(T.tsum(T.mul_const(picked, w)), -1.0 / float(w.sum()))


def _head_inputs(embeddings, labels, n_classes: int, class_balanced: bool):
    """float64 embeddings, int64 labels, and class weights (None when unweighted)."""
    labels = np.asarray(labels, dtype=np.int64)
    weights = (losses.class_balanced_weights(np.bincount(labels, minlength=n_classes))
               if class_balanced else None)
    return np.asarray(embeddings, dtype=np.float64), labels, weights


def _adam_train(param_list, grads_fn, n_rows, epochs, lr, batch_size, seed):
    """Minimal Adam loop over shuffled minibatches; grads_fn(idx) -> loss Tensor."""
    state = [{"m": np.zeros_like(p.data), "v": np.zeros_like(p.data)} for p in param_list]
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n_rows)
        for start in range(0, n_rows, batch_size):
            idx = order[start:start + batch_size]
            for p in param_list:
                p.grad = None
            loss = grads_fn(idx)
            loss.backward()
            t += 1
            for p, st in zip(param_list, state):
                if p.grad is None:
                    continue
                optim.adamw_step(p.data, p.grad, st["m"], st["v"], t, lr=lr)


class Head:
    """A trained classifier head: its weight matrices, applied in turn with
    ReLU between them.  One [D, K] matrix is a linear probe; [D, H] and
    [H, K] are the MLP head (its dropout acts during training only)."""

    def __init__(self, *weights: np.ndarray):
        self.weights = weights

    def scores(self, embeddings: np.ndarray) -> np.ndarray:
        h = np.asarray(embeddings, dtype=np.float64) @ self.weights[0]
        for w in self.weights[1:]:
            h = np.maximum(h, 0.0) @ w
        return h

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        return self.scores(embeddings).argmax(axis=1)


def train_linear_probe(embeddings: np.ndarray, labels: np.ndarray, n_classes: int, *,
                       epochs: int = 200, seed: int = 0,
                       class_balanced: bool = False) -> Head:
    embeddings, labels, weights = _head_inputs(embeddings, labels, n_classes, class_balanced)
    w = Tensor(np.zeros((embeddings.shape[1], n_classes)), requires_grad=True)

    def loss_on(idx):
        logits = T.matmul(Tensor(embeddings[idx]), w)
        return _weighted_ce(logits, labels[idx], weights)

    _adam_train([w], loss_on, len(labels), epochs, PROBE_LR, PROBE_BATCH, seed)
    return Head(w.data.copy())


def train_mlp_head(embeddings: np.ndarray, labels: np.ndarray, n_classes: int, *,
                   epochs: int = 100, seed: int = 0, class_balanced: bool = True) -> Head:
    embeddings, labels, weights = _head_inputs(embeddings, labels, n_classes, class_balanced)
    d = embeddings.shape[1]
    init_rng = np.random.default_rng(seed)
    w1 = Tensor(init_rng.normal(0, 1.0 / np.sqrt(d), (d, MLP_HIDDEN)), requires_grad=True)
    w2 = Tensor(np.zeros((MLP_HIDDEN, n_classes)), requires_grad=True)
    drop_rng = np.random.default_rng(seed + 1)

    def loss_on(idx):
        h = T.matmul(Tensor(embeddings[idx]), w1)
        h = T.maximum(h, Tensor(np.zeros(h.shape)))
        keep = (drop_rng.random(h.shape) >= MLP_DROPOUT) / (1.0 - MLP_DROPOUT)
        h = T.mul_const(h, keep)
        logits = T.matmul(h, w2)
        return _weighted_ce(logits, labels[idx], weights)

    _adam_train([w1, w2], loss_on, len(labels), epochs, MLP_LR, MLP_BATCH, seed)
    return Head(w1.data.copy(), w2.data.copy())
