"""Forecasting, frozen-embedding extraction, and heads over frozen embeddings.

Forecasting is autoregressive one-patch-at-a-time generation with a KV
cache: normalization statistics come from the original context once and
stay fixed for every step; the per-step quantile matrix is sorted to
repair crossings and the median patch feeds back as the next input.
Contexts front-pad with NaN to the next patch boundary so generation
starts exactly where the data ends.

Embedding extraction mean-pools the final-norm hidden states over every
position, with the whole TS patch block optionally repeated r times to
rebalance the modality share against long text prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import codec, losses
from . import model as M
from . import optim
from . import tensor as T
from .errors import ConfigError, InvalidSeriesError
from .tensor import Tensor


@dataclass
class ForecastResult:
    quantiles: np.ndarray   # [H, Q] data units, nondecreasing per step
    median: np.ndarray      # [H]
    levels: np.ndarray


def _pad_to_patch_boundary(values: np.ndarray, patch_len: int) -> np.ndarray:
    """Front-pad with NaN so the context ends exactly on a patch boundary."""
    rem = len(values) % patch_len
    if rem == 0:
        return values
    return np.concatenate([np.full(patch_len - rem, np.nan), values])


def context_patch_features(values: np.ndarray, patch_len: int,
                           stats: codec.NormStats) -> np.ndarray:
    padded = _pad_to_patch_boundary(np.asarray(values, dtype=np.float64), patch_len)
    series = codec.RawSeries(padded)
    return codec.patchify(series, patch_len, stats=stats).features


def _generated_patch_features(median_patch: np.ndarray, padded_len: int, start: int,
                              patch_len: int) -> np.ndarray:
    ramp = codec.extend_time_ramp(padded_len, start, patch_len)
    mask = np.ones(patch_len)
    channel = np.zeros(patch_len)
    return codec.assemble_features(ramp[None, :], median_patch[None, :],
                                   mask[None, :], channel[None, :])


def forecast_values(params: dict[str, Tensor], config: M.ModelConfig,
                    values: np.ndarray, horizon: int,
                    text_ids: Sequence[int] = ()) -> ForecastResult:
    """Quantile forecast for a univariate context (1-D array, NaN = missing)."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    if not np.isfinite(values).any():
        raise InvalidSeriesError("context has no finite values")
    P = config.patch_len
    stats = codec.compute_visible_stats(codec.RawSeries(values))
    feats = context_patch_features(values, P, stats)
    padded_len = feats.shape[0] * P
    levels = losses.quantile_levels(config.n_quantiles)

    n_steps = -(-horizon // P)
    text_ids = np.asarray(list(text_ids), dtype=np.int64)
    need = len(text_ids) + feats.shape[0] + n_steps
    if need > config.max_seq:
        raise ConfigError(f"context+horizon needs {need} positions > max_seq {config.max_seq}")

    collected = []
    with T.no_grad():
        cache = M.KVCache(config)
        if len(text_ids):
            n = len(text_ids) + feats.shape[0]
            layout = M.SequenceLayout(
                length=n,
                text_pos=np.arange(len(text_ids)), text_ids=text_ids,
                ts_pos=np.arange(len(text_ids), n), ts_features=feats)
        else:
            layout = M.ts_only_layout(feats)
        hidden = M.forward_hidden(params, config, [layout], cache=cache)
        last = T.index(hidden, (0, slice(layout.length - 1, layout.length)))
        for step in range(n_steps):
            q_hat = losses.quantile_head(params, config, last).data[0]  # [P, Q]
            q_sorted = np.sort(q_hat, axis=-1)
            collected.append(q_sorted)
            if step == n_steps - 1:
                break
            median_patch = q_sorted[:, config.n_quantiles // 2]
            feats_next = _generated_patch_features(
                median_patch, padded_len, padded_len + step * P, P)
            hidden = M.forward_hidden(params, config, [M.ts_only_layout(feats_next)],
                                      cache=cache)
            last = T.index(hidden, (0, slice(0, 1)))

    normed = np.concatenate(collected, axis=0)[:horizon]       # [H, Q]
    # one channel, so the [1, 1] stats broadcast over [H, Q]; sinh keeps the sort order
    quantiles = codec.denormalize(normed, stats)
    return ForecastResult(quantiles=quantiles,
                          median=quantiles[:, config.n_quantiles // 2],
                          levels=levels)


def forecast_series(params: dict[str, Tensor], config: M.ModelConfig,
                    series: codec.RawSeries, horizon: int,
                    text_ids: Sequence[int] = ()) -> list[ForecastResult]:
    """Channel-independent forecasts for a (possibly multivariate) series."""
    return [forecast_values(params, config, series.values[c], horizon, text_ids)
            for c in range(series.n_channels)]


# ---------------------------------------------------------------------
# frozen embeddings
# ---------------------------------------------------------------------

def build_repeat_layout(config: M.ModelConfig, ts_features: Optional[np.ndarray],
                        text_ids: Sequence[int] = (), repeat: int = 1) -> M.SequenceLayout:
    """Text tokens followed by `repeat` contiguous copies of the patch block."""
    if repeat < 1:
        raise ConfigError("repeat must be >= 1")
    text_ids = np.asarray(list(text_ids), dtype=np.int64)
    if ts_features is None or len(ts_features) == 0:
        if len(text_ids) == 0:
            raise ConfigError("embedding layout needs text or series content")
        return M.text_only_layout(text_ids)
    block = np.asarray(ts_features, dtype=np.float32)
    tiled = np.tile(block, (repeat, 1))
    n_text = len(text_ids)
    length = n_text + len(tiled)
    return M.SequenceLayout(
        length=length,
        text_pos=np.arange(n_text), text_ids=text_ids,
        ts_pos=np.arange(n_text, length), ts_features=tiled)


def extract_embedding(params: dict[str, Tensor], config: M.ModelConfig,
                      series: Optional[codec.RawSeries] = None,
                      text_ids: Sequence[int] = (), repeat: int = 1) -> np.ndarray:
    """Mean-pooled final-norm hidden state over all positions."""
    feats = codec.patchify(series, config.patch_len).features if series is not None else None
    layout = build_repeat_layout(config, feats, text_ids, repeat)
    if layout.length > config.max_seq:
        raise ConfigError(f"layout length {layout.length} exceeds max_seq {config.max_seq}")
    with T.no_grad():
        hidden = M.forward_hidden(params, config, [layout])
    return hidden.data[0].mean(axis=0)


# ---------------------------------------------------------------------
# heads over frozen embeddings
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeConfig:
    epochs: int = 200
    lr: float = 1e-2
    weight_decay: float = 0.0
    batch_size: int = 64
    seed: int = 0
    class_balanced: bool = False


@dataclass(frozen=True)
class MlpHeadConfig:
    epochs: int = 100
    lr: float = 1e-3
    batch_size: int = 8
    dropout: float = 0.1
    hidden_dim: int = 128
    seed: int = 0
    class_balanced: bool = True


@dataclass(frozen=True)
class ForecastHeadConfig:
    epochs: int = 100
    lr: float = 1e-3
    batch_size: int = 8
    seed: int = 0


def _weighted_ce(logits: Tensor, labels: np.ndarray, weights: Optional[np.ndarray]) -> Tensor:
    logp = T.log_softmax(logits)
    picked = T.gather_values(logp, labels)
    if weights is None:
        return T.mul_const(T.tsum(picked), -1.0 / len(labels))
    w = weights[labels]
    return T.mul_const(T.tsum(T.mul_const(picked, w)), -1.0 / float(w.sum()))


def _adam_train(param_list, grads_fn, n_rows, epochs, lr, batch_size, seed, weight_decay=0.0):
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
                optim.adamw_step(p.data, p.grad, st["m"], st["v"], t, lr=lr,
                                 weight_decay=weight_decay)


class LinearProbe:
    """Single linear layer trained with softmax cross-entropy."""

    def __init__(self, weight: np.ndarray):
        self.weight = weight  # [D, K]

    def scores(self, embeddings: np.ndarray) -> np.ndarray:
        return np.asarray(embeddings, dtype=np.float64) @ self.weight

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        return self.scores(embeddings).argmax(axis=1)


def train_linear_probe(embeddings: np.ndarray, labels: np.ndarray, n_classes: int,
                       config: ProbeConfig = ProbeConfig()) -> LinearProbe:
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = None
    if config.class_balanced:
        counts = np.bincount(labels, minlength=n_classes)
        weights = losses.class_balanced_weights(counts)
    w = Tensor(np.zeros((embeddings.shape[1], n_classes)), requires_grad=True)

    def loss_on(idx):
        logits = T.matmul(Tensor(embeddings[idx]), w)
        return _weighted_ce(logits, labels[idx], weights)

    _adam_train([w], loss_on, len(labels), config.epochs, config.lr,
                config.batch_size, config.seed, config.weight_decay)
    return LinearProbe(w.data.copy())


class MlpHead:
    """Two-layer MLP head (relu hidden, dropout during training only)."""

    def __init__(self, w1: np.ndarray, w2: np.ndarray):
        self.w1 = w1
        self.w2 = w2

    def scores(self, embeddings: np.ndarray) -> np.ndarray:
        h = np.maximum(np.asarray(embeddings, dtype=np.float64) @ self.w1, 0.0)
        return h @ self.w2

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        return self.scores(embeddings).argmax(axis=1)


def train_mlp_head(embeddings: np.ndarray, labels: np.ndarray, n_classes: int,
                   config: MlpHeadConfig = MlpHeadConfig()) -> MlpHead:
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = None
    if config.class_balanced:
        counts = np.bincount(labels, minlength=n_classes)
        weights = losses.class_balanced_weights(counts)
    d = embeddings.shape[1]
    init_rng = np.random.default_rng(config.seed)
    w1 = Tensor(init_rng.normal(0, 1.0 / np.sqrt(d), (d, config.hidden_dim)), requires_grad=True)
    w2 = Tensor(np.zeros((config.hidden_dim, n_classes)), requires_grad=True)
    drop_rng = np.random.default_rng(config.seed + 1)

    def loss_on(idx):
        h = T.matmul(Tensor(embeddings[idx]), w1)
        h = T.maximum(h, Tensor(np.zeros(h.shape)))
        if config.dropout > 0.0:
            keep = (drop_rng.random(h.shape) >= config.dropout) / (1.0 - config.dropout)
            h = T.mul_const(h, keep)
        logits = T.matmul(h, w2)
        return _weighted_ce(logits, labels[idx], weights)

    _adam_train([w1, w2], loss_on, len(labels), config.epochs, config.lr,
                config.batch_size, config.seed)
    return MlpHead(w1.data.copy(), w2.data.copy())


class ForecastHead:
    """Linear map from pooled embedding to an H-step point forecast."""

    def __init__(self, weight: np.ndarray):
        self.weight = weight  # [D, H]

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        return np.asarray(embeddings, dtype=np.float64) @ self.weight


def train_forecast_head(embeddings: np.ndarray, targets: np.ndarray,
                        config: ForecastHeadConfig = ForecastHeadConfig()) -> ForecastHead:
    """MSE regression of horizon targets on frozen embeddings."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    w = Tensor(np.zeros((embeddings.shape[1], targets.shape[1])), requires_grad=True)

    def loss_on(idx):
        pred = T.matmul(Tensor(embeddings[idx]), w)
        err = T.add_const(pred, -targets[idx])
        return T.tmean(T.mul(err, err))

    _adam_train([w], loss_on, len(targets), config.epochs, config.lr,
                config.batch_size, config.seed)
    return ForecastHead(w.data.copy())
