"""Output heads and training losses.

Text: cross-entropy over the soft-capped logits of the tied head,
computed by the fused ``tensor.softcapped_cross_entropy``: rows go
through in chunks and the gradients are formed in the forward pass
(``model.text_logits`` is the unfused form).  Time series: a
zero-initialized bias-free quantile head over Q levels and the masked
pinball loss normalized by Q times the valid-target count, one fused
``tensor.masked_pinball`` node: targets under a zero mask never enter it,
and its gradient is the slope tau or tau - 1 that the max picked, scaled
by the mask.  The combined objective is the weighted sum
w_text * CE + w_ts * QL.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
from .model import NORM_EPS, SOFTCAP_ALPHA, ModelConfig
from .model import text_logits  # noqa: F401  (looked up here by bench/layers.py)
from .tensor import Tensor

DEFAULT_TEXT_WEIGHT = 1.0
DEFAULT_TS_WEIGHT = 2.5


def quantile_levels(n_quantiles: int = 21, lo: float = 0.05, hi: float = 0.95) -> np.ndarray:
    """Q levels spaced uniformly over [lo, hi]; symmetric about 0.5."""
    if n_quantiles < 1:
        raise ConfigError("need at least one quantile level")
    if n_quantiles == 1:
        return np.array([0.5 * (lo + hi)])
    step = (hi - lo) / (n_quantiles - 1)
    return lo + step * np.arange(n_quantiles)


def lm_loss(params: dict[str, Tensor], rows: Tensor,
            targets: np.ndarray) -> tuple[Tensor, int]:
    """Mean cross-entropy over [N, d] rows with next-token id targets.

    Returns (loss, n): with no rows the loss is a constant 0 of zero weight.
    """
    targets = np.asarray(targets, dtype=np.int64)
    n = rows.shape[0]
    if n == 0:
        return Tensor(np.zeros((), dtype=rows.dtype)), 0
    if targets.shape != (n,):
        raise DimensionError("one target id per row required")
    return T.softcapped_cross_entropy(rows, params["tok_emb"], targets, SOFTCAP_ALPHA), n


def quantile_head(params: dict[str, Tensor], config: ModelConfig, rows: Tensor) -> Tensor:
    """RMSNorm + bias-free projection of [N, d] rows to [N, P, Q]."""
    normed = T.rmsnorm(rows, params["qhead_norm"], NORM_EPS)
    flat = T.matmul(normed, params["quantile_head"])
    return T.reshape(flat, (rows.shape[0], config.patch_len, config.n_quantiles))


def masked_quantile_loss(q_hat: Tensor, targets: np.ndarray, mask: np.ndarray,
                         levels: np.ndarray) -> tuple[Tensor, float]:
    """sum(z * rho_tau(y - q_hat)) / (Q * sum(z)) as one ``tensor.masked_pinball``
    node, and the valid-target count sum(z); an empty mask gives 0, weight 0.

    With no rows at all the loss is that constant whatever the patch width
    of ``targets`` and ``mask``: a text batch carries [B, S, 1] TS arrays.
    """
    if q_hat.shape[:1] == np.shape(targets)[:1] == np.shape(mask)[:1] == (0,):
        return Tensor(np.zeros((), dtype=q_hat.dtype)), 0.0
    loss = T.masked_pinball(q_hat, targets, mask, levels)
    return loss, float(np.asarray(mask, dtype=q_hat.dtype).sum())


def combined_loss(ce: Tensor, ql: Tensor,
                  w_text: float = DEFAULT_TEXT_WEIGHT,
                  w_ts: float = DEFAULT_TS_WEIGHT) -> Tensor:
    """Exactly w_text * CE + w_ts * QL."""
    return T.add(T.mul_const(ce, w_text), T.mul_const(ql, w_ts))


def class_balanced_weights(counts) -> np.ndarray:
    """Inverse-frequency class weights normalized to sum to n_classes."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ConfigError("counts must be a non-empty 1-D array")
    if np.any(counts <= 0):
        raise ConfigError("every class needs at least one training example")
    inv = 1.0 / (counts / counts.sum())
    return inv * (counts.size / inv.sum())
