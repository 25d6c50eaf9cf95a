"""Decoder-only transformer shared by text tokens and time-series patches.

One sequence mixes the two modalities position by position.  A batch is
one ``Inputs``: a [B, S] id array holding a token id at each text position
and ``PATCH`` (-1) at each patch position, plus one 4P feature row per
patch position in row-major order.  Text enters through a tied embedding
table, patches through a bias-free projection of the 4P feature vector
followed by RMSNorm.  Blocks are pre-norm RMSNorm with grouped-query
causal attention (per-head QK RMSNorm, then RoPE as one fused
``tensor.rope`` node) and a SwiGLU MLP, one fused ``tensor.swiglu_mlp``
node.  Attention output projections, SwiGLU w3, and the quantile head
start at zero so the whole stack is the identity on the residual stream
at initialization.

The residual stream is [B·S, d] rows, row-major by position, from
``embed_sequence`` to the final norm; only attention splits it into heads.
``forward_hidden`` works out a pass's positions, ``max_seq`` check and
RoPE tables once, and hands the final-norm rows to the heads as they are:
row b·S + s is position s of sequence b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import CacheError, ConfigError, DataError, DimensionError
from .tensor import Tensor

ROPE_BASE = 5.0e5
SOFTCAP_ALPHA = 15.0
NORM_EPS = 1e-6


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 2
    d_model: int = 64
    n_q_heads: int = 4
    n_kv_heads: int = 2
    head_dim: int = 16
    patch_len: int = 8
    n_quantiles: int = 21
    vocab_size: int = 4096
    max_seq: int = 256

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{f.name} must be a positive integer, got {value!r}")
        if self.n_q_heads % self.n_kv_heads != 0:
            raise ConfigError("n_q_heads must be divisible by n_kv_heads")
        if self.head_dim * self.n_q_heads != self.d_model:
            raise ConfigError("head_dim * n_q_heads must equal d_model")
        if self.head_dim % 2 != 0:
            raise ConfigError("head_dim must be even for rotary embeddings")
        if self.n_quantiles % 2 == 0:
            raise ConfigError("n_quantiles must be odd so the median level exists")

    @property
    def swiglu_hidden(self) -> int:
        raw = math.ceil(8 * self.d_model / 3)
        return ((raw + 255) // 256) * 256


PATCH = -1  # the id at a patch position


@dataclass(frozen=True)
class Inputs:
    """One batch of model input.

    ``ids`` is [B, S] int64: a token id at a text position and ``PATCH`` at
    a patch position.  ``patches`` holds one 4P feature row per ``PATCH``
    id, in row-major position order.
    """

    ids: np.ndarray
    patches: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.float32))

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        patches = np.asarray(self.patches)
        if ids.ndim != 2 or ids.size == 0:
            raise DataError(f"ids must be a non-empty [B, S] array, got shape {ids.shape}")
        n_patch = int(np.count_nonzero(ids == PATCH))
        if len(patches) != n_patch:
            raise DataError(f"{len(patches)} patch rows for {n_patch} patch positions")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "patches", patches)


# ---------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------

def _fan_scaled(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    sigma = min(1.0, math.sqrt(fan_out / fan_in)) / math.sqrt(fan_in)
    return rng.normal(0.0, sigma, size=(fan_in, fan_out)).astype(dtype)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    d = config.d_model
    hd = config.head_dim
    hidden = config.swiglu_hidden
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, d),
        "patch_proj": (4 * config.patch_len, d),
        "patch_norm": (d,),
        "post_emb_norm": (d,),
        "final_norm": (d,),
        "qhead_norm": (d,),
        "quantile_head": (d, config.patch_len * config.n_quantiles),
    }
    for i in range(config.n_layers):
        p = f"blocks.{i}."
        shapes[p + "attn_norm"] = (d,)
        shapes[p + "wq"] = (d, config.n_q_heads * hd)
        shapes[p + "wk"] = (d, config.n_kv_heads * hd)
        shapes[p + "wv"] = (d, config.n_kv_heads * hd)
        shapes[p + "wo"] = (config.n_q_heads * hd, d)
        shapes[p + "q_norm"] = (hd,)
        shapes[p + "k_norm"] = (hd,)
        shapes[p + "mlp_norm"] = (d,)
        shapes[p + "w1"] = (d, hidden)
        shapes[p + "w2"] = (d, hidden)
        shapes[p + "w3"] = (hidden, d)
    return shapes


ZERO_INIT_SUFFIXES = ("wo", "w3", "quantile_head")


def init_params(config: ModelConfig, seed: int = 0, dtype=np.float32) -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ZERO_INIT_SUFFIXES:
            arr = np.zeros(shape, dtype=dtype)
        elif len(shape) == 1:
            arr = np.ones(shape, dtype=dtype)  # every norm scale
        elif name == "tok_emb":
            arr = rng.normal(0.0, 0.02, size=shape).astype(dtype)
        else:
            arr = _fan_scaled(rng, shape[0], shape[1], dtype)
        params[name] = Tensor(arr, requires_grad=True)
    return params


# ---------------------------------------------------------------------
# rotary position embedding
# ---------------------------------------------------------------------

def rope_tables(positions: np.ndarray, head_dim: int, base: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    if head_dim % 2 != 0:
        raise ConfigError("head_dim must be even for rotary embeddings")
    j = np.arange(head_dim // 2, dtype=np.float64)
    freqs = base ** (-2.0 * j / head_dim)
    angles = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


def soft_cap(logits: Tensor, alpha: float) -> Tensor:
    """alpha * tanh(logits / alpha): bounded in (-alpha, alpha), monotone."""
    return T.mul_const(T.tanh(T.mul_const(logits, 1.0 / alpha)), alpha)


# ---------------------------------------------------------------------
# KV cache
# ---------------------------------------------------------------------

class KVCache:
    """Per-layer K/V buffers for incremental decoding (inference only)."""

    def __init__(self, config: ModelConfig):
        self.length = 0
        self._k: list[Optional[np.ndarray]] = [None] * config.n_layers
        self._v: list[Optional[np.ndarray]] = [None] * config.n_layers

    def extend(self, layer: int, k_new: np.ndarray, v_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        held = 0 if self._k[layer] is None else self._k[layer].shape[2]
        if held != self.length:
            raise CacheError(f"layer {layer} cache out of sync ({held} != {self.length})")
        if self._k[layer] is None:
            self._k[layer], self._v[layer] = k_new, v_new
        else:
            self._k[layer] = np.concatenate([self._k[layer], k_new], axis=2)
            self._v[layer] = np.concatenate([self._v[layer], v_new], axis=2)
        return self._k[layer], self._v[layer]

    def advance(self, n_new: int) -> None:
        if n_new <= 0:
            raise CacheError("cache position must advance")
        self.length += n_new


# ---------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------

def embed_sequence(params: dict[str, Tensor], config: ModelConfig, inputs: Inputs) -> Tensor:
    """Token lookup + normalized patch projection: one [B·S, d] row per position."""
    n = inputs.ids.size
    flat_ids = inputs.ids.reshape(-1)
    text_pos = np.flatnonzero(flat_ids != PATCH)
    ts_pos = np.flatnonzero(flat_ids == PATCH)

    pieces = []
    if len(text_pos):
        text_ids = flat_ids[text_pos]
        if text_ids.min() < 0 or text_ids.max() >= config.vocab_size:
            raise DataError(f"token ids must be in [0, {config.vocab_size}) or {PATCH}")
        tok = T.gather_rows(params["tok_emb"], text_ids)
        pieces.append(T.scatter_rows(n, text_pos, tok))
    if len(ts_pos):
        if inputs.patches.ndim != 2 or inputs.patches.shape[1] != 4 * config.patch_len:
            raise DimensionError(f"patch features must be 4P={4 * config.patch_len} wide")
        feats = Tensor(inputs.patches.astype(params["patch_proj"].data.dtype))
        proj = T.matmul(feats, params["patch_proj"])
        proj = T.rmsnorm(proj, params["patch_norm"], NORM_EPS)
        pieces.append(T.scatter_rows(n, ts_pos, proj))
    flat = pieces[0] if len(pieces) == 1 else T.add(pieces[0], pieces[1])
    return T.rmsnorm(flat, params["post_emb_norm"], NORM_EPS)


def _split_heads(rows: Tensor, S: int, n_heads: int, head_dim: int) -> Tensor:
    """[B·S, n_heads·hd] rows -> [B, n_heads, S, hd]."""
    return T.transpose(T.reshape(rows, (-1, S, n_heads, head_dim)), (0, 2, 1, 3))


def attention_gqa(params: dict[str, Tensor], config: ModelConfig, layer: int,
                  x: Tensor, rope: tuple[np.ndarray, np.ndarray],
                  cache: Optional[KVCache] = None) -> Tensor:
    """Causal GQA over [B·S, d] rows; ``rope`` is the pass's (cos, sin)
    tables, one row per position, so S is ``len(cos)``."""
    p = f"blocks.{layer}."
    cos, sin = rope
    S = len(cos)
    hd = config.head_dim
    q = _split_heads(T.matmul(x, params[p + "wq"]), S, config.n_q_heads, hd)
    k = _split_heads(T.matmul(x, params[p + "wk"]), S, config.n_kv_heads, hd)
    v = _split_heads(T.matmul(x, params[p + "wv"]), S, config.n_kv_heads, hd)
    q = T.rope(T.rmsnorm(q, params[p + "q_norm"], NORM_EPS), cos, sin)
    k = T.rope(T.rmsnorm(k, params[p + "k_norm"], NORM_EPS), cos, sin)

    if cache is not None:
        if T.grad_enabled() and x.requires_grad:
            raise CacheError("KV cache is inference-only; wrap generation in no_grad()")
        k, v = map(Tensor, cache.extend(layer, k.data, v.data))
    # [B, Hq, S, hd]: the S queries follow the keys already cached
    ctx = T.causal_gqa_attention(q, k, v, k.shape[2] - S)
    merged = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (x.shape[0], config.n_q_heads * hd))
    return T.matmul(merged, params[p + "wo"])


def block_forward(params: dict[str, Tensor], config: ModelConfig, layer: int,
                  hidden: Tensor, rope: tuple[np.ndarray, np.ndarray],
                  cache: Optional[KVCache] = None) -> Tensor:
    p = f"blocks.{layer}."
    attn_in = T.rmsnorm(hidden, params[p + "attn_norm"], NORM_EPS)
    hidden = T.add(hidden, attention_gqa(params, config, layer, attn_in, rope, cache))
    mlp_in = T.rmsnorm(hidden, params[p + "mlp_norm"], NORM_EPS)
    return T.add(hidden, T.swiglu_mlp(mlp_in, params[p + "w1"], params[p + "w2"],
                                      params[p + "w3"]))


def forward_hidden(params: dict[str, Tensor], config: ModelConfig,
                   inputs: Inputs, cache: Optional[KVCache] = None) -> Tensor:
    """Full stack: embeddings, blocks, final norm -> [B·S, d] rows."""
    S = inputs.ids.shape[1]
    off = cache.length if cache is not None else 0
    if off + S > config.max_seq:
        raise ConfigError(f"sequence length {off + S} exceeds max_seq {config.max_seq}")
    hidden = embed_sequence(params, config, inputs)
    rope = rope_tables(np.arange(off, off + S), config.head_dim, ROPE_BASE, hidden.data.dtype)
    for layer in range(config.n_layers):
        hidden = block_forward(params, config, layer, hidden, rope, cache)
    if cache is not None:
        cache.advance(S)
    return T.rmsnorm(hidden, params["final_norm"], NORM_EPS)


def text_logits(params: dict[str, Tensor], rows: Tensor) -> Tensor:
    """Vocabulary logits for [N, d] rows: tied head + soft cap."""
    logits = T.matmul(rows, T.transpose(params["tok_emb"], (1, 0)))
    return soft_cap(logits, SOFTCAP_ALPHA)
