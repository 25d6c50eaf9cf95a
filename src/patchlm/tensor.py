"""Dense tensors on contiguous numpy buffers with reverse-mode autodiff.

Design rules kept deliberately strict so every backward rule stays auditable:

* row-major contiguous float32/float64 buffers, shapes always explicit;
* no silent broadcasting between two tensors -- binary ops demand equal
  shapes (constants may broadcast via ``add_const``/``mul_const`` as long
  as the result keeps the tensor operand's shape);
* gradients accumulate into leaf ``.grad`` buffers only; intermediate
  gradients live in a per-backward dict, so calling ``backward()`` twice
  accumulates exactly twice the leaf gradient.

Training math runs in float32; ``grad_check`` demands float64 so the
central-finite-difference oracle is tight.

Five fused ops carry the hot paths of a train step:

* ``softcapped_cross_entropy`` -- the vocab head and its mean CE, worked
  through in row chunks so no [N, V] logit matrix enters the graph.  The
  loss is terminal, so the forward pass also computes the row and table
  gradients; its backward rules only scale them.  A call with more than
  one chunk runs them on two worker threads, and each chunk runs its
  elementwise passes in L2-sized row blocks; the calling thread adds the
  chunks up in order, so the bits do not depend on the thread count.
* ``causal_gqa_attention`` -- grouped-query causal attention with the mask
  and scale built in and no K/V copies, walked in tiles of 128 query rows.
  Its backward reuses the saved probabilities.
* ``rope`` -- the rotary position embedding of q and k as one node; its
  backward is the inverse rotation.
* ``swiglu_mlp`` -- a block's SwiGLU MLP as one node, with the same float
  ops in the same order as the generic-op chain it replaces.
* ``masked_pinball`` -- the masked quantile (pinball) loss as one node.

The pinball op takes [..., Q] quantiles, the targets and mask without the
Q axis, and the Q levels.  It runs the float ops of the eight-node chain
it replaces in that chain's order: ``u = y - q`` (bit-equal to
``(q * -1) + y``), ``tau u`` and ``(tau - 1) u``, the ``>=`` pick, the
mask, the sum, then the float32 scale ``1 / (Q sum(mask))``.  So the loss
and every gradient keep their bits, down to the -0 of each zero entry of
the q gradient.  It holds one [..., Q] slope instead of six [..., Q]
values.

The attention tile of query rows [s0, s1) scores only the keys
[0, offset + s1) and masks only its diagonal block, so at S = 512 the node
saves the lower triangle of the scores (5/8 of S x T) and computes no more.
A pass of at most 128 queries (every decode step, every S <= 128 training
pass) is one tile and runs the float ops of the untiled op in its order,
so its output and gradients keep their bits; a longer pass sums dk and dv
over the tiles, which changes their last bits.

Attention and the MLP each need one computation for all of their parents'
gradients.  Both build their node with ``_make_joint``, which runs that
computation once per ``backward()`` call and hands each parent its share.

Importing this module sets three of glibc's malloc parameters for this
process only (``_keep_freed_pages_mapped``): blocks up to 32 MiB come from
the heap, freed heap pages stay mapped, and all threads share one arena.
A train step's multi-MB buffers (CE chunks, attention tiles and dS, the
MLP's saved arrays, backward temporaries) then reuse the previous step's
pages instead of faulting about 10k pages in and zero-filling them on
every step, and the CE's worker threads do not each grow an arena of
their own.  The resident set stays at its peak after a large transient.
Without glibc's ``mallopt`` nothing changes.  Importing starts no thread:
the CE's pool is made by the first call that has more than one chunk.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, DimensionError, NumericError

_FLOAT_DTYPES = (np.float32, np.float64)
_grad_enabled = True

# glibc's mallopt parameters (malloc.h) and the values this process sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD_BYTES = 32 << 20     # glibc's largest on 64-bit hosts
_TRIM_THRESHOLD_BYTES = 1 << 30


def _keep_freed_pages_mapped() -> None:
    """Keep this process's freed heap pages mapped, so the next train step
    reuses them instead of page-faulting and zero-filling them again.

    Both thresholds are needed: with only the mmap threshold raised, the
    default 128 KiB trim threshold hands the freed blocks back; with only
    the trim threshold raised, blocks past glibc's dynamic mmap threshold
    still get, and lose, their own mapping.  One arena keeps the CE's
    worker threads on the main heap, whose pages stay mapped; each thread's
    own arena would hold another copy of its chunk buffers.  Where libc
    has no ``mallopt`` (musl, macOS) nothing changes.  ``CDLL(None)`` looks
    the symbol up in the running process and starts no subprocess.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    mallopt(_M_ARENA_MAX, 1)


_keep_freed_pages_mapped()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


# One rule per parent: fn maps the output gradient to that parent's
# gradient contribution (the parent's shape and dtype; backward checks).
Rule = tuple["Tensor", Callable[[np.ndarray], np.ndarray]]


class Tensor:
    """A float array and, while it is in the graph, the rules to its parents.

    A tensor is in the graph exactly when ``requires_grad`` is set: a leaf
    gets it from its caller, and an op result gets it when grad mode is on
    and some parent has it.  Only such results keep ``_rules``, so
    ``requires_grad`` alone answers whether a gradient flows through.
    """

    __slots__ = ("data", "grad", "requires_grad", "_rules")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        # asarray with order="C" keeps 0-d shapes (ascontiguousarray would not)
        self.data = np.asarray(arr, order="C")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._rules: tuple[Rule, ...] = ()

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on non-scalar shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # -- backward ------------------------------------------------------
    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output.

        Visits each node exactly once in reverse topological order.  Leaf
        gradients accumulate across calls; intermediate gradients do not
        persist between calls.  A rule whose gradient does not have its
        parent's shape and dtype raises ``DimensionError`` naming the rule.
        """
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._rules:
                if id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if not node._rules:
                if node.requires_grad:
                    if node.grad is None:
                        node.grad = np.zeros_like(node.data)
                    node.grad += g
                continue
            for parent, fn in node._rules:
                if not parent.requires_grad:
                    continue
                contrib = fn(g)
                if contrib.shape != parent.data.shape or contrib.dtype != parent.data.dtype:
                    raise DimensionError(
                        f"{fn.__qualname__}: gradient {contrib.dtype}{list(contrib.shape)} "
                        f"for a {parent.data.dtype}{list(parent.shape)} parent")
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contrib
                else:
                    grads[key] = contrib


def _make(data: np.ndarray, rules: Sequence[Rule]) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    live = _grad_enabled and any(p.requires_grad for p, _ in rules)
    out.requires_grad = live
    out._rules = tuple(rules) if live else ()
    return out


def _make_joint(data: np.ndarray, parents: Sequence[Tensor],
                grads: Callable[[np.ndarray], Sequence[np.ndarray]]) -> Tensor:
    """A node whose parents' gradients all come from one ``grads(g)`` call.

    ``grads`` returns one gradient per parent, in order.  The first rule run
    in a ``backward()`` call computes them all; each parent in the graph
    then takes its own share once.  Shares of parents outside the graph are
    dropped at once, and nothing stays held after the last share is taken.
    """
    source = None                          # the output gradient of the shares held
    shares: dict[int, np.ndarray] = {}

    def take(i: int, g: np.ndarray) -> np.ndarray:
        nonlocal source
        if source is not g:
            source = g
            shares.clear()
            shares.update((j, d) for j, (p, d) in enumerate(zip(parents, grads(g)))
                          if p.requires_grad)
        d = shares.pop(i)
        if not shares:
            source = None
        return d

    return _make(data, [(p, lambda g, i=i: take(i, g)) for i, p in enumerate(parents)])


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _make(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    return _make(a.data * b.data, [(a, lambda g: g * b.data), (b, lambda g: g * a.data)])


def add_const(a: Tensor, c) -> Tensor:
    """a + constant; the constant may broadcast but must not grow the shape."""
    data = a.data + np.asarray(c, dtype=a.data.dtype)
    if data.shape != a.shape:
        raise DimensionError(f"add_const changed shape {a.shape} -> {data.shape}")
    return _make(data, [(a, lambda g: g)])


def mul_const(a: Tensor, c) -> Tensor:
    carr = np.asarray(c, dtype=a.data.dtype)
    data = a.data * carr
    if data.shape != a.shape:
        raise DimensionError(f"mul_const changed shape {a.shape} -> {data.shape}")
    return _make(data, [(a, lambda g: g * carr)])


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _make(y, [(a, lambda g: g * (1.0 - y * y))])


def texp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    return _make(y, [(a, lambda g: g * y)])


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties route the gradient to ``a`` (right derivative)."""
    _check_same_shape(a, b, "maximum")
    take_a = a.data >= b.data
    data = np.where(take_a, a.data, b.data)
    return _make(data, [(a, lambda g: g * take_a), (b, lambda g: g * ~take_a)])


# ---------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    return _make(np.ascontiguousarray(a.data.reshape(shape)), [(a, lambda g: g.reshape(a.shape))])


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))
    return _make(np.ascontiguousarray(a.data.transpose(axes)), [(a, lambda g: g.transpose(inv))])


# ---------------------------------------------------------------------
# gather / scatter
# ---------------------------------------------------------------------

def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup (embedding); backward scatter-adds duplicate ids."""
    ids = np.asarray(ids, dtype=np.int64)
    n = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        bad = ids[(ids < 0) | (ids >= n)]
        raise DataError(f"id out of range: {bad[:4].tolist()} (table has {n} rows)")
    data = np.ascontiguousarray(table.data[ids])

    def bw(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, g)
        return buf

    return _make(data, [(table, bw)])


def scatter_rows(n_rows: int, idx: np.ndarray, src: Tensor) -> Tensor:
    """Place src rows into a fresh zero buffer at unique row indices."""
    idx = np.asarray(idx, dtype=np.int64)
    if len(np.unique(idx)) != len(idx):
        raise DimensionError("scatter_rows requires unique indices")
    data = np.zeros((n_rows,) + src.shape[1:], dtype=src.data.dtype)
    data[idx] = src.data
    return _make(data, [(src, lambda g: np.ascontiguousarray(g[idx]))])


def gather_values(x: Tensor, idx: np.ndarray) -> Tensor:
    """out[i] = x[i, idx[i]] for a 2-D tensor."""
    idx = np.asarray(idx, dtype=np.int64)
    n = x.shape[0]
    rows = np.arange(n)
    data = np.ascontiguousarray(x.data[rows, idx])

    def bw(g):
        buf = np.zeros_like(x.data)
        buf[rows, idx] += g
        return buf

    return _make(data, [(x, bw)])


# ---------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    data = np.asarray(data, dtype=a.data.dtype)

    def bw(g):
        if axis is None:
            return np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=True)
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, a.shape).astype(a.data.dtype, copy=True)

    return _make(data, [(a, bw)])


# ---------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; batched when both operands share leading dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands must be at least 2-D")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner extents differ {a.shape} @ {b.shape}")
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul: leading dims differ {a.shape} @ {b.shape}")
    data = a.data @ b.data
    return _make(data, [
        (a, lambda g: g @ b.data.swapaxes(-1, -2)),
        (b, lambda g: a.data.swapaxes(-1, -2) @ g),
    ])


# ---------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------

def log_softmax(a: Tensor) -> Tensor:
    x = a.data
    m = np.max(x, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    shifted = x - m
    lse = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    y = shifted - lse

    def bw(g):
        return g - np.exp(y) * g.sum(axis=-1, keepdims=True)

    return _make(y, [(a, bw)])


# ---------------------------------------------------------------------
# rmsnorm
# ---------------------------------------------------------------------

def rmsnorm(x: Tensor, scale: Tensor, eps: float = 1e-6) -> Tensor:
    """y = x / sqrt(mean(x^2) + eps) * scale over the last axis."""
    if scale.ndim != 1 or scale.shape[0] != x.shape[-1]:
        raise DimensionError(f"rmsnorm scale {scale.shape} incompatible with {x.shape}")
    d = x.shape[-1]
    r = 1.0 / np.sqrt(np.mean(x.data * x.data, axis=-1, keepdims=True) + eps)
    y = x.data * r * scale.data

    def bw_x(g):
        gs = g * scale.data
        dot = (gs * x.data).sum(axis=-1, keepdims=True)
        return gs * r - x.data * (r ** 3) * dot / d

    def bw_scale(g):
        return (g * x.data * r).reshape(-1, d).sum(axis=0)

    return _make(y, [(x, bw_x), (scale, bw_scale)])


# ---------------------------------------------------------------------
# fused ops
# ---------------------------------------------------------------------

def rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary position embedding over the last axis of ``x``.

    Pair j is (x[..., j], x[..., j + hd/2]) and turns by the angle whose
    cosine and sine are ``cos[..., j]`` and ``sin[..., j]``: it becomes
    (x1 cos - x2 sin, x1 sin + x2 cos).  The tables broadcast against
    x[..., :hd/2], e.g. [S, hd/2] tables for a [B, H, S, hd] x.  The
    backward applies the inverse rotation, the same formula at -sin.
    """
    half = x.shape[-1] // 2
    pairs = x.shape[:-1] + (half,)
    cos = np.asarray(cos, dtype=x.data.dtype)
    sin = np.asarray(sin, dtype=x.data.dtype)
    try:
        fits = x.shape[-1] % 2 == 0 and np.broadcast_shapes(cos.shape, sin.shape, pairs) == pairs
    except ValueError:
        fits = False
    if not fits:
        raise DimensionError(f"rope: tables {cos.shape}, {sin.shape} do not fit x {x.shape}")

    def rotate(a: np.ndarray, s: np.ndarray) -> np.ndarray:
        a1, a2 = a[..., :half], a[..., half:]
        out = np.empty_like(a)
        np.subtract(a1 * cos, a2 * s, out=out[..., :half])
        np.add(a1 * s, a2 * cos, out=out[..., half:])
        return out

    return _make(rotate(x.data, sin), [(x, lambda g: rotate(g, -sin))])


_CE_CHUNK_LOGITS = 1 << 20   # logits per softcapped_cross_entropy chunk
_CE_BLOCK_LOGITS = 1 << 17   # logits per row block of a chunk's elementwise passes
_CE_WORKERS = 2              # threads that work a multi-chunk CE's chunks
_ce_pool: ThreadPoolExecutor | None = None


def _ce_executor() -> ThreadPoolExecutor:
    """The CE's pool of ``_CE_WORKERS`` threads, made on first use."""
    global _ce_pool
    if _ce_pool is None:
        _ce_pool = ThreadPoolExecutor(_CE_WORKERS, "patchlm-ce")
    return _ce_pool


def _forget_ce_pool() -> None:
    # a forked child has none of its parent's threads; it makes its own pool
    global _ce_pool
    _ce_pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_ce_pool)


def _live(a: Tensor) -> bool:
    return _grad_enabled and a.requires_grad


def softcapped_cross_entropy(rows: Tensor, table: Tensor, targets: np.ndarray,
                             alpha: float) -> Tensor:
    """Mean CE of ``alpha * tanh(rows @ table.T / alpha)`` against ``targets``.

    ``rows`` is [N, d] and ``table`` [V, d].  Rows go through in chunks of
    about 2^20 logits, so no [N, V] buffer outlives its chunk.  The loss is
    a terminal node: when a graph is built, the same pass computes d rows
    and d table, and the backward rules only scale them by the incoming
    gradient.  Every capped logit lies in (-alpha, alpha), so the constant
    alpha stands in for the per-row max of the logsumexp; in float32 that
    holds while exp(-2 alpha) does not underflow, i.e. alpha below ~40.

    A call with more than one chunk hands them to ``_CE_WORKERS`` threads
    (numpy releases the GIL in its ufunc loops and BLAS calls).  The calling
    thread adds up the chunks' results in chunk order, so the loss and both
    gradients have the same bits for any number of workers.  Within a chunk
    the elementwise passes run over row blocks of about 2^17 logits, which
    stay in L2, through one scratch block; each block's gradient goes back
    into the chunk's GEMM output, the only [chunk, V] buffer.
    """
    n, d = rows.shape
    if table.ndim != 2 or table.shape[1] != d:
        raise DimensionError(f"softcapped_cross_entropy: table {table.shape} vs rows {rows.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    if n == 0 or targets.shape != (n,):
        raise DimensionError("softcapped_cross_entropy needs one target id per row, N >= 1")
    w = table.data
    vocab = w.shape[0]
    need_rows, need_table = _live(rows), _live(table)
    d_rows = np.empty_like(rows.data) if need_rows else None
    chunk = max(1, _CE_CHUNK_LOGITS // vocab)
    block = max(1, _CE_BLOCK_LOGITS // vocab)

    def run_chunk(start: int) -> tuple[float, float, np.ndarray | None]:
        """(sum of target capped logits - alpha, sum of log row sums, d table
        share) of one chunk; its d rows go straight into ``d_rows``."""
        r = rows.data[start:start + chunk]
        tgt = targets[start:start + chunk]
        th = (r * r.dtype.type(1.0 / alpha)) @ w.T
        picked = np.empty(len(tgt), th.dtype)
        sumexp = np.empty((len(tgt), 1), th.dtype)
        scratch = np.empty((min(block, len(tgt)), vocab), th.dtype)
        for b0 in range(0, len(tgt), block):
            t = th[b0:b0 + block]
            e = scratch[:len(t)]
            pick, tb = np.arange(len(t)), tgt[b0:b0 + block]
            np.tanh(t, out=t)
            np.subtract(t, 1.0, out=e)
            e *= alpha                               # capped logit - alpha
            picked[b0:b0 + block] = e[pick, tb]
            np.exp(e, out=e)
            np.sum(e, axis=1, keepdims=True, out=sumexp[b0:b0 + block])
            if need_rows or need_table:
                e /= sumexp[b0:b0 + block]           # softmax
                e[pick, tb] -= 1.0                   # d CE / d capped logit
                t *= t
                np.subtract(1.0, t, out=t)           # d capped logit / d raw logit
                np.multiply(e, t, out=t)             # d CE / d raw logit
        if need_rows:
            d_rows[start:start + chunk] = th @ w
        return (float(picked.sum(dtype=np.float64)),
                float(np.log(sumexp).sum(dtype=np.float64)),
                th.T @ r if need_table else None)

    starts = range(0, n, chunk)
    results = map(run_chunk, starts) if len(starts) == 1 else _ce_executor().map(run_chunk, starts)
    d_table = np.zeros_like(w) if need_table else None
    total = 0.0
    for picked_sum, log_sum, table_share in results:
        total -= picked_sum
        total += log_sum
        if need_table:
            d_table += table_share
    inv_n = 1.0 / n
    if need_rows:
        d_rows *= inv_n
    if need_table:
        d_table *= inv_n
    loss = np.asarray(total * inv_n, dtype=rows.data.dtype)
    # g is 0-d; as a Python float it keeps the gradients in the rows' dtype
    return _make(loss, [(rows, lambda g: float(g) * d_rows),
                        (table, lambda g: float(g) * d_table)])


_ATTN_TILE_ROWS = 128        # query rows per causal_gqa_attention tile
_ATTN_HIDDEN = ~np.tri(_ATTN_TILE_ROWS, dtype=bool)   # [:n, :n] masks a tile's diagonal block


def causal_gqa_attention(q: Tensor, k: Tensor, v: Tensor, offset: int) -> Tensor:
    """Causal grouped-query attention ``softmax(q k^T / sqrt(hd) + mask) v``.

    ``q`` is [B, Hq, S, hd] at positions offset..offset+S-1; ``k`` and ``v``
    are [B, Hkv, offset+S, hd].  Query head h reads kv head h // (Hq/Hkv),
    so q is viewed as [B, Hkv, g, S, hd] and K/V are never copied.  The
    causal mask and the 1/sqrt(hd) scale are applied here.

    The queries go through in tiles of 128 rows.  The tile of rows
    [s0, s1) takes those rows of all g heads of a group, scores only the
    keys [0, offset + s1) it can see, and masks only its diagonal n x n
    block.  It keeps its own probabilities, so the node holds the lower
    triangle of the scores, not all S x T of them.  The backward walks the
    same tiles, forms dS once per tile for q, k and v, writes that tile's
    dq and adds dk and dv over its key prefix.  A pass of at most 128
    queries is one tile and runs the float ops of the untiled op in its
    order, so its bits do not depend on the tiling.
    """
    B, n_q, S, hd = q.shape
    if k.ndim != 4 or k.shape != v.shape or k.shape[0] != B or k.shape[3] != hd:
        raise DimensionError(f"causal_gqa_attention: q {q.shape}, k {k.shape}, v {v.shape}")
    n_kv, total = k.shape[1], k.shape[2]
    if n_q % n_kv != 0 or S < 1 or offset < 0 or offset + S != total:
        raise DimensionError(
            f"causal_gqa_attention: {n_q} q heads over {n_kv} kv heads, "
            f"offset {offset} + {S} queries vs {total} keys")
    group = n_q // n_kv
    scale = q.data.dtype.type(1.0 / np.sqrt(hd))
    qs = q.data.reshape(B, n_kv, group, S, hd) * scale
    tiles = [(s0, min(s0 + _ATTN_TILE_ROWS, S)) for s0 in range(0, S, _ATTN_TILE_ROWS)]

    def rows(a: np.ndarray, s0: int, s1: int) -> np.ndarray:
        """A tile's query rows of a [B, Hkv, g, S, hd] array: [B, Hkv, g*n, hd]."""
        return a[:, :, :, s0:s1].reshape(B, n_kv, group * (s1 - s0), hd)

    out = np.empty_like(qs)
    probs = []
    for s0, s1 in tiles:
        n, seen = s1 - s0, offset + s1
        p = rows(qs, s0, s1) @ k.data[:, :, :seen].swapaxes(-1, -2)   # [B, Hkv, g*n, seen]
        np.copyto(p.reshape(B, n_kv, group, n, seen)[..., seen - n:], -np.inf,
                  where=_ATTN_HIDDEN[:n, :n])
        p -= p.max(axis=-1, keepdims=True)     # key 0 is always visible: finite
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        out[:, :, :, s0:s1] = (p @ v.data[:, :, :seen]).reshape(B, n_kv, group, n, hd)
        probs.append(p)

    def grads(g: np.ndarray) -> tuple[np.ndarray, ...]:
        go = g.reshape(qs.shape)
        dq = np.empty_like(qs)
        dk = dv = None
        # the last tile sees every key, so it sets dk and dv and the others add in
        for (s0, s1), p in zip(reversed(tiles), reversed(probs)):
            seen = offset + s1
            go_t, k_t, v_t = rows(go, s0, s1), k.data[:, :, :seen], v.data[:, :, :seen]
            dv_t = p.swapaxes(-1, -2) @ go_t
            ds = go_t @ v_t.swapaxes(-1, -2)
            ds -= (go_t * rows(out, s0, s1)).sum(axis=-1, keepdims=True)
            ds *= p
            np.multiply((ds @ k_t).reshape(B, n_kv, group, s1 - s0, hd), scale,
                        out=dq[:, :, :, s0:s1])
            dk_t = ds.swapaxes(-1, -2) @ rows(qs, s0, s1)
            if dk is None:
                dk, dv = dk_t, dv_t
            else:
                dk[:, :, :seen] += dk_t
                dv[:, :, :seen] += dv_t
        return dq.reshape(q.shape), dk, dv

    return _make_joint(out.reshape(q.shape), (q, k, v), grads)


def swiglu_mlp(x: Tensor, w1: Tensor, w2: Tensor, w3: Tensor) -> Tensor:
    """The SwiGLU MLP ``(silu(x @ w1) * (x @ w2)) @ w3`` on [N, d] rows.

    ``w1`` and ``w2`` are [d, H] and ``w3`` is [H, d_out].  The sigmoid is
    the overflow-safe two-branch form.  The node keeps ``x @ w1``, ``x @ w2``
    and the sigmoid; its backward recomputes the gated product from them.
    """
    if (x.ndim != 2 or w1.ndim != 2 or w1.shape != w2.shape or w3.ndim != 2
            or x.shape[1] != w1.shape[0] or w1.shape[1] != w3.shape[0]):
        raise DimensionError(
            f"swiglu_mlp: x {x.shape}, w1 {w1.shape}, w2 {w2.shape}, w3 {w3.shape}")
    h1 = x.data @ w1.data
    h2 = x.data @ w2.data
    ex = np.exp(-np.abs(h1))
    sig = np.where(h1 >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    out = (h1 * sig * h2) @ w3.data

    def grads(g: np.ndarray) -> tuple[np.ndarray, ...]:
        gate = h1 * sig
        dm = g @ w3.data.T
        dh2 = dm * gate
        dh1 = dm * h2
        dh1 *= sig * (1.0 + h1 * (1.0 - sig))
        dx = dh1 @ w1.data.T + dh2 @ w2.data.T
        return dx, x.data.T @ dh1, x.data.T @ dh2, (gate * h2).T @ g

    return _make_joint(out, (x, w1, w2, w3), grads)


def masked_pinball(q: Tensor, targets: np.ndarray, mask: np.ndarray,
                   levels: np.ndarray) -> Tensor:
    """Masked pinball loss ``sum(mask * rho_tau(y - q)) / (Q * sum(mask))``.

    ``q`` is [..., Q] (e.g. [N, P, Q]), ``targets`` and ``mask`` are q's
    shape without the Q axis, and ``levels`` holds the Q levels tau;
    ``rho_tau(u) = max(tau u, (tau - 1) u)``.  Targets under a zero mask
    are zeroed first, so a NaN there never enters.  An all-zero mask gives
    a constant 0.  The node saves the slope tau or tau - 1 that the max
    picked; the backward is ``-(g * scale * mask) * slope``.
    """
    dt = q.data.dtype
    targets = np.asarray(targets, dtype=dt)
    mask = np.asarray(mask, dtype=dt)
    levels = np.asarray(levels, dtype=dt)
    n_q = q.shape[-1] if q.ndim else 0
    if q.shape[:-1] != targets.shape or mask.shape != targets.shape or levels.shape != (n_q,):
        raise DimensionError(f"masked_pinball: q {q.shape}, targets {targets.shape}, "
                             f"mask {mask.shape}, levels {levels.shape}")
    n_valid = float(mask.sum())
    if n_valid == 0.0:
        return Tensor(np.zeros((), dtype=dt))
    scale = dt.type(1.0 / (n_q * n_valid))
    weight = mask[..., None]
    u = np.where(mask > 0, targets, 0.0)[..., None] - q.data
    lower = levels - 1.0
    rho = u * levels
    u *= lower
    take_tau = rho >= u
    np.copyto(rho, u, where=~take_tau)          # max(tau u, (tau - 1) u)
    slope = np.where(take_tau, levels, lower)
    rho *= weight
    loss = np.asarray(rho.sum() * scale)

    def bw(g: np.ndarray) -> np.ndarray:
        d = (g * scale * weight) * slope
        d += 0.0                                # -0 -> +0, so every zero negates to -0
        return np.negative(d, out=d)

    return _make(loss, [(q, bw)])


# ---------------------------------------------------------------------
# gradient checking oracle
# ---------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    n_checked: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def grad_check(
    f: Callable[[], Tensor],
    named_params: Sequence[tuple[str, Tensor]],
    h: float = 1e-5,
    tol: float = 1e-4,
    samples_per_param: int | None = None,
    rng: np.random.Generator | None = None,
    rel_floor: float = 1e-6,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``f`` re-evaluates the scalar objective from the params' current data,
    so it must not capture stale forward results.  Requires float64 params.
    """
    for name, p in named_params:
        if p.data.dtype != np.float64:
            raise NumericError(f"grad_check requires float64 params ({name} is {p.data.dtype})")
        p.grad = None
    out = f()
    if not np.isfinite(out.data).all():
        raise NumericError("objective is non-finite at the evaluation point")
    out.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in named_params}

    if rng is None:
        rng = np.random.default_rng(0)
    worst = ("", 0.0)
    n_checked = 0
    for name, p in named_params:
        flat = p.data.reshape(-1)
        if samples_per_param is None or samples_per_param >= flat.size:
            idxs = np.arange(flat.size)
        else:
            idxs = rng.choice(flat.size, size=samples_per_param, replace=False)
        a_flat = analytic[name].reshape(-1)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f().data)
            flat[i] = orig - h
            f_minus = float(f().data)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"objective non-finite while probing {name}[{i}]")
            fd = (f_plus - f_minus) / (2.0 * h)
            rel = abs(a_flat[i] - fd) / max(abs(a_flat[i]), abs(fd), rel_floor)
            n_checked += 1
            if rel > worst[1]:
                worst = (f"{name}[{int(i)}]", rel)
    return GradCheckReport(max_rel_err=worst[1], worst_param=worst[0], n_checked=n_checked, tol=tol)
