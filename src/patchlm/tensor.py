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

Two fused ops carry the hot paths of a train step:

* ``softcapped_cross_entropy`` -- the vocab head and its mean CE, worked
  through in row chunks so no [N, V] logit matrix enters the graph.  The
  loss is terminal, so the forward pass also computes the row and table
  gradients; its backward rules only scale them.
* ``causal_gqa_attention`` -- grouped-query causal attention with the mask
  and scale built in and no K/V copies.  Its backward reuses the saved
  probabilities and forms dS once per ``backward()`` call.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, DimensionError, NumericError

_FLOAT_DTYPES = (np.float32, np.float64)
_grad_enabled = True


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
# gradient contribution (same shape as the parent).
Rule = tuple["Tensor", Callable[[np.ndarray], np.ndarray]]


class Tensor:
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
        persist between calls.
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
                if not (parent.requires_grad or parent._rules):
                    continue
                contrib = fn(g)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contrib
                else:
                    grads[key] = contrib


def _make(data: np.ndarray, rules: Sequence[Rule]) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    live = _grad_enabled and any(p.requires_grad or p._rules for p, _ in rules)
    out.requires_grad = live
    out._rules = tuple(rules) if live else ()
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _make(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _make(a.data - b.data, [(a, lambda g: g), (b, lambda g: -g)])


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


def silu(a: Tensor) -> Tensor:
    ex = np.exp(-np.abs(a.data))  # overflow-safe sigmoid
    sig = np.where(a.data >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    y = a.data * sig
    return _make(y, [(a, lambda g: g * (sig * (1.0 + a.data * (1.0 - sig))))])


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


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offs = np.cumsum([0] + sizes)

    def rule_for(i: int, p: Tensor):
        sl = [slice(None)] * data.ndim
        sl[axis] = slice(int(offs[i]), int(offs[i + 1]))
        sl = tuple(sl)
        return (p, lambda g: np.ascontiguousarray(g[sl]))

    return _make(data, [rule_for(i, p) for i, p in enumerate(parts)])


def index(a: Tensor, key) -> Tensor:
    """Slicing/row selection; backward scatters into a zero buffer."""
    data = np.ascontiguousarray(a.data[key])
    fancy = any(isinstance(k, np.ndarray) for k in (key if isinstance(key, tuple) else (key,)))

    def bw(g):
        buf = np.zeros_like(a.data)
        if fancy:
            np.add.at(buf, key, g)  # duplicate indices must accumulate
        else:
            buf[key] += g
        return buf

    return _make(data, [(a, bw)])


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


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = int(np.prod([a.shape[ax] for ax in axes]))
    return mul_const(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


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

_CE_CHUNK_LOGITS = 1 << 20   # logits per softcapped_cross_entropy chunk


def _live(a: Tensor) -> bool:
    return _grad_enabled and (a.requires_grad or bool(a._rules))


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
    """
    n, d = rows.shape
    if table.ndim != 2 or table.shape[1] != d:
        raise DimensionError(f"softcapped_cross_entropy: table {table.shape} vs rows {rows.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    if n == 0 or targets.shape != (n,):
        raise DimensionError("softcapped_cross_entropy needs one target id per row, N >= 1")
    w = table.data
    need_rows, need_table = _live(rows), _live(table)
    d_rows = np.empty_like(rows.data) if need_rows else None
    d_table = np.zeros_like(w) if need_table else None
    chunk = max(1, _CE_CHUNK_LOGITS // w.shape[0])
    total = 0.0
    for start in range(0, n, chunk):
        r = rows.data[start:start + chunk]
        tgt = targets[start:start + chunk]
        pick = np.arange(len(tgt))
        th = (r * r.dtype.type(1.0 / alpha)) @ w.T
        np.tanh(th, out=th)
        e = th - 1.0
        e *= alpha                                   # capped logit - alpha
        total -= float(e[pick, tgt].sum(dtype=np.float64))
        np.exp(e, out=e)
        sumexp = e.sum(axis=1, keepdims=True)
        total += float(np.log(sumexp).sum(dtype=np.float64))
        if need_rows or need_table:
            e /= sumexp                              # softmax
            e[pick, tgt] -= 1.0                      # d CE / d capped logit
            th *= th
            np.subtract(1.0, th, out=th)             # d capped logit / d raw logit
            e *= th
            if need_rows:
                d_rows[start:start + chunk] = e @ w
            if need_table:
                d_table += e.T @ r
    inv_n = 1.0 / n
    if need_rows:
        d_rows *= inv_n
    if need_table:
        d_table *= inv_n
    loss = np.asarray(total * inv_n, dtype=rows.data.dtype)
    # g is 0-d; as a Python float it keeps the gradients in the rows' dtype
    return _make(loss, [(rows, lambda g: float(g) * d_rows),
                        (table, lambda g: float(g) * d_table)])


def causal_gqa_attention(q: Tensor, k: Tensor, v: Tensor, offset: int) -> Tensor:
    """Causal grouped-query attention ``softmax(q k^T / sqrt(hd) + mask) v``.

    ``q`` is [B, Hq, S, hd] at positions offset..offset+S-1; ``k`` and ``v``
    are [B, Hkv, offset+S, hd].  Query head h reads kv head h // (Hq/Hkv),
    so q is regrouped to [B, Hkv, g*S, hd] and K/V are never copied.  The
    causal mask and the 1/sqrt(hd) scale are applied here.  The backward
    reuses the saved probabilities and forms dS once per ``backward()``
    call; the q, k and v rules share it.
    """
    B, n_q, S, hd = q.shape
    if k.ndim != 4 or k.shape != v.shape or k.shape[0] != B or k.shape[3] != hd:
        raise DimensionError(f"causal_gqa_attention: q {q.shape}, k {k.shape}, v {v.shape}")
    n_kv, total = k.shape[1], k.shape[2]
    if n_q % n_kv != 0 or offset < 0 or offset + S != total:
        raise DimensionError(
            f"causal_gqa_attention: {n_q} q heads over {n_kv} kv heads, "
            f"offset {offset} + {S} queries vs {total} keys")
    group = n_q // n_kv
    scale = q.data.dtype.type(1.0 / np.sqrt(hd))
    qs = q.data.reshape(B, n_kv, group * S, hd) * scale
    hidden = np.arange(total)[None, :] > (offset + np.arange(S))[:, None]
    p = qs @ k.data.swapaxes(-1, -2)                          # [B, Hkv, g*S, T]
    np.copyto(p, -np.inf, where=np.tile(hidden, (group, 1)))
    p -= p.max(axis=-1, keepdims=True)         # key 0 is always visible: finite
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = p @ v.data                                          # [B, Hkv, g*S, hd]
    shared: dict = {}

    def grad(name: str, g: np.ndarray) -> np.ndarray:
        # one dS per backward() call; each rule pops its own result once
        if shared.get("g") is not g or name not in shared:
            go = g.reshape(out.shape)
            dv = p.swapaxes(-1, -2) @ go
            ds = go @ v.data.swapaxes(-1, -2)
            ds -= (go * out).sum(axis=-1, keepdims=True)
            ds *= p
            dq = (ds @ k.data) * scale
            shared.clear()
            shared.update(g=g, q=dq.reshape(q.shape), k=ds.swapaxes(-1, -2) @ qs, v=dv)
        return shared.pop(name)

    return _make(out.reshape(q.shape), [
        (q, lambda g: grad("q", g)),
        (k, lambda g: grad("k", g)),
        (v, lambda g: grad("v", g)),
    ])


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
