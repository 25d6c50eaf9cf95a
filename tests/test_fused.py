"""Fused ops against the unfused compositions they replace.

The oracles below are generic-op chains: tied matmul -> soft cap ->
log-softmax -> gather for the vocab head, repeated K/V -> scaled scores ->
causal mask -> softmax -> weighted values for attention, one [hd, hd]
matrix of 2x2 rotation blocks per position for RoPE, three matmuls
around a tanh-form sigmoid for the SwiGLU MLP, and for the masked pinball
loss the eight-node chain ``losses.masked_quantile_loss`` used to build.
The tiled attention op is also checked against the untiled op it
replaced, which scored every query row against all keys under one mask,
and the vocab CE against its serial chunk loop from before its chunks
went to worker threads, whose loss and gradient bytes it must equal.
"""

import gc
import math
import sys
import warnings
import weakref

import numpy as np
import pytest

from patchlm import codec, data, training
from patchlm import losses as L
from patchlm import model as M
from patchlm import tensor as T
from patchlm.errors import DimensionError
from patchlm.tensor import Tensor


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def ce_oracle(rows, table, targets, alpha):
    logits = T.matmul(rows, T.transpose(table, (1, 0)))
    capped = M.soft_cap(logits, alpha)
    picked = T.gather_values(T.log_softmax(capped), targets)
    return T.mul_const(T.tsum(picked), -1.0 / len(targets))


def attention_oracle(q, k, v, offset):
    _, n_q, S, hd = q.shape
    n_kv, total = k.shape[1], k.shape[2]
    heads = np.repeat(np.arange(n_kv), n_q // n_kv)       # K/V copied per query head
    k_exp, v_exp = (T.transpose(T.gather_rows(T.transpose(t, (1, 0, 2, 3)), heads),
                                (1, 0, 2, 3)) for t in (k, v))
    scores = T.mul_const(T.matmul(q, T.transpose(k_exp, (0, 1, 3, 2))), 1.0 / math.sqrt(hd))
    hidden = np.arange(total)[None, :] > (offset + np.arange(S))[:, None]
    masked = T.add_const(scores, np.where(hidden, -np.inf, 0.0))
    att = T.texp(T.log_softmax(masked))
    return T.matmul(att, v_exp)


def full_attention_oracle(q, k, v, offset):
    """The untiled op: all g*S query rows of a group score all T keys under
    one [g*S, T] causal mask, and the backward reuses all S x T probabilities."""
    B, n_q, S, hd = q.shape
    n_kv, total = k.shape[1], k.shape[2]
    group = n_q // n_kv
    scale = q.data.dtype.type(1.0 / np.sqrt(hd))
    qs = q.data.reshape(B, n_kv, group * S, hd) * scale
    hidden = np.arange(total)[None, :] > (offset + np.arange(S))[:, None]
    p = qs @ k.data.swapaxes(-1, -2)                          # [B, Hkv, g*S, T]
    np.copyto(p, -np.inf, where=np.tile(hidden, (group, 1)))
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = p @ v.data                                          # [B, Hkv, g*S, hd]

    def grads(g):
        go = g.reshape(out.shape)
        dv = p.swapaxes(-1, -2) @ go
        ds = go @ v.data.swapaxes(-1, -2)
        ds -= (go * out).sum(axis=-1, keepdims=True)
        ds *= p
        dq = (ds @ k.data) * scale
        return dq.reshape(q.shape), ds.swapaxes(-1, -2) @ qs, dv

    return T._make_joint(out.reshape(q.shape), (q, k, v), grads)


def rope_oracle(x, cos, sin):
    """x[..., s, :] @ R_s, with R_s rotating each (j, j + hd/2) pair."""
    B, H, S, hd = x.shape
    half = hd // 2
    j = np.arange(half)
    rot = np.zeros((S, hd, hd))
    rot[:, j, j] = rot[:, j + half, j + half] = cos
    rot[:, j, j + half] = sin
    rot[:, j + half, j] = -sin
    rows = T.reshape(T.transpose(x, (2, 0, 1, 3)), (S, B * H, hd))
    turned = T.reshape(T.matmul(rows, Tensor(rot)), (S, B, H, hd))
    return T.transpose(turned, (1, 2, 0, 3))


def swiglu_oracle(x, w1, w2, w3):
    """(h1 * sigmoid(h1) * (x @ w2)) @ w3, h1 = x @ w1, sigmoid(z) = (1 + tanh(z / 2)) / 2."""
    h1 = T.matmul(x, w1)
    sig = T.add_const(T.mul_const(T.tanh(T.mul_const(h1, 0.5)), 0.5), 0.5)
    return T.matmul(T.mul(T.mul(h1, sig), T.matmul(x, w2)), w3)


def pinball_oracle(q, targets, mask, levels):
    """(q * -1) + y, then max(tau u, (tau - 1) u), * mask, sum, * 1 / (Q sum(mask))."""
    dt = q.data.dtype
    mask = np.asarray(mask, dtype=dt)
    levels = np.asarray(levels, dtype=dt)
    y = np.where(mask > 0, np.asarray(targets, dtype=dt), 0.0)[..., None]
    u = T.add_const(T.mul_const(q, -1.0), y)
    rho = T.maximum(T.mul_const(u, levels), T.mul_const(u, levels - 1.0))
    total = T.tsum(T.mul_const(rho, mask[..., None]))
    return T.mul_const(total, 1.0 / (q.shape[-1] * float(mask.sum())))


def leaf_grads(loss, leaves):
    for x in leaves:
        x.grad = None
    loss.backward()
    return [x.grad.copy() for x in leaves]


def assert_fd(make_loss, params, tol=1e-4):
    report = T.grad_check(make_loss, params, tol=tol, samples_per_param=6,
                          rng=np.random.default_rng(0))
    assert report.passed, f"{report.worst_param}: rel err {report.max_rel_err:.3g}"


# ---------------------------------------------------------------------
# softcapped_cross_entropy
# ---------------------------------------------------------------------

VOCAB = 4096
CHUNK = T._CE_CHUNK_LOGITS // VOCAB


def ce_case(n, seed, repeated=False, d=8):
    rng = np.random.default_rng(seed)
    rows = t64(rng.normal(size=(n, d)))
    table = t64(rng.normal(size=(VOCAB, d)) * 2.0)
    targets = (np.full(n, 7) if repeated else rng.integers(0, VOCAB, n))
    return rows, table, targets


@pytest.mark.parametrize("n,repeated", [(CHUNK - 5, False), (CHUNK, False),
                                        (2 * CHUNK + 3, False), (CHUNK + 9, True)])
def test_ce_matches_oracle_around_chunk_boundaries(n, repeated):
    rows, table, targets = ce_case(n, seed=n, repeated=repeated)
    fused = T.softcapped_cross_entropy(rows, table, targets, 15.0)
    oracle = ce_oracle(rows, table, targets, 15.0)
    assert abs(fused.item() - oracle.item()) <= 1e-12
    got = leaf_grads(fused, [rows, table])
    want = leaf_grads(oracle, [rows, table])
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-12


@pytest.mark.parametrize("n,repeated", [(CHUNK - 5, False), (2 * CHUNK + 3, False),
                                        (CHUNK + 9, True)])
def test_ce_grad_check(n, repeated):
    rows, table, targets = ce_case(n, seed=n + 1, repeated=repeated)
    assert_fd(lambda: T.softcapped_cross_entropy(rows, table, targets, 15.0),
              [("rows", rows), ("table", table)])


def test_lm_loss_matches_text_logits_chain():
    cfg = M.ModelConfig(n_layers=1, d_model=8, n_q_heads=2, n_kv_heads=1, head_dim=4,
                        patch_len=2, n_quantiles=3, vocab_size=300, max_seq=16)
    params = M.init_params(cfg, seed=4, dtype=np.float64)
    rng = np.random.default_rng(5)
    head = "tok_emb"
    params[head].data[:] = rng.normal(0, 1.5, size=params[head].shape)
    rows = t64(rng.normal(size=(23, cfg.d_model)))
    targets = rng.integers(0, cfg.vocab_size, 23)

    def oracle():
        logp = T.log_softmax(M.text_logits(params, rows))
        return T.mul_const(T.tsum(T.gather_values(logp, targets)), -1.0 / len(targets))

    fused, n = L.lm_loss(params, rows, targets)
    assert n == 23
    want = oracle()
    assert abs(fused.item() - want.item()) <= 1e-12
    leaves = [rows, params[head]]
    for a, b in zip(leaf_grads(fused, leaves), leaf_grads(want, leaves)):
        assert np.abs(a - b).max() <= 1e-12
    assert_fd(lambda: L.lm_loss(params, rows, targets)[0],
              [("rows", rows), (head, params[head])])


def test_ce_float32_close_to_oracle():
    rows, table, targets = ce_case(CHUNK + 40, seed=6)
    rows32 = Tensor(rows.data.astype(np.float32), requires_grad=True)
    table32 = Tensor(table.data.astype(np.float32), requires_grad=True)
    fused = T.softcapped_cross_entropy(rows32, table32, targets, 15.0)
    assert fused.data.dtype == np.float32
    assert fused.item() == pytest.approx(ce_oracle(rows, table, targets, 15.0).item(), rel=1e-5)


def test_ce_backward_twice_accumulates_exactly_double():
    rows, table, targets = ce_case(CHUNK + 2, seed=7)
    loss = T.softcapped_cross_entropy(rows, table, targets, 15.0)
    loss.backward()
    once = rows.grad.copy(), table.grad.copy()
    loss.backward()
    assert np.array_equal(rows.grad, 2.0 * once[0])
    assert np.array_equal(table.grad, 2.0 * once[1])


def test_ce_no_grad_builds_no_graph():
    rows, table, targets = ce_case(10, seed=8)
    with T.no_grad():
        loss = T.softcapped_cross_entropy(rows, table, targets, 15.0)
    assert not loss.requires_grad and loss._rules == ()
    assert loss.item() == pytest.approx(ce_oracle(rows, table, targets, 15.0).item(), abs=1e-12)


def test_ce_rejects_bad_shapes():
    rows, table, targets = ce_case(4, seed=9)
    with pytest.raises(DimensionError):
        T.softcapped_cross_entropy(rows, table, targets[:3], 15.0)
    with pytest.raises(DimensionError):
        T.softcapped_cross_entropy(rows, T.transpose(table, (1, 0)), targets, 15.0)


def serial_ce_reference(rows, table, targets, alpha, grads=True):
    """The op's serial chunk loop as it was before its chunks went to worker
    threads and its passes to row blocks: (loss, d rows, d table) arrays from
    [N, d] rows and a [V, d] table, with no gradients when ``grads`` is off."""
    w = table
    n = len(rows)
    d_rows = np.empty_like(rows) if grads else None
    d_table = np.zeros_like(w) if grads else None
    chunk = max(1, T._CE_CHUNK_LOGITS // w.shape[0])
    total = 0.0
    for start in range(0, n, chunk):
        r = rows[start:start + chunk]
        tgt = targets[start:start + chunk]
        pick = np.arange(len(tgt))
        th = (r * r.dtype.type(1.0 / alpha)) @ w.T
        np.tanh(th, out=th)
        e = th - 1.0
        e *= alpha
        total -= float(e[pick, tgt].sum(dtype=np.float64))
        np.exp(e, out=e)
        sumexp = e.sum(axis=1, keepdims=True)
        total += float(np.log(sumexp).sum(dtype=np.float64))
        if grads:
            e /= sumexp
            e[pick, tgt] -= 1.0
            th *= th
            np.subtract(1.0, th, out=th)
            e *= th
            d_rows[start:start + chunk] = e @ w
            d_table += e.T @ r
    inv_n = 1.0 / n
    if grads:
        d_rows *= inv_n
        d_table *= inv_n
    return np.asarray(total * inv_n, dtype=rows.dtype), d_rows, d_table


def fused_ce_bytes(rows, table, targets):
    """The op's loss and, when a graph is built, its raw d rows and d table
    (each backward rule at an upstream 1.0), as bytes."""
    loss = T.softcapped_cross_entropy(Tensor(rows, requires_grad=True),
                                      Tensor(table, requires_grad=True), targets, 15.0)
    return [loss.data.tobytes()] + [fn(np.asarray(1.0)).tobytes() for _, fn in loss._rules]


def vocab_case(n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, 64)).astype(np.float32)
    table = (rng.normal(size=(VOCAB, 64)) * 0.8).astype(np.float32)
    return rows, table, rng.integers(0, VOCAB, n)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [1024, 1000, 1025])
def test_ce_bytes_equal_the_serial_loop_at_any_worker_count(monkeypatch, n, workers):
    monkeypatch.setattr(T, "_CE_WORKERS", workers)
    monkeypatch.setattr(T, "_ce_pool", None)     # this test's own pool of that size
    rows, table, targets = vocab_case(n, seed=n + workers)
    want = [a.tobytes() for a in serial_ce_reference(rows, table, targets, 15.0)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)      # hand the GIL between the workers as often as it can
    try:
        got = fused_ce_bytes(rows, table, targets)
    finally:
        sys.setswitchinterval(interval)
        T._ce_pool.shutdown()
    assert got == want


def test_ce_no_grad_bytes_equal_the_serial_loop():
    rows, table, targets = vocab_case(1025, seed=11)
    want, _, _ = serial_ce_reference(rows, table, targets, 15.0, grads=False)
    with T.no_grad():
        got = fused_ce_bytes(rows, table, targets)
    assert got == [want.tobytes()]


def test_ce_out_of_range_target_raises_and_the_next_call_is_exact():
    rows, table, targets = vocab_case(1025, seed=12)
    bad = targets.copy()
    bad[700] = VOCAB                 # in the third of five chunks
    with pytest.raises(IndexError):
        serial_ce_reference(rows, table, bad, 15.0)
    with pytest.raises(IndexError):
        fused_ce_bytes(rows, table, bad)
    want = [a.tobytes() for a in serial_ce_reference(rows, table, targets, 15.0)]
    assert fused_ce_bytes(rows, table, targets) == want


# ---------------------------------------------------------------------
# causal_gqa_attention
# ---------------------------------------------------------------------

def attn_case(seed, S, offset, B=2, n_q=4, n_kv=2, hd=4):
    rng = np.random.default_rng(seed)
    q = t64(rng.normal(size=(B, n_q, S, hd)))
    k = t64(rng.normal(size=(B, n_kv, offset + S, hd)))
    v = t64(rng.normal(size=(B, n_kv, offset + S, hd)))
    probe = Tensor(rng.normal(size=(B, n_q, S, hd)))
    return q, k, v, probe


ATTN_CASES = [(5, 0), (1, 6), (3, 4)]   # (S, offset): training, decode, chunked prefill


@pytest.mark.parametrize("S,offset", ATTN_CASES)
def test_attention_matches_oracle(S, offset):
    q, k, v, probe = attn_case(11, S, offset)
    fused = T.causal_gqa_attention(q, k, v, offset)
    oracle = attention_oracle(q, k, v, offset)
    assert np.abs(fused.data - oracle.data).max() <= 1e-12
    leaves = [q, k, v]
    got = leaf_grads(T.tsum(T.mul(fused, probe)), leaves)
    want = leaf_grads(T.tsum(T.mul(oracle, probe)), leaves)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-12


@pytest.mark.parametrize("S,offset", ATTN_CASES)
def test_attention_grad_check(S, offset):
    q, k, v, probe = attn_case(12, S, offset)
    assert_fd(lambda: T.tsum(T.mul(T.causal_gqa_attention(q, k, v, offset), probe)),
              [("q", q), ("k", k), ("v", v)])


def test_attention_masks_future_keys():
    # later keys get exactly zero weight, and the weights of each row sum to 1
    q, k, v, _ = attn_case(13, 4, 0)
    base = T.causal_gqa_attention(q, k, v, 0).data
    k2, v2 = k.data.copy(), v.data.copy()
    k2[:, :, 2:] = 50.0
    v2[:, :, 2:] = -7.0
    bumped = T.causal_gqa_attention(q, Tensor(k2), Tensor(v2), 0).data
    assert bumped[:, :, :2].tobytes() == base[:, :, :2].tobytes()
    ones = T.causal_gqa_attention(q, k, Tensor(np.ones(v.shape)), 0).data
    assert np.allclose(ones, 1.0, atol=1e-12)


def check_second_backward_sees_fresh_gradient(seed, S, offset):
    q, k, v, probe = attn_case(seed, S, offset)
    other = Tensor(np.random.default_rng(seed + 1).normal(size=probe.shape))
    out = T.causal_gqa_attention(q, k, v, offset)
    first = leaf_grads(T.tsum(T.mul(out, probe)), [q, k, v])
    second = leaf_grads(T.tsum(T.mul(out, other)), [q, k, v])
    oracle = attention_oracle(q, k, v, offset)
    want = leaf_grads(T.tsum(T.mul(oracle, other)), [q, k, v])
    for a, b, c in zip(second, want, first):
        assert np.abs(a - b).max() <= 1e-12
        assert not np.allclose(a, c)


def check_backward_twice_accumulates_exactly_double(seed, S, offset):
    q, k, v, probe = attn_case(seed, S, offset)
    loss = T.tsum(T.mul(T.causal_gqa_attention(q, k, v, offset), probe))
    loss.backward()
    once = [x.grad.copy() for x in (q, k, v)]
    loss.backward()
    for x, g in zip((q, k, v), once):
        assert np.array_equal(x.grad, 2.0 * g)


def test_attention_second_backward_sees_fresh_gradient():
    check_second_backward_sees_fresh_gradient(14, 3, 2)


def test_attention_backward_twice_accumulates_exactly_double():
    check_backward_twice_accumulates_exactly_double(16, 4, 0)


# (S, offset) across the 128-row query tiles: one row, one row short of a
# tile, one tile, one row over, two tiles and a part, and a prefill chunk
# after 37 cached keys whose queries straddle the first tile edge
TILE_CASES = [(1, 0), (127, 0), (128, 0), (129, 0), (300, 0), (150, 37)]
MULTI_TILE_CASES = [(129, 0), (150, 37)]


def raw_grads(out, g):
    """The gradients the op's rules hand q, k and v for the output gradient g."""
    return [fn(g) for _, fn in out._rules]


@pytest.mark.parametrize("S,offset", TILE_CASES)
def test_tiled_attention_matches_the_untiled_op(S, offset):
    q, k, v, probe = attn_case(19, S, offset, hd=8)
    tiled = T.causal_gqa_attention(q, k, v, offset)
    full = full_attention_oracle(q, k, v, offset)
    assert np.abs(tiled.data - full.data).max() <= 1e-12
    for a, b in zip(raw_grads(tiled, probe.data), raw_grads(full, probe.data)):
        assert np.abs(a - b).max() <= 1e-12


def test_attention_float32_bytes_equal_the_untiled_op_within_one_tile():
    # every pass of at most 128 queries (all of criterion 8's runs, every
    # decode step) keeps the untiled op's bytes, output and gradients alike
    rng = np.random.default_rng(20)
    for S, offset in [(S, 0) for S in range(1, 129)] + [(1, 200), (40, 37), (128, 300)]:
        q, k, v = (Tensor(rng.normal(size=(2, heads, n, 16)).astype(np.float32),
                          requires_grad=True)
                   for heads, n in ((4, S), (2, offset + S), (2, offset + S)))
        g = rng.normal(size=q.shape).astype(np.float32)
        tiled = T.causal_gqa_attention(q, k, v, offset)
        full = full_attention_oracle(q, k, v, offset)
        assert tiled.data.tobytes() == full.data.tobytes(), (S, offset)
        for a, b in zip(raw_grads(tiled, g), raw_grads(full, g)):
            assert a.dtype == b.dtype == np.float32
            assert a.tobytes() == b.tobytes(), (S, offset)


@pytest.mark.parametrize("S,offset", MULTI_TILE_CASES)
def test_attention_grad_check_across_tiles(S, offset):
    q, k, v, probe = attn_case(21, S, offset)
    assert_fd(lambda: T.tsum(T.mul(T.causal_gqa_attention(q, k, v, offset), probe)),
              [("q", q), ("k", k), ("v", v)])


@pytest.mark.parametrize("S,offset", MULTI_TILE_CASES)
def test_attention_second_backward_across_tiles(S, offset):
    check_second_backward_sees_fresh_gradient(22, S, offset)


@pytest.mark.parametrize("S,offset", MULTI_TILE_CASES)
def test_attention_backward_twice_across_tiles(S, offset):
    check_backward_twice_accumulates_exactly_double(24, S, offset)


def test_attention_no_grad_builds_no_graph():
    q, k, v, _ = attn_case(17, 2, 3)
    with T.no_grad():
        out = T.causal_gqa_attention(q, k, v, 3)
    assert not out.requires_grad and out._rules == ()
    assert np.abs(out.data - attention_oracle(q, k, v, 3).data).max() <= 1e-12


def test_attention_rejects_bad_shapes():
    q, k, v, _ = attn_case(18, 3, 0)
    with pytest.raises(DimensionError):
        T.causal_gqa_attention(q, k, v, 1)          # offset + S must equal key count
    with pytest.raises(DimensionError):
        T.causal_gqa_attention(q, k, Tensor(v.data[:, :1]), 0)
    with pytest.raises(DimensionError):                # no queries
        T.causal_gqa_attention(Tensor(q.data[:, :, :0]), k, v, 3)


# ---------------------------------------------------------------------
# rope
# ---------------------------------------------------------------------

# (heads, S, hd, offset): GQA q heads and kv heads of one layer, and the
# S=1 decode step at an offset position with hd=2
ROPE_CASES = [(4, 5, 8, 0), (2, 5, 8, 0), (1, 1, 2, 7), (3, 6, 16, 3)]


def rope_case(seed, heads, S, hd, offset):
    rng = np.random.default_rng(seed)
    x = t64(rng.normal(size=(2, heads, S, hd)))
    cos, sin = M.rope_tables(np.arange(offset, offset + S), hd, 50.0, np.float64)
    probe = Tensor(rng.normal(size=x.shape))
    return x, cos, sin, probe


@pytest.mark.parametrize("heads,S,hd,offset", ROPE_CASES)
def test_rope_matches_rotation_matrix_oracle(heads, S, hd, offset):
    x, cos, sin, probe = rope_case(20, heads, S, hd, offset)
    fused = T.rope(x, cos, sin)
    oracle = rope_oracle(x, cos, sin)
    assert np.abs(fused.data - oracle.data).max() <= 1e-12
    got = leaf_grads(T.tsum(T.mul(fused, probe)), [x])[0]
    want = leaf_grads(T.tsum(T.mul(oracle, probe)), [x])[0]
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("heads,S,hd,offset", ROPE_CASES)
def test_rope_grad_check(heads, S, hd, offset):
    x, cos, sin, probe = rope_case(21, heads, S, hd, offset)
    assert_fd(lambda: T.tsum(T.mul(T.mul(T.rope(x, cos, sin), T.rope(x, cos, sin)), probe)),
              [("x", x)])


def test_rope_is_one_node():
    x, _, _, _ = rope_case(22, 2, 3, 4, 0)
    out = T.rope(x, *M.rope_tables(np.arange(3), 4, 5e5, x.data.dtype))
    assert len(out._rules) == 1 and out._rules[0][0] is x


def test_rope_rejects_bad_tables():
    x, cos, sin, _ = rope_case(23, 2, 3, 4, 0)
    with pytest.raises(DimensionError):
        T.rope(x, cos[:2], sin[:2])                  # one angle row per position
    with pytest.raises(DimensionError):
        T.rope(x, cos, np.zeros((3, 3)))             # hd/2 + 1 angles per position
    with pytest.raises(DimensionError):
        T.rope(Tensor(np.ones((1, 1, 3, 3))), cos[:, :1], sin[:, :1])   # odd head dim


# ---------------------------------------------------------------------
# swiglu_mlp
# ---------------------------------------------------------------------

# (N, d, H, d_out): one row, odd row counts, odd hidden and output sizes
SWIGLU_CASES = [(1, 4, 6, 4), (7, 5, 9, 5), (5, 3, 7, 2)]


def swiglu_case(seed, N, d, H, d_out):
    rng = np.random.default_rng(seed)
    x = t64(rng.normal(size=(N, d)))
    w1, w2 = t64(rng.normal(size=(d, H))), t64(rng.normal(size=(d, H)))
    w3 = t64(rng.normal(size=(H, d_out)))
    probe = Tensor(rng.normal(size=(N, d_out)))
    return x, w1, w2, w3, probe


@pytest.mark.parametrize("N,d,H,d_out", SWIGLU_CASES)
def test_swiglu_matches_oracle(N, d, H, d_out):
    x, w1, w2, w3, probe = swiglu_case(30, N, d, H, d_out)
    fused = T.swiglu_mlp(x, w1, w2, w3)
    oracle = swiglu_oracle(x, w1, w2, w3)
    assert np.abs(fused.data - oracle.data).max() <= 1e-12
    leaves = [x, w1, w2, w3]
    got = leaf_grads(T.tsum(T.mul(fused, probe)), leaves)
    want = leaf_grads(T.tsum(T.mul(oracle, probe)), leaves)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-12


@pytest.mark.parametrize("N,d,H,d_out", SWIGLU_CASES)
def test_swiglu_grad_check(N, d, H, d_out):
    x, w1, w2, w3, probe = swiglu_case(31, N, d, H, d_out)
    assert_fd(lambda: T.tsum(T.mul(T.swiglu_mlp(x, w1, w2, w3), probe)),
              [("x", x), ("w1", w1), ("w2", w2), ("w3", w3)])


def test_swiglu_backward_twice_accumulates_exactly_double():
    x, w1, w2, w3, probe = swiglu_case(32, 5, 4, 6, 4)
    loss = T.tsum(T.mul(T.swiglu_mlp(x, w1, w2, w3), probe))
    loss.backward()
    once = [t.grad.copy() for t in (x, w1, w2, w3)]
    loss.backward()
    for t, g in zip((x, w1, w2, w3), once):
        assert np.array_equal(t.grad, 2.0 * g)


def test_swiglu_second_backward_sees_fresh_gradient():
    x, w1, w2, w3, probe = swiglu_case(33, 3, 4, 6, 4)
    other = Tensor(np.random.default_rng(34).normal(size=probe.shape))
    leaves = [x, w1, w2, w3]
    out = T.swiglu_mlp(x, w1, w2, w3)
    first = leaf_grads(T.tsum(T.mul(out, probe)), leaves)
    second = leaf_grads(T.tsum(T.mul(out, other)), leaves)
    want = leaf_grads(T.tsum(T.mul(swiglu_oracle(x, w1, w2, w3), other)), leaves)
    for a, b, c in zip(second, want, first):
        assert np.abs(a - b).max() <= 1e-12
        assert not np.allclose(a, c)


def test_swiglu_no_grad_builds_no_graph():
    x, w1, w2, w3, _ = swiglu_case(35, 4, 4, 6, 4)
    with T.no_grad():
        out = T.swiglu_mlp(x, w1, w2, w3)
    assert not out.requires_grad and out._rules == ()
    assert np.abs(out.data - swiglu_oracle(x, w1, w2, w3).data).max() <= 1e-12


def test_swiglu_rejects_bad_shapes():
    x, w1, w2, w3, _ = swiglu_case(36, 3, 4, 6, 4)
    with pytest.raises(DimensionError):
        T.swiglu_mlp(T.reshape(x, (1, 3, 4)), w1, w2, w3)       # rows must be 2-D
    with pytest.raises(DimensionError):
        T.swiglu_mlp(x, w1, Tensor(w2.data[:, :5]), w3)         # w1 and w2 differ
    with pytest.raises(DimensionError):
        T.swiglu_mlp(x, w1, w2, Tensor(w3.data[:5]))            # hidden size vs w3
    with pytest.raises(DimensionError):
        T.swiglu_mlp(x, T.transpose(w1, (1, 0)), w2, w3)        # inner extents


def test_swiglu_extreme_preactivations_stay_finite_float32():
    # x @ w1 holds +-100 (and +-0.5); the two-branch sigmoid never overflows
    x = Tensor(np.array([[1.0], [-1.0]], dtype=np.float32), requires_grad=True)
    w1 = Tensor(np.array([[100.0, -100.0, 0.5]], dtype=np.float32), requires_grad=True)
    w2 = Tensor(np.ones((1, 3), dtype=np.float32), requires_grad=True)
    w3 = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.swiglu_mlp(x, w1, w2, w3)
        T.tsum(out).backward()
    assert out.data.dtype == np.float32 and np.isfinite(out.data).all()
    for t in (x, w1, w2, w3):
        assert t.grad.dtype == np.float32 and np.isfinite(t.grad).all()
    # row 0: silu(100) + silu(-100) + silu(0.5) with silu(100) = 100, silu(-100) ~ 0
    assert out.data[0, 0] == pytest.approx(100.0 + 0.5 / (1 + math.exp(-0.5)), rel=1e-6)


def test_joint_node_computes_all_gradients_once_per_backward():
    a, b, c = t64([1.0, 2.0]), t64([3.0, 4.0]), t64([5.0, 6.0], grad=False)
    made = []

    def grads(g):
        out = g * 2.0, g * 3.0, g * 4.0
        made.extend(weakref.ref(d) for d in (g,) + out)
        return out

    loss = T.tsum(T._make_joint(a.data + b.data + c.data, (a, b, c), grads))
    loss.backward()
    loss.backward()
    gc.collect()
    assert len(made) == 8                       # one grads call per backward()
    assert np.array_equal(a.grad, [4.0, 4.0]) and np.array_equal(b.grad, [6.0, 6.0])
    assert c.grad is None
    # the graph is alive, yet it holds no gradient of either call
    assert all(ref() is None for ref in made)


def test_joint_node_recomputes_after_an_interrupted_backward():
    a, b = t64([1.0, 2.0]), t64([3.0, 4.0])
    calls = []

    def grads(g):
        # the first call hands a a wrongly shaped share, so that sweep fails
        # after the joint node gave out a's share and before b's
        calls.append(g)
        return (np.ones(3) if len(calls) == 1 else g * b.data), g * a.data

    out = T._make_joint(a.data * b.data, (a, b), grads)
    with pytest.raises(DimensionError):
        T.tsum(out).backward()
    probe = Tensor(np.array([10.0, 100.0]))
    a.grad = b.grad = None
    T.tsum(T.mul(out, probe)).backward()
    assert np.array_equal(b.grad, probe.data * a.data)


def test_block_forward_builds_one_swiglu_node_per_layer():
    cfg = M.ModelConfig(n_layers=2, d_model=8, n_q_heads=2, n_kv_heads=1, head_dim=4,
                        patch_len=2, n_quantiles=3, vocab_size=32, max_seq=16)
    params = M.init_params(cfg, seed=37, dtype=np.float64)
    hidden = M.forward_hidden(params, cfg, M.Inputs(np.array([[1, 5, 9, 2, 7]])))
    nodes, stack = {}, [hidden]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(parent for parent, _ in node._rules)
    for layer in range(cfg.n_layers):
        weights = [params[f"blocks.{layer}.{name}"] for name in ("w1", "w2", "w3")]
        users = [node for node in nodes.values()
                 if any(parent is w for parent, _ in node._rules for w in weights)]
        assert len(users) == 1
        parents = [parent for parent, _ in users[0]._rules]
        assert len(parents) == 4 and all(p is w for p, w in zip(parents[1:], weights))


# ---------------------------------------------------------------------
# masked_pinball
# ---------------------------------------------------------------------

# (N, Q) with P = 4: one row, an odd row count, one level and the default 21
PINBALL_CASES = [(1, 1), (1, 21), (7, 1), (7, 21)]


def pinball_case(seed, N, Q, P=4, dtype=np.float32):
    """A partial mask with NaN targets under it, and an exact tie (u = 0)."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(N, P, Q)).astype(dtype)
    targets = rng.normal(size=(N, P)).astype(dtype)
    mask = (rng.random((N, P)) < 0.6).astype(dtype)
    mask[0, :2] = 1.0
    mask[-1, -1] = 0.0
    targets[0, 0] = q[0, 0, Q // 2]
    targets[mask == 0] = np.nan
    return q, targets, mask, L.quantile_levels(Q)


def raw_q_grad(make_loss, q_data, w_ts=2.5):
    """The loss and the gradient that reaches q when the loss enters
    ``combined_loss`` at weight ``w_ts``, read before a leaf's ``.grad +=``
    can turn -0 into +0."""
    reached = []

    def catch(g):
        reached.append(g.copy())
        return g

    q = T._make(q_data.copy(), [(Tensor(q_data, requires_grad=True), catch)])
    loss = make_loss(q)
    L.combined_loss(Tensor(np.zeros((), dtype=q_data.dtype)), loss, 1.0, w_ts).backward()
    return loss, reached[0]


@pytest.mark.parametrize("N,Q", PINBALL_CASES)
def test_pinball_float32_bytes_equal_the_chain(N, Q):
    q, targets, mask, levels = pinball_case(40 + N + Q, N, Q)
    fused, d_fused = raw_q_grad(lambda t: T.masked_pinball(t, targets, mask, levels), q)
    chain, d_chain = raw_q_grad(lambda t: pinball_oracle(t, targets, mask, levels), q)
    assert fused.data.dtype == d_fused.dtype == np.float32
    assert np.asarray(fused.data).tobytes() == np.asarray(chain.data).tobytes()
    assert d_fused.tobytes() == d_chain.tobytes()
    zeros = d_fused == 0                      # the masked entries, at least
    assert zeros[mask == 0].all() and np.signbit(d_fused[zeros]).all()


@pytest.mark.parametrize("N,Q", PINBALL_CASES)
def test_pinball_grad_check(N, Q):
    q, targets, mask, levels = pinball_case(50 + N + Q, N, Q, dtype=np.float64)
    targets[0, 0] += 0.25                     # keep u away from the kink at 0
    q = t64(q)
    assert_fd(lambda: T.masked_pinball(q, targets, mask, levels), [("q", q)])


def test_pinball_backward_twice_accumulates_exactly_double():
    q, targets, mask, levels = pinball_case(60, 5, 21)
    q = Tensor(q, requires_grad=True)
    loss = T.mul_const(T.masked_pinball(q, targets, mask, levels), 2.5)
    loss.backward()
    once = q.grad.copy()
    loss.backward()
    assert np.array_equal(q.grad, 2.0 * once)


def test_pinball_no_grad_builds_no_graph():
    q, targets, mask, levels = pinball_case(61, 3, 5)
    q = Tensor(q, requires_grad=True)
    with T.no_grad():
        loss = T.masked_pinball(q, targets, mask, levels)
    assert not loss.requires_grad and loss._rules == ()
    want = pinball_oracle(Tensor(q.data), targets, mask, levels)
    assert np.asarray(loss.data).tobytes() == np.asarray(want.data).tobytes()


def test_pinball_rejects_bad_shapes():
    q, targets, mask, levels = pinball_case(62, 3, 5)
    q = Tensor(q)
    with pytest.raises(DimensionError):
        T.masked_pinball(q, targets[:2], mask[:2], levels)       # rows
    with pytest.raises(DimensionError):
        T.masked_pinball(q, targets, mask[:, :3], levels)        # mask vs targets
    with pytest.raises(DimensionError):
        T.masked_pinball(q, targets, mask, levels[:4])           # levels vs Q
    with pytest.raises(DimensionError):
        T.masked_pinball(Tensor(np.zeros(())), np.zeros(()), np.ones(()), levels)


def test_masked_quantile_loss_is_one_pinball_node():
    q, targets, mask, levels = pinball_case(63, 3, 5)
    q = Tensor(q, requires_grad=True)
    loss, n_valid = L.masked_quantile_loss(q, targets, mask, levels)
    assert n_valid == mask.sum()
    assert [(p, fn.__qualname__) for p, fn in loss._rules] == [(q, "masked_pinball.<locals>.bw")]


def test_ts_train_step_builds_one_pinball_node(monkeypatch):
    cfg = M.ModelConfig(n_layers=1, d_model=8, n_q_heads=2, n_kv_heads=1, head_dim=4,
                        patch_len=2, n_quantiles=3, vocab_size=32, max_seq=16)
    trainer = training.Trainer(cfg, seed=0)
    rng = np.random.default_rng(64)
    batch = data.build_ts_batch(lambda: codec.RawSeries(rng.normal(size=9).cumsum()),
                                12, 2, cfg.patch_len)
    rules = []
    backward = Tensor.backward

    def census(loss):
        seen, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                rules.extend(fn.__qualname__.split(".")[0] for _, fn in node._rules[:1])
                stack.extend(parent for parent, _ in node._rules)
        backward(loss)

    monkeypatch.setattr(Tensor, "backward", census)
    trainer.train_step(batch, 1.0, 1.0, 2.5)
    assert rules.count("masked_pinball") == 1
    assert "maximum" not in rules and "add_const" not in rules
