import math

import numpy as np
import pytest

from patchlm import model as M
from patchlm import tensor as T
from patchlm.errors import CacheError, ConfigError, DataError, DimensionError
from patchlm.tensor import Tensor

CFG = M.ModelConfig()


def tiny_config(**kw):
    base = dict(n_layers=2, d_model=8, n_q_heads=2, n_kv_heads=1, head_dim=4,
                patch_len=2, n_quantiles=3, vocab_size=11, max_seq=32)
    base.update(kw)
    return M.ModelConfig(**base)


def random_inputs(rng, config, length, n_text=None):
    n_text = length // 2 if n_text is None else n_text
    ids = np.full(length, M.PATCH)
    ids[np.sort(rng.permutation(length)[:n_text])] = rng.integers(0, config.vocab_size,
                                                                  size=n_text)
    patches = rng.normal(size=(length - n_text, 4 * config.patch_len)).astype(np.float32)
    return M.Inputs(ids[None, :], patches)


def text_inputs(ids):
    return M.Inputs(np.asarray(ids)[None, :])


def patch_inputs(feats):
    return M.Inputs(np.full((1, len(feats)), M.PATCH), feats)


def rope_at(x, positions, base):
    """RoPE of [B, H, S, hd] ``x`` at ``positions``, tables in x's dtype."""
    return T.rope(x, *M.rope_tables(positions, x.shape[-1], base, x.data.dtype))


def pass_rope(config, S, dtype=np.float32):
    """The RoPE tables forward_hidden builds for a cache-free S-position pass."""
    return M.rope_tables(np.arange(S), config.head_dim, M.ROPE_BASE, dtype)


# -- config ------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        M.ModelConfig(n_q_heads=3, n_kv_heads=2)
    with pytest.raises(ConfigError):
        M.ModelConfig(head_dim=32)  # 4 * 32 != 64
    for bad in (0, True, 64.0):
        with pytest.raises(ConfigError, match="d_model must be a positive integer"):
            M.ModelConfig(d_model=bad)


def test_paper_scale_config_expressible():
    cfg = M.ModelConfig(n_layers=16, d_model=1024, n_q_heads=8, n_kv_heads=4,
                        head_dim=128, patch_len=32, vocab_size=131072, max_seq=2048)
    assert cfg.swiglu_hidden == 2816  # ceil(8*1024/3)=2731 -> next multiple of 256


def test_swiglu_hidden_rounding():
    assert tiny_config().swiglu_hidden == 256
    assert M.ModelConfig().swiglu_hidden == 256


# -- init --------------------------------------------------------------

def test_init_zero_set_and_norm_scales():
    params = M.init_params(CFG, seed=0)
    for i in range(CFG.n_layers):
        assert not params[f"blocks.{i}.wo"].data.any()
        assert not params[f"blocks.{i}.w3"].data.any()
        assert np.all(params[f"blocks.{i}.attn_norm"].data == 1.0)
    assert not params["quantile_head"].data.any()
    assert np.all(params["final_norm"].data == 1.0)


def test_init_fan_scaled_sigma():
    cfg = M.ModelConfig(d_model=64)
    params = M.init_params(cfg, seed=3)
    w = params["blocks.0.wq"].data  # fan_in == fan_out == 64 -> sigma = 1/8
    assert abs(w.std() - 0.125) < 0.01
    assert abs(params["tok_emb"].data.std() - 0.02) < 0.002


# -- rope --------------------------------------------------------------

def test_rope_position_zero_identity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 2, 3, 8)).astype(np.float64))
    out = rope_at(x, np.zeros(3), base=5e5)
    assert np.allclose(out.data, x.data)


def test_rope_preserves_norm():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 3, 5, 16)).astype(np.float64))
    out = rope_at(x, np.arange(5), base=5e5)
    assert np.allclose(np.linalg.norm(out.data, axis=-1),
                       np.linalg.norm(x.data, axis=-1), atol=1e-6)


def test_rope_two_dim_rotation():
    x = Tensor(np.array([1.0, 0.0]).reshape(1, 1, 1, 2))
    out = rope_at(x, np.array([1]), base=1.0)
    assert np.allclose(out.data.ravel(), [math.cos(1.0), math.sin(1.0)])


def test_rope_relative_position_inner_product():
    rng = np.random.default_rng(2)
    q = rng.normal(size=8)
    k = rng.normal(size=8)

    def rotated_dot(i, j):
        qt = Tensor(q.reshape(1, 1, 1, 8))
        kt = Tensor(k.reshape(1, 1, 1, 8))
        qr = rope_at(qt, np.array([i]), base=100.0).data.ravel()
        kr = rope_at(kt, np.array([j]), base=100.0).data.ravel()
        return float(qr @ kr)

    assert abs(rotated_dot(3, 1) - rotated_dot(7, 5)) < 1e-9
    assert abs(rotated_dot(4, 4) - rotated_dot(0, 0)) < 1e-9


def test_rope_odd_head_dim_rejected():
    with pytest.raises(ConfigError):
        M.rope_tables(np.arange(3), 5, 10.0, np.float64)


# -- soft cap ----------------------------------------------------------

def test_soft_cap_values():
    x = Tensor(np.array([0.0, 1e9, 15.0, -1e9]))
    out = M.soft_cap(x, 15.0).data
    assert out[0] == 0.0
    assert np.isclose(out[1], 15.0) and out[1] <= 15.0  # asymptote (float-saturated)
    assert np.isclose(out[2], 15.0 * math.tanh(1.0))
    assert np.isclose(out[2], 11.42391, atol=1e-4)
    assert out[3] >= -15.0


def test_soft_cap_strictly_bounded_and_monotone():
    # strictly inside (-alpha, alpha) over the whole non-saturating float range
    xs = np.linspace(-200, 200, 4001)
    out = M.soft_cap(Tensor(xs), 15.0).data
    assert np.all(np.abs(out) < 15.0)
    assert np.all(np.diff(out) >= 0)


# -- embedding ---------------------------------------------------------

def test_zero_patch_proj_gives_zero_embedding():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    params["patch_proj"].data[:] = 0.0
    inputs = patch_inputs(np.ones((3, 4 * cfg.patch_len), dtype=np.float32))
    hidden = M.embed_sequence(params, cfg, inputs)
    assert np.allclose(hidden.data, 0.0)


def test_one_hot_token_embedding_is_table_row_normed():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=1)
    k = 7
    hidden = M.embed_sequence(params, cfg, text_inputs([k]))
    row = params["tok_emb"].data[k].astype(np.float64)
    expect = row / np.sqrt(np.mean(row * row) + M.NORM_EPS)
    assert np.allclose(hidden.data[0], expect, atol=1e-5)


def test_mixed_layout_shape():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=2)
    inputs = M.Inputs(np.array([[1, M.PATCH, 4]]),
                      np.ones((1, 4 * cfg.patch_len), dtype=np.float32))
    hidden = M.embed_sequence(params, cfg, inputs)
    assert hidden.shape == (3, cfg.d_model)


def test_token_id_out_of_range():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    with pytest.raises(DataError):
        M.embed_sequence(params, cfg, text_inputs([cfg.vocab_size]))


def test_inputs_checks():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    row = np.ones((1, 4 * cfg.patch_len), dtype=np.float32)
    with pytest.raises(DataError):  # two patch ids, one patch row
        M.Inputs(np.array([[1, M.PATCH, M.PATCH]]), row)
    with pytest.raises(DataError):  # a patch row without a patch id
        M.Inputs(np.array([[1, 2]]), row)
    for ids in (np.array([1, 2]), np.ones((1, 1, 2)), np.zeros((1, 0)), np.zeros((0, 3))):
        with pytest.raises(DataError):
            M.Inputs(ids)
    for bad_id in (-2, cfg.vocab_size):
        with pytest.raises(DataError):
            M.embed_sequence(params, cfg, text_inputs([1, bad_id]))
    with pytest.raises(DimensionError):
        M.embed_sequence(params, cfg, M.Inputs([[M.PATCH]], np.ones((1, 4 * cfg.patch_len + 1))))


def test_patch_rows_fill_positions_in_row_major_order():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=3)
    rows = np.random.default_rng(0).normal(size=(3, 4 * cfg.patch_len)).astype(np.float32)
    batch = M.embed_sequence(params, cfg, M.Inputs([[M.PATCH, 5, M.PATCH], [2, M.PATCH, 7]], rows))
    first = M.embed_sequence(params, cfg, M.Inputs([[M.PATCH, 5, M.PATCH]], rows[:2]))
    second = M.embed_sequence(params, cfg, M.Inputs([[2, M.PATCH, 7]], rows[2:]))
    assert np.allclose(batch.data, np.concatenate([first.data, second.data]), rtol=0, atol=1e-6)


# -- attention / blocks ------------------------------------------------

def test_block_identity_at_init():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=4)
    rng = np.random.default_rng(0)
    inputs = random_inputs(rng, cfg, 6)
    embedded = M.embed_sequence(params, cfg, inputs)
    out = M.block_forward(params, cfg, 0, embedded, pass_rope(cfg, 6))
    assert np.allclose(out.data, embedded.data, atol=1e-7)


def test_stack_is_identity_plus_finalnorm_at_init():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=5)
    rng = np.random.default_rng(1)
    inputs = random_inputs(rng, cfg, 5)
    embedded = M.embed_sequence(params, cfg, inputs).data
    hidden = M.forward_hidden(params, cfg, inputs).data
    d = cfg.d_model
    expect = embedded / np.sqrt((embedded ** 2).mean(-1, keepdims=True) + M.NORM_EPS)
    assert np.allclose(hidden, expect, atol=1e-6)


def test_attention_single_position():
    cfg = tiny_config(n_layers=1)
    params = M.init_params(cfg, seed=6)
    rng = np.random.default_rng(2)
    for name in ("blocks.0.wo",):
        params[name].data[:] = rng.normal(size=params[name].shape).astype(np.float32)
    x = Tensor(rng.normal(size=(1, cfg.d_model)).astype(np.float32))
    out = M.attention_gqa(params, cfg, 0, x, pass_rope(cfg, 1))
    v = x.data @ params["blocks.0.wv"].data
    heads = v.reshape(1, cfg.n_kv_heads, cfg.head_dim)
    merged = np.repeat(heads, cfg.n_q_heads // cfg.n_kv_heads, axis=1).reshape(1, -1)
    expect = merged @ params["blocks.0.wo"].data
    assert np.allclose(out.data.reshape(1, -1), expect, atol=1e-5)


def test_gqa_grouping_assignment():
    # 8 query heads over 4 kv heads: q {0,1}->kv0, {2,3}->kv1, ...
    cfg = M.ModelConfig(n_layers=1, d_model=16, n_q_heads=8, n_kv_heads=4, head_dim=2,
                        patch_len=2, vocab_size=16, max_seq=8)
    params = M.init_params(cfg, seed=0)
    params["blocks.0.wq"].data[:] = 0.0   # uniform attention
    params["blocks.0.wk"].data[:] = 0.0
    wv = np.zeros(params["blocks.0.wv"].shape, dtype=np.float32)
    for j in range(cfg.n_kv_heads):       # kv head j emits constant j+1
        wv[0, j * cfg.head_dim:(j + 1) * cfg.head_dim] = j + 1
    params["blocks.0.wv"].data[:] = wv
    params["blocks.0.wo"].data[:] = np.eye(cfg.d_model, dtype=np.float32)
    x = np.zeros((1, cfg.d_model), dtype=np.float32)
    x[0, 0] = 1.0
    out = M.attention_gqa(params, cfg, 0, Tensor(x), pass_rope(cfg, 1)).data
    out = out.reshape(cfg.n_q_heads, cfg.head_dim)
    expect_per_q = np.repeat(np.arange(1, 5), 2)
    assert np.allclose(out[:, 0], expect_per_q)


def test_causality_bit_exact():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=7)
    rng = np.random.default_rng(3)
    for name, p in params.items():
        if p.data.ndim == 2 and not p.data.any():
            p.data[:] = rng.normal(0, 0.2, size=p.shape).astype(np.float32)
    feats = rng.normal(size=(8, 4 * cfg.patch_len)).astype(np.float32)
    base = M.forward_hidden(params, cfg, patch_inputs(feats)).data
    for t in (3, 6):
        bumped = feats.copy()
        bumped[t:] = rng.normal(size=bumped[t:].shape)
        out = M.forward_hidden(params, cfg, patch_inputs(bumped)).data
        assert out[:t].tobytes() == base[:t].tobytes()


def test_kv_cache_matches_full_recompute():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=8)
    rng = np.random.default_rng(4)
    for name, p in params.items():
        if p.data.ndim == 2 and not p.data.any():
            p.data[:] = rng.normal(0, 0.2, size=p.shape).astype(np.float32)
    feats = rng.normal(size=(7, 4 * cfg.patch_len)).astype(np.float32)
    with T.no_grad():
        full = M.forward_hidden(params, cfg, patch_inputs(feats)).data
        cache = M.KVCache(cfg)
        inc = []
        chunks = [feats[:4], feats[4:5], feats[5:7]]
        for chunk in chunks:
            out = M.forward_hidden(params, cfg, patch_inputs(chunk), cache=cache)
            inc.append(out.data)
    inc = np.concatenate(inc)
    assert np.allclose(inc, full, atol=1e-5)
    assert cache.length == 7


def test_kv_cache_matches_full_recompute_across_query_tiles():
    """A 100-position prefill, a 150-position chunk (two query tiles after
    100 cached keys) and decode steps to position 260 give each position
    the rows of one full 260-position pass."""
    cfg = tiny_config(n_layers=2, max_seq=512)
    params = M.init_params(cfg, seed=10)
    rng = np.random.default_rng(6)
    for name, p in params.items():
        if p.data.ndim == 2 and not p.data.any():
            p.data[:] = rng.normal(0, 0.2, size=p.shape).astype(np.float32)
    inputs = random_inputs(rng, cfg, 260)
    patch_row = np.cumsum(inputs.ids[0] == M.PATCH) - 1

    def piece(s0, s1):
        ids = inputs.ids[:, s0:s1]
        rows = patch_row[s0:s1][ids[0] == M.PATCH]
        return M.Inputs(ids, inputs.patches[rows])

    edges = [0, 100, 250] + list(range(251, 261))
    with T.no_grad():
        full = M.forward_hidden(params, cfg, inputs).data
        cache = M.KVCache(cfg)
        inc = np.concatenate([M.forward_hidden(params, cfg, piece(s0, s1), cache=cache).data
                              for s0, s1 in zip(edges, edges[1:])])
    assert cache.length == 260
    assert np.abs(inc - full).max() <= 1e-5


def test_kv_cache_rejects_training_graph():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=9)
    feats = np.ones((2, 4 * cfg.patch_len), dtype=np.float32)
    with pytest.raises(CacheError):
        M.forward_hidden(params, cfg, patch_inputs(feats), cache=M.KVCache(cfg))


def recorded(fn, calls):
    def wrapped(*args, **kwargs):
        calls.append(fn(*args, **kwargs))
        return calls[-1]
    return wrapped


def test_forward_keeps_residual_rows_and_builds_rope_tables_once(monkeypatch):
    """A pass's residual adds and its result are all [B·S, d] rows, it
    builds at most 4 reshapes per layer, and one set of RoPE tables: with a
    grad graph, and under no_grad with a KV cache (prefill, then decode)."""
    cfg = tiny_config(n_layers=3)
    params = M.init_params(cfg, seed=12)
    adds, reshapes, tables = [], [], []
    monkeypatch.setattr(T, "add", recorded(T.add, adds))
    monkeypatch.setattr(T, "reshape", recorded(T.reshape, reshapes))
    monkeypatch.setattr(M, "rope_tables", recorded(M.rope_tables, tables))
    rng = np.random.default_rng(6)
    ids = np.array([[1, M.PATCH, 4, M.PATCH, M.PATCH], [M.PATCH, 2, 3, M.PATCH, 7]])
    feats = rng.normal(size=(5, 4 * cfg.patch_len)).astype(np.float32)

    def census(inputs, cache=None):
        for calls in (adds, reshapes, tables):
            calls.clear()
        hidden = M.forward_hidden(params, cfg, inputs, cache=cache)
        B, S = inputs.ids.shape
        assert hidden.shape == (B * S, cfg.d_model)
        assert len(adds) >= 2 * cfg.n_layers
        assert all(a.shape == (B * S, cfg.d_model) for a in adds)
        assert len(reshapes) <= 4 * cfg.n_layers
        assert len(tables) == 1

    census(M.Inputs(ids, feats))
    with T.no_grad():
        cache = M.KVCache(cfg)
        census(M.Inputs(ids, feats), cache)
        census(M.Inputs(np.full((2, 1), M.PATCH), feats[:2]), cache)
    assert cache.length == 6


def test_forward_checks_max_seq_before_any_block(monkeypatch):
    cfg = tiny_config(max_seq=6)
    params = M.init_params(cfg, seed=13)
    blocks, block = [], M.block_forward

    def entered(*args, **kwargs):
        blocks.append(args[2])
        return block(*args, **kwargs)

    monkeypatch.setattr(M, "block_forward", entered)
    with pytest.raises(ConfigError, match="^sequence length 7 exceeds max_seq 6$"):
        M.forward_hidden(params, cfg, text_inputs([1] * 7))
    assert not blocks
    with T.no_grad():
        cache = M.KVCache(cfg)
        M.forward_hidden(params, cfg, text_inputs([1] * 5), cache=cache)
        assert len(blocks) == cfg.n_layers
        with pytest.raises(ConfigError, match="^sequence length 7 exceeds max_seq 6$"):
            M.forward_hidden(params, cfg, text_inputs([1, 2]), cache=cache)
    assert len(blocks) == cfg.n_layers and cache.length == 5


def test_kv_cache_advance_guard():
    cache = M.KVCache(tiny_config())
    with pytest.raises(CacheError):
        cache.advance(0)


def test_full_stack_gradcheck_fd():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=10, dtype=np.float64)
    rng = np.random.default_rng(5)
    for name, p in params.items():
        if p.data.ndim == 2 and not p.data.any():
            p.data[:] = rng.normal(0, 0.3, size=p.shape)
    inputs = random_inputs(rng, cfg, 4)
    probe = Tensor(rng.normal(size=(4, cfg.d_model)))

    def loss():
        h = M.forward_hidden(params, cfg, inputs)
        return T.mul_const(T.tsum(T.mul(h, T.mul(h, probe))), 1.0 / h.data.size)

    report = T.grad_check(loss, list(params.items()), samples_per_param=4,
                          rng=np.random.default_rng(0), tol=1e-4)
    assert report.passed, f"{report.worst_param}: {report.max_rel_err}"
