import numpy as np
import pytest

from patchlm import codec, inference, losses
from patchlm import model as M
from patchlm import tensor as T
from patchlm.errors import ConfigError, InvalidSeriesError


def tiny_config(**kw):
    base = dict(n_layers=2, d_model=16, n_q_heads=2, n_kv_heads=1, head_dim=8,
                patch_len=4, n_quantiles=5, vocab_size=64, max_seq=128)
    base.update(kw)
    return M.ModelConfig(**base)


def warm_params(cfg, seed=0, scale=0.2):
    params = M.init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for name, p in params.items():
        if p.data.ndim == 2 and not p.data.any():
            p.data[:] = rng.normal(0, scale, size=p.shape).astype(np.float32)
    return params


# -- forecasting -----------------------------------------------------------

def test_zero_init_model_forecasts_visible_mean():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)  # quantile head is zero
    values = np.array([1.0, 5.0, 3.0, 7.0, 2.0, 6.0, 4.0, 8.0])
    result = inference.forecast_values(params, cfg, values, horizon=8)
    assert np.allclose(result.quantiles, values.mean(), atol=1e-6)
    assert np.allclose(result.median, values.mean(), atol=1e-6)


def test_forecast_horizon_one_patch_single_step():
    cfg = tiny_config()
    params = warm_params(cfg)
    values = np.sin(np.arange(16))
    result = inference.forecast_values(params, cfg, values, horizon=cfg.patch_len)
    assert result.quantiles.shape == (cfg.patch_len, cfg.n_quantiles)
    assert result.median.shape == (cfg.patch_len,)


def test_forecast_quantiles_monotone_and_finite():
    cfg = tiny_config()
    params = warm_params(cfg, seed=3, scale=0.5)
    rng = np.random.default_rng(5)
    for _ in range(5):
        values = rng.normal(size=21) * rng.uniform(0.5, 20)
        result = inference.forecast_values(params, cfg, values, horizon=10)
        assert np.isfinite(result.quantiles).all()
        assert np.all(np.diff(result.quantiles, axis=1) >= 0)


def test_forecast_all_nan_rejected():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    with pytest.raises(InvalidSeriesError):
        inference.forecast_values(params, cfg, np.full(8, np.nan), horizon=4)


def test_forecast_stats_cached_from_context_only():
    # growing context: if stats were recomputed per step the forecast would drift
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    values = np.linspace(0, 10, 12)
    result = inference.forecast_values(params, cfg, values, horizon=3 * cfg.patch_len)
    # zero model: every generated patch re-encodes to the same input; all steps = mu
    assert np.allclose(result.median, values.mean(), atol=1e-6)


def test_forecast_incremental_equals_full_recompute():
    cfg = tiny_config()
    params = warm_params(cfg, seed=7, scale=0.4)
    rng = np.random.default_rng(1)
    values = rng.normal(size=20).cumsum()
    P = cfg.patch_len

    fast = inference.forecast_values(params, cfg, values, horizon=2 * P)

    # recompute oracle: no cache, rebuild the full sequence each step
    stats = codec.compute_visible_stats(codec.RawSeries(values))
    feats = inference.context_patch_features(values[None], P, stats)[0]
    padded_len = feats.shape[0] * P
    collected = []
    with T.no_grad():
        for step in range(2):
            inputs = M.Inputs(np.full((1, len(feats)), M.PATCH), feats)
            hidden = M.forward_hidden(params, cfg, inputs)
            last = T.Tensor(hidden.data[-1:])
            q_hat = losses.quantile_head(params, cfg, last).data[0]
            q_sorted = np.sort(q_hat, axis=-1)
            collected.append(q_sorted)
            median = q_sorted[:, cfg.n_quantiles // 2]
            nxt = inference._generated_patch_features(
                median[None], padded_len, padded_len + step * P, P)[0]
            feats = np.concatenate([feats, nxt], axis=0)
    normed = np.concatenate(collected, axis=0)
    expect = np.sinh(normed) * stats.sigma[0] + stats.mu[0]
    assert np.allclose(fast.quantiles, expect, atol=1e-5)


def test_forecast_text_conditioning_empty_prefix_identical():
    cfg = tiny_config()
    params = warm_params(cfg, seed=11, scale=0.3)
    values = np.cos(np.arange(13))
    plain = inference.forecast_values(params, cfg, values, horizon=5)
    empty = inference.forecast_values(params, cfg, values, horizon=5, text_ids=[])
    assert plain.quantiles.tobytes() == empty.quantiles.tobytes()
    with_text = inference.forecast_values(params, cfg, values, horizon=5, text_ids=[3, 1])
    assert not np.allclose(with_text.quantiles, plain.quantiles)


def test_forecast_multichannel_independent():
    cfg = tiny_config()
    params = warm_params(cfg, seed=13)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(2, 12))
    series = codec.RawSeries(values)
    results = inference.forecast_series(params, cfg, series, horizon=4)
    assert len(results) == 2
    singles = [inference.forecast_values(params, cfg, values[c], 4) for c in range(2)]
    # a 1-row product goes to BLAS gemv, a C-row one to gemm: the last bits may differ
    for got, want in zip(results, singles):
        assert np.allclose(got.quantiles, want.quantiles, rtol=1e-5, atol=1e-5)
    alone = inference.forecast_series(params, cfg, codec.RawSeries(values[:1]), horizon=4)
    assert alone[0].quantiles.tobytes() == singles[0].quantiles.tobytes()


def gappy_channels(rng, channels, length):
    values = rng.normal(size=(channels, length)).cumsum(axis=1) * rng.uniform(0.5, 5.0)
    values[rng.random(values.shape) < 0.2] = np.nan
    values[:, -1] = rng.normal(size=channels)  # every channel keeps a finite value
    return values


@pytest.mark.parametrize("n_kv_heads", [1, 2])
@pytest.mark.parametrize("text_ids", [(), (3, 1, 7)])
def test_forecast_channel_bytes_do_not_depend_on_batch_mates(n_kv_heads, text_ids):
    cfg = tiny_config(n_kv_heads=n_kv_heads)
    params = warm_params(cfg, seed=29, scale=0.4)
    rng = np.random.default_rng(n_kv_heads + 10 * len(text_ids))

    def forecast(values):
        results = inference.forecast_series(params, cfg, codec.RawSeries(values), 7, text_ids)
        return [r.quantiles.tobytes() for r in results]

    for channels in (2, 3, 4):
        length = int(rng.integers(5, 30))
        values = gappy_channels(rng, channels, length)
        base = forecast(values)
        order = rng.permutation(channels)[::-1]
        assert forecast(values[order]) == [base[c] for c in order]
        replaced = values.copy()
        replaced[1:] = gappy_channels(rng, channels - 1, length)
        assert forecast(replaced)[0] == base[0]
        added = np.concatenate([values, gappy_channels(rng, 2, length)])
        assert forecast(added)[:channels] == base


def test_forecast_series_incremental_equals_full_recompute():
    cfg = tiny_config()
    params = warm_params(cfg, seed=31, scale=0.4)
    values = gappy_channels(np.random.default_rng(2), 3, 17)
    text_ids = [5, 2]
    P = cfg.patch_len
    fast = inference.forecast_series(params, cfg, codec.RawSeries(values), 3 * P, text_ids)

    # recompute oracle: no cache, rebuild all C sequences each step
    stats = codec.compute_visible_stats(codec.RawSeries(values))
    feats = inference.context_patch_features(values, P, stats)
    padded_len = feats.shape[1] * P
    collected = []
    with T.no_grad():
        for step in range(3):
            ids = np.concatenate([np.tile(text_ids, (3, 1)),
                                  np.full(feats.shape[:2], M.PATCH)], axis=1)
            hidden = M.forward_hidden(params, cfg,
                                      M.Inputs(ids, feats.reshape(-1, 4 * P)))
            last = hidden.data.reshape(ids.shape + (cfg.d_model,))[:, -1]
            q_hat = losses.quantile_head(params, cfg, T.Tensor(last)).data
            q_sorted = np.sort(q_hat, axis=-1)
            collected.append(q_sorted)
            nxt = inference._generated_patch_features(
                q_sorted[:, :, cfg.n_quantiles // 2], padded_len, padded_len + step * P, P)
            feats = np.concatenate([feats, nxt], axis=1)
    normed = np.concatenate(collected, axis=1)
    for c, result in enumerate(fast):
        expect = np.sinh(normed[c]) * stats.sigma[c] + stats.mu[c]
        assert np.allclose(result.quantiles, expect, atol=1e-5)


def test_forecast_respects_max_seq():
    # 7 context patches plus 2 generated ones, of which only the first is fed
    # back: 8 positions fit max_seq 8; a third generated patch does not
    cfg = tiny_config(max_seq=8)
    params = M.init_params(cfg, seed=0)
    fits = inference.forecast_values(params, cfg, np.arange(28.0), horizon=8)
    assert fits.quantiles.shape[0] == 8
    with pytest.raises(ConfigError):
        inference.forecast_values(params, cfg, np.arange(28.0), horizon=9)


# -- embeddings --------------------------------------------------------------

def test_repeat_layout_contains_exact_copies():
    cfg = tiny_config()
    rng = np.random.default_rng(0)
    block = rng.normal(size=(3, 4 * cfg.patch_len)).astype(np.float32)
    for r in (1, 2, 64):
        inputs = inference.build_repeat_layout(block, text_ids=[5, 9], repeat=r)
        assert inputs.ids.tolist() == [[5, 9] + [M.PATCH] * (r * 3)]
        tiled = inputs.patches
        for k in range(r):
            assert np.array_equal(tiled[k * 3:(k + 1) * 3], block)


def test_repeat_leaves_series_unchanged():
    cfg = tiny_config()
    values = np.arange(8.0)
    series = codec.RawSeries(values)
    before = series.values.tobytes()
    feats = codec.patchify(series, cfg.patch_len)[0]
    inference.build_repeat_layout(feats, repeat=4)
    assert series.values.tobytes() == before


def test_ts_position_share():
    cfg = tiny_config(max_seq=512)
    block = np.zeros((4, 4 * cfg.patch_len), dtype=np.float32)
    n_text = 6
    for r in (1, 2, 8):
        inputs = inference.build_repeat_layout(block, list(range(n_text)), repeat=r)
        share = (inputs.ids == M.PATCH).sum() / inputs.ids.shape[1]
        assert share == r * 4 / (r * 4 + n_text)


def test_single_position_embedding_is_that_state():
    cfg = tiny_config()
    params = warm_params(cfg, seed=17)
    with T.no_grad():
        hidden = M.forward_hidden(params, cfg, M.Inputs(np.array([[7]])))
    emb = inference.extract_embedding(params, cfg, text_ids=[7])
    assert np.allclose(emb, hidden.data[0])


def test_embedding_mixed_inputs():
    cfg = tiny_config()
    params = warm_params(cfg, seed=19)
    series = codec.RawSeries(np.sin(np.arange(8.0)))
    emb_both = inference.extract_embedding(params, cfg, series=series, text_ids=[1, 2])
    emb_ts = inference.extract_embedding(params, cfg, series=series)
    assert emb_both.shape == (cfg.d_model,)
    assert not np.allclose(emb_both, emb_ts)


# -- probes --------------------------------------------------------------------

def separable_toy(n=60, d=8, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.concatenate([rng.normal(-2, 0.3, (half, d)), rng.normal(2, 0.3, (n - half, d))])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    perm = rng.permutation(n)
    return x[perm], y[perm]


def test_linear_probe_separates_toy_data():
    x, y = separable_toy()
    probe = inference.train_linear_probe(x, y, n_classes=2, epochs=30, seed=1)
    assert (probe.predict(x) == y).mean() == 1.0


def test_linear_probe_deterministic():
    x, y = separable_toy(seed=2)
    a = inference.train_linear_probe(x, y, 2, epochs=10, seed=5)
    b = inference.train_linear_probe(x, y, 2, epochs=10, seed=5)
    assert a.weights[0].tobytes() == b.weights[0].tobytes()


def test_probe_never_touches_backbone():
    cfg = tiny_config()
    params = warm_params(cfg, seed=23)
    before = {k: v.data.tobytes() for k, v in params.items()}
    rng = np.random.default_rng(1)
    embs = np.stack([
        inference.extract_embedding(params, cfg, series=codec.RawSeries(rng.normal(size=12)))
        for _ in range(8)
    ])
    labels = np.array([0, 1] * 4)
    inference.train_linear_probe(embs, labels, 2, epochs=5)
    inference.train_mlp_head(embs, labels, 2, epochs=5)
    for k, blob in before.items():
        assert params[k].data.tobytes() == blob


def test_mlp_head_learns_toy_data():
    x, y = separable_toy(seed=3)
    head = inference.train_mlp_head(x, y, n_classes=2, epochs=40, seed=2)
    assert (head.predict(x) == y).mean() >= 0.95


def test_mlp_head_class_balanced_weights_used():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.normal(-1, 0.4, (40, 6)), rng.normal(1, 0.4, (8, 6))])
    y = np.array([0] * 40 + [1] * 8)
    head = inference.train_mlp_head(x, y, 2, epochs=60, seed=3)
    preds = head.predict(x)
    assert (preds[y == 1] == 1).mean() > 0.5  # minority class not collapsed


def test_head_scores_put_relu_between_its_weights():
    rng = np.random.default_rng(6)
    x, w1, w2 = rng.normal(size=(5, 4)), rng.normal(size=(4, 7)), rng.normal(size=(7, 3))
    assert inference.Head(w1).scores(x).tobytes() == (x @ w1).tobytes()
    assert inference.Head(w1, w2).scores(x).tobytes() == \
        (np.maximum(x @ w1, 0.0) @ w2).tobytes()
    assert inference.Head(w1, w2).predict(x).tolist() == \
        (np.maximum(x @ w1, 0.0) @ w2).argmax(axis=1).tolist()
