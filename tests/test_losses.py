import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchlm import losses as L
from patchlm import model as M
from patchlm import tensor as T
from patchlm.errors import ConfigError, DimensionError
from patchlm.tensor import Tensor


def tiny_config(**kw):
    base = dict(n_layers=1, d_model=8, n_q_heads=2, n_kv_heads=1, head_dim=4,
                patch_len=2, n_quantiles=3, vocab_size=12, max_seq=16)
    base.update(kw)
    return M.ModelConfig(**base)


def quantile_loss_oracle(q_hat, y, z, levels):
    """Naive loop implementation of the masked pinball objective."""
    total = 0.0
    for idx in np.ndindex(*y.shape):
        if z[idx] == 0:
            continue
        for qi, tau in enumerate(levels):
            u = y[idx] - q_hat[idx + (qi,)]
            total += max(tau * u, (tau - 1.0) * u)
    denom = len(levels) * z.sum()
    return total / denom if denom else 0.0


# -- quantile grid -------------------------------------------------------

def test_quantile_levels_grid():
    levels = L.quantile_levels(21)
    assert len(levels) == 21
    assert levels[0] == pytest.approx(0.05) and levels[-1] == pytest.approx(0.95)
    assert levels[10] == pytest.approx(0.5)
    assert np.all(np.diff(levels) > 0)
    assert np.allclose(levels + levels[::-1], 1.0)  # symmetric about 0.5


# -- lm loss -------------------------------------------------------------

def test_lm_loss_uniform_logits_is_log_vocab():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    params["tok_emb"].data[:] = 0.0  # tied head -> all logits equal
    rows = Tensor(np.random.default_rng(0).normal(size=(5, cfg.d_model)).astype(np.float32))
    loss, n = L.lm_loss(params, rows, np.arange(5) % cfg.vocab_size)
    assert n == 5
    assert loss.item() == pytest.approx(math.log(cfg.vocab_size), rel=1e-6)


def test_lm_loss_two_way_balanced():
    cfg = tiny_config(vocab_size=2, n_quantiles=3)
    params = M.init_params(cfg, seed=1)
    params["tok_emb"].data[:] = 0.0
    rows = Tensor(np.ones((1, cfg.d_model), dtype=np.float32))
    loss, _ = L.lm_loss(params, rows, np.array([1]))
    assert loss.item() == pytest.approx(math.log(2), rel=1e-6)


def test_lm_loss_hard_capped_confidence():
    # logits capped at +/-alpha: CE = ln(1 + (V-1) e^{-2 alpha})
    cfg = tiny_config()
    params = M.init_params(cfg, seed=2)
    v = cfg.vocab_size
    alpha = M.SOFTCAP_ALPHA
    rows = Tensor(np.zeros((1, cfg.d_model), dtype=np.float64))
    # craft a tied table whose logits soft-cap to +alpha for class 0, -alpha otherwise
    params["tok_emb"].data = np.zeros((v, cfg.d_model))
    params["tok_emb"].data[:, 0] = -1e9
    params["tok_emb"].data[0, 0] = 1e9
    rows = Tensor(np.eye(1, cfg.d_model, dtype=np.float64))
    loss, _ = L.lm_loss(params, rows, np.array([0]))
    expect = math.log(1.0 + (v - 1) * math.exp(-2 * alpha))
    assert loss.item() == pytest.approx(expect, rel=1e-9)


def test_lm_loss_empty_is_zero_weight():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    loss, n = L.lm_loss(params, Tensor(np.zeros((0, cfg.d_model))), np.zeros(0))
    assert n == 0 and loss.item() == 0.0
    loss, _ = L.lm_loss(params, Tensor(np.zeros((0, cfg.d_model), dtype=np.float32)),
                        np.zeros(0))
    assert loss.dtype == np.float32


# -- quantile head -------------------------------------------------------

def test_quantile_head_zero_at_init_and_shape():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=3)
    rows = Tensor(np.random.default_rng(1).normal(size=(4, cfg.d_model)).astype(np.float32))
    out = L.quantile_head(params, cfg, rows)
    assert out.shape == (4, cfg.patch_len, cfg.n_quantiles)
    assert not out.data.any()


def test_quantile_head_linear_in_hidden():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=4)
    rng = np.random.default_rng(2)
    params["quantile_head"].data[:] = rng.normal(size=params["quantile_head"].shape)
    rows = rng.normal(size=(3, cfg.d_model))
    # rmsnorm is scale-invariant, so the head output is too (homogeneity degree 0 in scale)
    a = L.quantile_head(params, cfg, Tensor(rows)).data
    b = L.quantile_head(params, cfg, Tensor(rows * 7.0)).data
    assert np.allclose(a, b, atol=1e-4)
    # linearity in the projection weights
    params["quantile_head"].data *= 2.0
    c = L.quantile_head(params, cfg, Tensor(rows)).data
    assert np.allclose(c, 2.0 * a, atol=1e-4)


# -- masked quantile loss -------------------------------------------------

def test_mql_zero_when_exact():
    levels = L.quantile_levels(5)
    y = np.random.default_rng(0).normal(size=(2, 3))
    q_hat = np.repeat(y[..., None], 5, axis=-1)
    loss, w = L.masked_quantile_loss(Tensor(q_hat), y, np.ones_like(y), levels)
    assert loss.item() == 0.0 and w == 6.0


def test_mql_hand_pinball():
    # one valid scalar, Q=1, tau=0.5, y=2, q_hat=0 -> rho = 1.0
    loss, _ = L.masked_quantile_loss(
        Tensor(np.zeros((1, 1, 1))), np.array([[2.0]]), np.ones((1, 1)), np.array([0.5]))
    assert loss.item() == pytest.approx(1.0)


def test_mql_masked_targets_ignored_bitwise():
    rng = np.random.default_rng(3)
    levels = L.quantile_levels(3)
    q_hat = rng.normal(size=(2, 4, 3))
    y = rng.normal(size=(2, 4))
    z = rng.integers(0, 2, size=(2, 4)).astype(float)
    z[0, 0] = 0.0
    base, _ = L.masked_quantile_loss(Tensor(q_hat), y, z, levels)
    y2 = y.copy()
    y2[z == 0] = 1e9  # even absurd masked targets change nothing
    pert, _ = L.masked_quantile_loss(Tensor(q_hat), y2, z, levels)
    assert base.data.tobytes() == pert.data.tobytes()


def test_mql_nan_targets_under_mask_are_safe():
    levels = L.quantile_levels(3)
    y = np.array([[1.0, np.nan]])
    z = np.array([[1.0, 0.0]])
    q = Tensor(np.zeros((1, 2, 3)), requires_grad=True)
    loss, _ = L.masked_quantile_loss(q, y, z, levels)
    assert np.isfinite(loss.item())
    loss.backward()
    assert np.isfinite(q.grad).all()
    assert not q.grad[0, 1].any()


def test_mql_empty_mask():
    loss, w = L.masked_quantile_loss(
        Tensor(np.zeros((1, 2, 3))), np.zeros((1, 2)), np.zeros((1, 2)), L.quantile_levels(3))
    assert loss.item() == 0.0 and w == 0.0
    loss, _ = L.masked_quantile_loss(
        Tensor(np.zeros((1, 2, 3), dtype=np.float32)), np.zeros((1, 2)), np.zeros((1, 2)),
        L.quantile_levels(3))
    assert loss.dtype == np.float32


def test_mql_no_rows_is_zero_weight_at_any_patch_width():
    levels = L.quantile_levels(3)
    q_hat = Tensor(np.zeros((0, 2, 3), dtype=np.float32))
    # a text batch's TS targets and mask are one value wide
    loss, w = L.masked_quantile_loss(q_hat, np.zeros((0, 1)), np.zeros((0, 1)), levels)
    assert loss.item() == 0.0 and w == 0.0 and loss.dtype == np.float32
    with pytest.raises(DimensionError):
        L.masked_quantile_loss(q_hat, np.zeros((1, 1)), np.zeros((1, 1)), levels)


def test_mql_duplication_invariance():
    rng = np.random.default_rng(4)
    levels = L.quantile_levels(5)
    q_hat = rng.normal(size=(1, 3, 5))
    y = rng.normal(size=(1, 3))
    z = np.ones((1, 3))
    once, _ = L.masked_quantile_loss(Tensor(q_hat), y, z, levels)
    twice, _ = L.masked_quantile_loss(
        Tensor(np.concatenate([q_hat, q_hat])), np.concatenate([y, y]),
        np.concatenate([z, z]), levels)
    assert twice.item() == pytest.approx(once.item(), rel=1e-12)


def test_mql_matches_loop_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        b, t, p, q = rng.integers(1, 5, size=4)
        levels = L.quantile_levels(int(q)) if q > 1 else np.array([0.5])
        q_hat = rng.normal(size=(b, t, p, int(q)))
        y = rng.normal(size=(b, t, p))
        z = rng.integers(0, 2, size=(b, t, p)).astype(float)
        got, _ = L.masked_quantile_loss(Tensor(q_hat), y, z, levels)
        want = quantile_loss_oracle(q_hat, y, z, levels)
        assert got.item() == pytest.approx(want, abs=1e-12)


def test_mql_gradient_zero_at_masked_positions():
    rng = np.random.default_rng(6)
    levels = L.quantile_levels(3)
    q = Tensor(rng.normal(size=(2, 3, 3)).astype(np.float64), requires_grad=True)
    y = rng.normal(size=(2, 3))
    z = np.array([[1, 0, 1], [0, 1, 1]], dtype=float)
    loss, _ = L.masked_quantile_loss(q, y, z, levels)
    loss.backward()
    assert not q.grad[0, 1].any() and not q.grad[1, 0].any()
    assert q.grad[0, 0].any()


def test_mql_gradcheck_fd():
    rng = np.random.default_rng(7)
    levels = L.quantile_levels(3)
    q = Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True, dtype=np.float64)
    y = rng.normal(size=(2, 2))
    z = np.array([[1, 1], [0, 1]], dtype=float)

    def loss():
        out, _ = L.masked_quantile_loss(q, y, z, levels)
        return out

    report = T.grad_check(loss, [("q", q)], tol=1e-6)
    assert report.passed, report


def test_pinball_expectation_minimized_at_quantile():
    # empirical argmin over scalar q approaches the Gaussian tau-quantile
    from statistics import NormalDist
    rng = np.random.default_rng(8)
    draws = rng.standard_normal(20000)
    for tau in (0.1, 0.5, 0.9):
        grid = np.linspace(-3, 3, 1201)
        losses = [np.maximum(tau * (draws - g), (tau - 1) * (draws - g)).mean() for g in grid]
        argmin = grid[int(np.argmin(losses))]
        assert abs(argmin - NormalDist().inv_cdf(tau)) < 0.05


# -- combined loss --------------------------------------------------------

def test_combined_loss_weighted_sum():
    ce = Tensor(np.array(1.0))
    ql = Tensor(np.array(0.4))
    assert L.combined_loss(ce, ql).item() == pytest.approx(1.0 + 2.5 * 0.4)
    assert L.combined_loss(ce, Tensor(np.array(0.0))).item() == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0, 10), st.floats(0, 10), st.floats(0, 4), st.floats(0, 4))
def test_combined_loss_linear(ce, ql, wt, ws):
    got = L.combined_loss(Tensor(np.array(ce)), Tensor(np.array(ql)), wt, ws).item()
    assert got == pytest.approx(wt * ce + ws * ql, rel=1e-9, abs=1e-12)


# -- class-balanced weights ------------------------------------------------

def test_class_weights_examples():
    assert np.allclose(L.class_balanced_weights([3, 1]), [0.5, 1.5])
    assert np.allclose(L.class_balanced_weights([5, 5, 5]), [1.0, 1.0, 1.0])
    assert np.allclose(L.class_balanced_weights([1, 1, 2]), [1.2, 1.2, 0.6])


def test_class_weights_sum_to_n_classes():
    rng = np.random.default_rng(9)
    counts = rng.integers(1, 50, size=7)
    w = L.class_balanced_weights(counts)
    assert w.sum() == pytest.approx(7.0)


def test_class_weights_zero_count_rejected():
    with pytest.raises(ConfigError):
        L.class_balanced_weights([3, 0])
