import math

import numpy as np
import pytest

from patchlm import model as M
from patchlm import optim as O
from patchlm.errors import ConfigError, NumericError


def tiny_config(**kw):
    base = dict(n_layers=2, d_model=8, n_q_heads=2, n_kv_heads=1, head_dim=4,
                patch_len=2, n_quantiles=3, vocab_size=17, max_seq=16)
    base.update(kw)
    return M.ModelConfig(**base)


# -- newton-schulz -------------------------------------------------------

def test_ns_singular_band_random_square():
    # fixed seed: square gaussians occasionally carry a pathologically tiny
    # smallest singular value that five steps cannot lift into the band
    g = np.random.default_rng(0).standard_normal((64, 64))
    sv = np.linalg.svd(O.newton_schulz(g), compute_uv=False)
    assert sv.min() >= 0.7 and sv.max() <= 1.3


@pytest.mark.parametrize("shape", [(16, 16), (32, 64), (64, 32), (8, 128)])
def test_ns_singular_band_shapes(shape):
    g = np.random.default_rng(11).standard_normal(shape)
    sv = np.linalg.svd(O.newton_schulz(g), compute_uv=False)
    assert sv.min() >= 0.7 and sv.max() <= 1.3


def test_ns_orthogonal_input_direction_preserved():
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((16, 16)))
    out = O.newton_schulz(q)
    # all singular values equal -> output is a scalar multiple of the input
    scale = float(np.sum(out * q) / np.sum(q * q))
    assert np.allclose(out, scale * q, atol=1e-4)
    sv = np.linalg.svd(out, compute_uv=False)
    assert sv.min() >= 0.7 and sv.max() <= 1.3


def test_ns_rank_one_direction():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((12, 1))
    v = rng.standard_normal((1, 9))
    g = u @ v
    out = O.newton_schulz(g)
    unit = g / np.linalg.norm(g)
    cos = float(np.sum(out * unit) / np.linalg.norm(out))
    assert cos > 0.999999
    sv = np.linalg.svd(out, compute_uv=False)
    assert 0.7 <= sv[0] <= 1.3 and sv[1] < 1e-4


def test_ns_zero_matrix_guarded():
    out = O.newton_schulz(np.zeros((6, 6)))
    assert not out.any()


def test_ns_nonfinite_rejected():
    g = np.ones((4, 4))
    g[0, 0] = np.inf
    with pytest.raises(NumericError):
        O.newton_schulz(g)
    with pytest.raises(ConfigError):
        O.newton_schulz(np.ones(3))


@pytest.mark.parametrize("name,bad", [("final_norm", np.nan), ("tok_emb", -np.inf),
                                      ("blocks.1.w3", np.nan)])
def test_nonfinite_gradient_raises_before_any_update(name, bad):
    # two AdamW tensors, and a Muon matrix after nine others whose updates
    # the check must also hold back
    cfg = tiny_config()
    params = M.init_params(cfg, seed=3)
    opt = O.Optimizer(params, cfg)
    rng = np.random.default_rng(4)

    def fill_grads():
        for p in params.values():
            p.grad = rng.normal(size=p.shape).astype(np.float32)

    for _ in range(3):   # non-trivial buffers and t
        fill_grads()
        opt.step()
    fill_grads()
    params[name].grad.flat[0] = bad

    def state():
        return ({k: p.data.tobytes() for k, p in params.items()},
                {k: a.tobytes() for k, a in opt.state_tensors().items()}, opt.t)

    before = state()
    with pytest.raises(NumericError, match=rf"^non-finite gradient in {name}$"):
        opt.step()
    assert state() == before


# -- muon ----------------------------------------------------------------

def test_muon_no_grad_no_change():
    p = np.ones((4, 4), dtype=np.float32)
    buf = np.zeros_like(p)
    O.muon_step(p, np.zeros_like(p), buf, lr=0.02)
    assert np.array_equal(p, np.ones((4, 4), dtype=np.float32))


def test_muon_momentum_accumulation():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((8, 8)).astype(np.float32)
    p = np.zeros_like(g)
    buf = np.zeros_like(g)
    O.muon_step(p, g, buf, lr=0.0)
    assert np.allclose(buf, g)
    O.muon_step(p, g, buf, lr=0.0)
    assert np.allclose(buf, 1.95 * g, atol=1e-6)


def test_muon_update_rms_matches_lr():
    rng = np.random.default_rng(4)
    rows, cols = 32, 48
    g = rng.standard_normal((rows, cols)).astype(np.float32)
    p = np.zeros((rows, cols), dtype=np.float32)
    buf = np.zeros_like(p)
    lr = 0.02
    O.muon_step(p, g, buf, lr=lr)
    # update Frobenius norm ~ lr * sqrt(rows*cols) under the rms-matching scale
    assert np.linalg.norm(p) == pytest.approx(lr * math.sqrt(rows * cols), rel=0.2)


# -- adamw -----------------------------------------------------------------

def test_adamw_first_step_is_signed_lr():
    rng = np.random.default_rng(5)
    g = rng.standard_normal(16).reshape(4, 4)
    p = np.zeros((4, 4))
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    O.adamw_step(p, g, m, v, t=1, lr=0.01)
    assert np.allclose(p, -0.01 * np.sign(g), atol=1e-7)


def test_adamw_zero_grad_no_change():
    p = np.ones(5)
    O.adamw_step(p, np.zeros(5), np.zeros(5), np.zeros(5), t=1, lr=0.5)
    assert np.array_equal(p, np.ones(5))


def test_adamw_wd_zero_params_without_grads_frozen():
    # optimizer-level behavior: None grad means the tensor is skipped entirely
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    opt = O.Optimizer(params, cfg)
    before = params["quantile_head"].data.copy()
    params["blocks.0.wq"].grad = np.ones_like(params["blocks.0.wq"].data)
    opt.step()
    assert np.array_equal(params["quantile_head"].data, before)
    assert not np.array_equal(params["blocks.0.wq"].data,
                              M.init_params(cfg, seed=0)["blocks.0.wq"].data)


@pytest.mark.parametrize("k", [1, 5])
def test_adamw_bias_correction_uses_the_global_step_after_skipped_steps(k):
    """quantile_head gets no gradient on k steps; its first update then runs at
    the global t = k + 1, not at its own first step t = 1."""
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    opt = O.Optimizer(params, cfg)
    for _ in range(k):
        params["blocks.0.wq"].grad = np.ones_like(params["blocks.0.wq"].data)
        opt.step()
        opt.zero_grad()
    head = params["quantile_head"]
    grad = np.random.default_rng(k).normal(size=head.shape).astype(head.data.dtype)

    def updated(t):
        p = head.data.copy()
        O.adamw_step(p, grad, np.zeros_like(p), np.zeros_like(p), t,
                     lr=opt.group_lrs["adamw_rest"])
        return p

    at_global, at_own = updated(k + 1), updated(1)
    head.grad = grad
    opt.step()
    assert opt.t == k + 1
    assert np.array_equal(head.data, at_global)
    assert not np.array_equal(head.data, at_own)


# -- lr scaling and schedule -------------------------------------------------

def test_optimizer_scales_adamw_groups_only():
    cfg = tiny_config(d_model=8, n_q_heads=2, head_dim=4)
    params = M.init_params(cfg, seed=0)
    opt = O.Optimizer(params, cfg)
    scale = math.sqrt(768 / 8)
    assert opt.group_lrs["muon"] == pytest.approx(0.02)
    assert opt.group_lrs["adamw_embed"] == pytest.approx(0.2 * scale)
    assert opt.group_lrs["adamw_rest"] == pytest.approx(0.002 * scale)


def test_schedule_three_phases():
    assert (O.WARMUP_STEPS, O.DECAY_FRACTION) == (40, 0.65)
    sched = O.Schedule(total_steps=1000)
    assert sched.at(20) == pytest.approx(0.5)
    assert sched.at(40) == pytest.approx(1.0)
    assert sched.at(350) == pytest.approx(1.0)  # 35% mark: constant phase
    assert sched.at(1000) == pytest.approx(0.0)
    mid = (350 + 1000) / 2
    assert sched.at(int(mid)) == pytest.approx(0.5)


def test_schedule_continuous_piecewise_linear():
    sched = O.Schedule(total_steps=400)
    vals = np.array([sched.at(s) for s in range(1, 401)])
    assert vals.max() == pytest.approx(1.0)
    assert np.all(np.abs(np.diff(vals)) <= 1.0 / 40 + 1e-12)


# -- parameter groups ---------------------------------------------------------

def test_param_groups_partition_census():
    cfg = tiny_config()
    params = M.init_params(cfg, seed=0)
    groups = O.build_param_groups(params)
    names = [n for g in groups.values() for n in g]
    assert sorted(names) == sorted(params)
    assert len(names) == len(set(names))
    assert "tok_emb" in groups["adamw_embed"]
    assert "blocks.0.wq" in groups["muon"]
    assert "blocks.1.w3" in groups["muon"]
    assert "patch_proj" in groups["adamw_rest"]
    assert "quantile_head" in groups["adamw_rest"]
    assert "blocks.0.q_norm" in groups["adamw_rest"]


def test_muon_group_is_block_matrices_only():
    cfg = tiny_config()
    groups = O.build_param_groups(M.init_params(cfg, seed=0))
    for name in groups["muon"]:
        assert name.startswith("blocks.")
        assert name.rsplit(".", 1)[-1] in O.MUON_SUFFIXES


def test_optimizer_200_steps_bit_reproducible_desk_config():
    def run():
        cfg = M.ModelConfig()  # desk-scale default
        params = M.init_params(cfg, seed=1)
        opt = O.Optimizer(params, cfg)
        sched = O.Schedule(total_steps=200)
        rng = np.random.default_rng(0)
        for t in range(1, 201):
            for name, p in params.items():
                p.grad = rng.standard_normal(p.shape).astype(np.float32)
            opt.step(lr_mult=sched.at(t))
            opt.zero_grad()
        return {k: v.data.copy() for k, v in params.items()}

    a, b = run(), run()
    assert all(a[k].tobytes() == b[k].tobytes() for k in a)
