from collections import Counter

import numpy as np
import pytest

from patchlm import synth as S
from patchlm.errors import ConfigError


def test_bank_has_33_entries_and_17_categories():
    assert len(S.KERNEL_BANK) == 33
    assert len(S.KERNEL_CATEGORIES) == 17
    counts = Counter(cat for cat, _, _ in S.KERNEL_BANK)
    assert counts["rbf"] == 5
    assert counts["periodic"] == 5
    assert counts["rational_quadratic"] == 2
    assert counts["periodic_harmonics"] == 1
    assert counts["polynomial"] == 2
    assert counts["random_walk"] == 2
    assert counts["discrete_wave"] == 3
    assert counts["damped_oscillation"] == 2
    assert counts["white_noise"] == 3
    for cat in ("linear_trend", "log_trend", "level_shift", "heteroskedastic_noise",
                "periodic_noise", "step_function", "exponential_trend", "constant"):
        assert counts[cat] == 1


def test_forced_linear_trend_is_time():
    t = S.normalized_time(64)
    x = S.force_kernel_series(64, 0, "linear_trend", {"slope": 1.0, "intercept": 0.0})
    assert np.allclose(x, t)


def test_forced_constant():
    x = S.force_kernel_series(32, 0, "constant", {"level": 1.25})
    assert np.all(x == np.float32(1.25))


def test_rbf_bounded_and_degenerate_case():
    rng = np.random.default_rng(0)
    t = S.normalized_time(256)
    for _ in range(20):
        x = S.rbf_smooth(t, rng)
        assert np.all(np.abs(x) <= 1.0 + 1e-6)
    # infinite length scale drives every frequency to zero: constant cos(phase)
    x = S.rbf_smooth(t, rng, {"length_scale": np.inf}, n_features=1)
    assert np.allclose(x, x[0])
    assert abs(x[0]) <= 1.0


def test_rbf_length_scale_controls_smoothness():
    t = S.normalized_time(256)
    def mean_lag1(ls_range, seed):
        rng = np.random.default_rng(seed)
        acs = []
        for _ in range(300):
            x = S.rbf_smooth(t, rng, {"length_scale": rng.uniform(*ls_range)})
            x = x - x.mean()
            denom = float(x @ x)
            if denom > 1e-12:
                acs.append(float(x[:-1] @ x[1:]) / denom)
        return np.mean(acs)

    assert mean_lag1((0.1, 1.0), 1) > mean_lag1((0.01, 0.05), 1)


@pytest.mark.parametrize("length", [2, 257, S.RFF_BLOCK, S.RFF_BLOCK + 1,
                                    2 * S.RFF_BLOCK + 1, 4 * S.RFF_BLOCK])
def test_rff_blocks_match_unblocked_mean(length):
    rng = np.random.default_rng(length)
    t = S.normalized_time(length)
    w = rng.normal(0.0, 50.0, 32).astype(np.float32)
    phases = rng.uniform(0.0, 2.0 * np.pi, 32).astype(np.float32)
    angles = np.multiply.outer(w, t) + phases[:, None]
    assert S._rff_mean_cos(w, phases, t).tobytes() == np.cos(angles).mean(axis=0).tobytes()


def test_wave_frac_matches_mod():
    t = S.normalized_time(4099)
    for p in ({"period": 0.05, "phase": 0.3}, {"period": 0.37, "phase": 0.999},
              {"period": 0.011, "phase": -3.7}):
        frac = S._wave_frac(t, p)
        assert frac.tobytes() == np.mod(t / p["period"] + p["phase"], 1.0).tobytes()


def test_normalized_time_is_shared_and_read_only():
    t = S.normalized_time(300)
    assert t is S.normalized_time(300)
    assert t.dtype == np.float32 and t[0] == 0.0 and t[-1] == 1.0
    with pytest.raises(ValueError):
        t[0] = 1.0


def test_log_trend_clips_at_origin():
    x = S.force_kernel_series(16, 0, "log_trend", {"coef": 1.0})
    assert x[0] == -5.0  # log(0) = -inf hits the pre-combination clip
    assert np.isfinite(x).all()


def test_damped_oscillation_decays():
    x = S.force_kernel_series(128, 3, "damped_oscillation",
                              {"phase": np.pi / 2, "amplitude": 1.5})
    assert abs(x[-1]) < abs(x[0])


def test_step_function_segments():
    for seed in range(5):
        x = S.force_kernel_series(200, seed, "step_function", {})
        n_segments = 1 + int((np.diff(x) != 0).sum())
        assert 3 <= n_segments <= 11


@pytest.mark.parametrize("length", range(2, 12))
def test_short_series_sample_without_error(length):
    # step_function draws up to 11 segments; a shorter series gets fewer
    for seed in range(300):
        x = S.sample_series(length, seed)
        assert x.shape == (length,) and np.isfinite(x).all()
        x = S.force_kernel_series(length, seed, "step_function", {})
        assert 1 + int((np.diff(x) != 0).sum()) <= length


def test_level_shift_in_middle_80pct():
    for seed in range(10):
        x = S.force_kernel_series(100, seed, "level_shift", {"n_shifts": 1})
        (changes,) = np.nonzero(np.diff(x))
        assert len(changes) == 1
        assert 9 <= changes[0] < 90


def test_every_category_reachable():
    for cat in S.KERNEL_CATEGORIES:
        x = S.sample_series(64, 12, force_kernel=cat)
        assert np.isfinite(x).all()
        assert x.dtype == np.float32


def test_unknown_kernel_rejected():
    with pytest.raises(ConfigError):
        S.sample_series(64, 0, force_kernel="nope")


# -- composition ----------------------------------------------------------

def test_compose_single_kernel_identity():
    rng = np.random.default_rng(0)
    k = rng.normal(size=32).astype(np.float32)
    assert np.array_equal(S.compose([k], "additive", rng), k)
    assert np.array_equal(S.compose([k], "mixed", rng), k)


def test_compose_additive_matches_stacked_sum():
    rng = np.random.default_rng(3)
    ks = [rng.normal(0.0, 10.0 ** e, 1000).astype(np.float32) for e in range(-3, 2)]
    out = S.compose(ks, "additive", rng)
    assert out.tobytes() == np.sum(ks, axis=0).tobytes()
    assert ks[0].tobytes() == np.sum(ks[:1], axis=0).tobytes()  # inputs untouched


def test_compose_two_constants_additive():
    a = np.full(8, 1.5, dtype=np.float32)
    b = np.full(8, -0.25, dtype=np.float32)
    out = S.compose([a, b], "additive", np.random.default_rng(0))
    assert np.allclose(out, 1.25)


def test_compose_multiplicative_shift_positive():
    rng = np.random.default_rng(1)
    a = rng.normal(size=64).astype(np.float32)
    b = rng.normal(size=64).astype(np.float32)
    out = S.compose([a, b], "mixed", np.random.default_rng(2), multiply_prob=1.0)
    factor = S.shift_positive(b)
    assert factor.min() >= 1.0  # min-shift oracle: factor strictly positive
    assert np.allclose(out, a * factor, atol=1e-5)


def test_compose_unknown_mode():
    with pytest.raises(ConfigError):
        S.compose([np.ones(4)], "weird", np.random.default_rng(0))


# -- sampling ---------------------------------------------------------------

def test_sample_finite_and_bounded():
    for seed in range(50):
        x = S.sample_series(1024, seed)
        assert np.isfinite(x).all()
        assert np.abs(x).max() <= 1e7


def test_sample_deterministic_per_seed():
    a = S.sample_series(512, 123)
    b = S.sample_series(512, 123)
    assert a.tobytes() == b.tobytes()
    assert S.sample_series(512, 124).tobytes() != a.tobytes()


def test_kernel_count_and_mode_statistics():
    counts = Counter()
    modes = Counter()
    for seed in range(2000):
        _, info = S.sample_series_info(16, seed)
        counts[len(info.kernel_names)] += 1
        modes[info.mode] += 1
    assert set(counts) == {2, 3, 4, 5}
    for k in counts.values():
        assert k > 2000 * 0.15  # near-uniform over 2..5
    additive_frac = modes["additive"] / 2000
    assert abs(additive_frac - 0.8) < 0.03


def test_length_floor():
    with pytest.raises(ConfigError):
        S.sample_series(1, 0)
