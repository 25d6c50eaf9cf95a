import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchlm import codec
from patchlm.errors import DataError, InvalidSeriesError

ARCSINH_1 = math.log(1 + math.sqrt(2))  # 0.881373...


def test_visible_stats_population_std():
    stats = codec.compute_visible_stats(codec.RawSeries([1.0, 3.0]))
    assert stats.mu[0] == 2.0
    assert stats.sigma[0] == 1.0


def test_visible_stats_constant_clamped():
    stats = codec.compute_visible_stats(codec.RawSeries([5.0, np.nan, 5.0]))
    assert stats.mu[0] == 5.0
    assert stats.sigma[0] == codec.SIGMA_FLOOR


def test_all_nan_rejected():
    with pytest.raises(InvalidSeriesError):
        codec.compute_visible_stats(codec.RawSeries([np.nan, np.nan]))


def test_normalize_center_and_unit():
    stats = codec.NormStats(mu=[2.0], sigma=[1.0])
    assert codec.normalize(np.array([[2.0]]), stats)[0, 0] == 0.0
    assert np.isclose(codec.normalize(np.array([[3.0]]), stats)[0, 0], ARCSINH_1)
    assert np.isclose(codec.normalize(np.array([[1.0]]), stats)[0, 0], -ARCSINH_1)


def test_normalize_nan_passthrough():
    stats = codec.NormStats(mu=[0.0], sigma=[1.0])
    out = codec.normalize(np.array([[1.0, np.nan]]), stats)
    assert out.shape == (1, 2) and np.isnan(out[0, 1]) and np.isfinite(out[0, 0])


def test_denormalize_inverts():
    stats = codec.NormStats(mu=[2.0], sigma=[1.0])
    assert codec.denormalize(np.array([[0.0]]), stats)[0, 0] == 2.0
    assert np.isclose(codec.denormalize(np.array([[ARCSINH_1]]), stats)[0, 0], 3.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 60))
def test_roundtrip_random_series(seed, length):
    rng = np.random.default_rng(seed)
    x = rng.normal(loc=rng.uniform(-50, 50), scale=rng.uniform(0.1, 100), size=(1, length))
    series = codec.RawSeries(x)
    stats = codec.compute_visible_stats(series)
    back = codec.denormalize(codec.normalize(x, stats), stats)
    assert back.shape == x.shape and np.allclose(back, x, rtol=1e-6, atol=1e-9)


def test_stats_ignore_nan_bit_identical():
    rng = np.random.default_rng(4)
    visible = rng.normal(size=20)
    stats_clean = codec.compute_visible_stats(codec.RawSeries(visible))
    gappy = np.concatenate([[np.nan], visible[:7], [np.nan, np.nan], visible[7:], [np.nan]])
    stats_gappy = codec.compute_visible_stats(codec.RawSeries(gappy))
    assert stats_clean.mu[0].tobytes() == stats_gappy.mu[0].tobytes()
    assert stats_clean.sigma[0].tobytes() == stats_gappy.sigma[0].tobytes()


def test_time_ramp_values():
    assert np.allclose(codec.extend_time_ramp(4, 0, 4), [-0.75, -0.5, -0.25, 0.0])
    assert np.array_equal(codec.extend_time_ramp(1, 0, 1), [0.0])


def test_time_ramp_extends_past_end():
    ext = codec.extend_time_ramp(4, start=4, count=2)
    assert np.allclose(ext, [0.25, 0.5])


@pytest.mark.parametrize("n,expect", [(1, [0.0]), (2, [0.0, 1.0]), (3, [0.0, 0.5, 1.0])])
def test_channel_ramp(n, expect):
    assert np.allclose(codec.build_channel_ramp(n), expect)


def test_patchify_exact_fit():
    feats = codec.patchify(codec.RawSeries(np.arange(64.0)), patch_len=32)
    assert feats.shape == (1, 2, 4 * 32) and feats.dtype == np.float32
    assert (feats[..., 64:96] == 1.0).all()


def test_patchify_partial_patch():
    feats = codec.patchify(codec.RawSeries(np.arange(33.0)), patch_len=32)
    assert feats.shape == (1, 2, 4 * 32)
    assert feats[0, 1, 64:96].sum() == 1
    assert not feats[0, 1].reshape(4, 32)[:, 1:].any()  # the tail zeroes every block


def test_patchify_nan_masks_value():
    x = np.arange(10.0)
    x[3] = np.nan
    feats = codec.patchify(codec.RawSeries(x), patch_len=16)[0]
    P = 16
    assert feats[0][2 * P + 3] == 0.0         # mask block zeroed
    assert feats[0][P + 3] == 0.0             # value block zeroed
    assert feats[0][3] != 0.0                 # ramp survives at NaN


def test_feature_block_order():
    x = np.ones(4)
    feats = codec.patchify(codec.RawSeries(x), patch_len=4)[0]
    P = 4
    r, v, m, c = (feats[0][i * P:(i + 1) * P] for i in range(4))
    assert np.allclose(r, codec.extend_time_ramp(4, 0, 4))
    # constant series: sigma clamps, values normalize to 0
    assert np.allclose(v, 0.0)
    assert np.allclose(m, 1.0)
    assert np.allclose(c, 0.0)
    assert feats.shape[1] == 4 * P


def test_feature_vector_assembled_by_hand():
    r = np.array([[0.5, 0.6]])
    v = np.array([[1.0, 2.0]])
    m = np.array([[1.0, 0.0]])
    c = np.array([[0.25, 0.25]])
    f = codec.assemble_features(r, v, m, c)
    assert np.allclose(f[0], [0.5, 0.6, 1.0, 2.0, 1.0, 0.0, 0.25, 0.25])


def test_multichannel_layout_and_ramp_reset():
    values = np.stack([np.arange(6.0), np.arange(6.0) * 2])
    feats = codec.patchify(codec.RawSeries(values), patch_len=4)
    assert feats.shape == (2, 2, 16)  # 2 patches per channel
    P = 4
    # ramp block restarts at the channel boundary
    first_ramp_c0 = feats[0, 0][:P]
    first_ramp_c1 = feats[1, 0][:P]
    assert np.allclose(first_ramp_c0, first_ramp_c1)
    # channel block: 0 for channel 0, 1 for channel 1 (within the length)
    assert np.allclose(feats[0, 0][3 * P:], 0.0)
    assert np.allclose(feats[1, 0][3 * P:3 * P + 2], [1.0, 1.0])


def _pad_to_patches(x, patch_len, fill=0.0):
    n_patches = math.ceil(x.size / patch_len)
    padded = np.full(n_patches * patch_len, fill, dtype=np.float64)
    padded[: x.size] = x
    return padded.reshape(n_patches, patch_len)


def per_channel_patchify(series, patch_len, stats=None):
    """The per-channel loop that ``codec.patchify`` replaced, kept as its oracle:
    ([C*n, 4P] features, [C*n, P] bool validity, one row slice per channel)."""
    if stats is None:
        stats = codec.compute_visible_stats(series)
    normed = codec.normalize(series.values, stats)
    channel_vals = codec.build_channel_ramp(series.n_channels)
    feats, valids, slices = [], [], []
    row = 0
    length = series.length
    for c in range(series.n_channels):
        finite = np.isfinite(series.values[c])
        v_p = _pad_to_patches(np.where(finite, normed[c], 0.0), patch_len)
        m_p = _pad_to_patches(finite.astype(np.float64), patch_len)
        r_p = _pad_to_patches(codec.extend_time_ramp(length, 0, length), patch_len)
        c_p = channel_vals[c] * _pad_to_patches(np.ones(length), patch_len)
        feats.append(codec.assemble_features(r_p, v_p, m_p, c_p))
        valids.append(m_p.astype(bool))
        slices.append(slice(row, row + len(v_p)))
        row += len(v_p)
    return np.concatenate(feats), np.concatenate(valids), slices


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 80), st.integers(1, 9),
       st.integers(0, 2 ** 31 - 1), st.booleans())
def test_patchify_matches_per_channel_oracle(channels, length, patch_len, seed, explicit):
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=rng.uniform(0.1, 50), size=(channels, length))
    values[rng.random(values.shape) < rng.uniform(0, 0.6)] = np.nan
    values[np.arange(channels), rng.integers(0, length, channels)] = rng.normal(size=channels)
    series = codec.RawSeries(values)
    stats = (codec.NormStats(rng.normal(size=channels), rng.uniform(0.5, 3, channels))
             if explicit else None)
    feats = codec.patchify(series, patch_len, stats=stats)
    oracle, validity, slices = per_channel_patchify(series, patch_len, stats)
    n = math.ceil(length / patch_len)
    P = patch_len
    assert feats.shape == (channels, n, 4 * P) and feats.dtype == np.float32
    assert feats.reshape(-1, 4 * P).tobytes() == oracle.tobytes()
    assert np.array_equal(validity, feats[..., 2 * P:3 * P].reshape(-1, P) > 0)
    assert slices == [slice(c * n, (c + 1) * n) for c in range(channels)]


def test_multichannel_stats_per_channel():
    values = np.stack([np.zeros(8), np.full(8, 100.0)])
    values[0, 0] = 2.0
    stats = codec.compute_visible_stats(codec.RawSeries(values))
    assert stats.mu[0] == 0.25 and stats.mu[1] == 100.0


def test_jsonl_roundtrip(tmp_path):
    path = tmp_path / "series.jsonl"
    s1 = codec.RawSeries([1.0, None if False else np.nan, 3.0], series_id="a", freq="daily")
    s2 = codec.RawSeries(np.ones((2, 4)), series_id="b")
    codec.write_jsonl(str(path), map(codec.series_to_record, [s1, s2]))
    loaded = list(codec.read_jsonl(str(path), codec.series_from_record))
    assert loaded[0].series_id == "a" and loaded[0].freq == "daily"
    assert np.isnan(loaded[0].values[0, 1])
    assert loaded[1].values.shape == (2, 4)
    raw = [json.loads(line) for line in open(path)]
    assert raw[0]["values"][1] is None


def test_record_validation():
    with pytest.raises(DataError):
        codec.series_from_record({"id": "x"})
    with pytest.raises(DataError):
        codec.series_from_record({"values": [[1.0, 2.0], [1.0]]})


@pytest.mark.parametrize("values", ["abc", [1, "x", 3], 5, [[1.0, 2.0], "ab"], [True, 2.0],
                                    [1.0, 10 ** 400]])
def test_malformed_values_are_data_errors_naming_file_and_line(tmp_path, values):
    with pytest.raises(DataError, match="'values'"):
        codec.series_from_record({"id": "x", "values": values})
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"id": "ok", "values": [1.0]}) + "\n"
                    + json.dumps({"id": "x", "values": values}) + "\n")
    with pytest.raises(DataError, match=r"bad\.jsonl:2: .*'values'"):
        list(codec.read_jsonl(str(path), codec.series_from_record))
