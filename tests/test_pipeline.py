import json
import platform
import resource

import numpy as np
import pytest

from patchlm import bpe, codec, data, synth, training
from patchlm import model as M
from patchlm.errors import ConfigError, NumericError
from patchlm.optim import Optimizer, Schedule


def tiny_config(**kw):
    base = dict(n_layers=1, d_model=16, n_q_heads=2, n_kv_heads=1, head_dim=8,
                patch_len=4, n_quantiles=5, vocab_size=300, max_seq=64)
    base.update(kw)
    return M.ModelConfig(**base)


@pytest.fixture(scope="module")
def vocab():
    return bpe.bpe_train([b"the quick brown fox jumps over the lazy dog " * 10], 280)


def make_sources(vocab, config, text=b"a tidy corpus of words " * 40):
    stream = data.TokenStream(data.pack_documents([text], vocab))
    return training.DataSources(
        text_stream=stream,
        ts_source=training.synthetic_ts_source(length=48),
        alignment_source=training.synthetic_alignment_source(length=24),
        vocab=vocab,
    )


# -- token stream / text batches ----------------------------------------

def test_token_stream_cycles():
    stream = data.TokenStream(np.arange(5))
    chunk = stream.next_chunk(12)
    assert np.array_equal(chunk, [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1])


def test_pack_documents_eos_separated(vocab):
    ids = data.pack_documents([b"ab", b"cd"], vocab)
    eos = vocab.specials["<|eos|>"]
    assert (ids == eos).sum() == 2
    assert ids[-1] == eos


def test_build_text_batch_shift(vocab):
    stream = data.TokenStream(np.arange(100))
    batch = data.build_text_batch(stream, seq_len=10, micro_batch=2)
    assert batch.modality == "text"
    assert np.array_equal(batch.inputs.ids[:, 1:], batch.text_targets[:, :-1])
    assert len(batch.inputs.patches) == 0
    assert (batch.text_targets >= 0).sum() == 20
    assert not batch.ts_mask.any()


# -- ts batches ----------------------------------------------------------

def test_build_ts_batch_shift_arithmetic():
    cfg = tiny_config()
    P = cfg.patch_len
    series = codec.RawSeries(np.arange(4 * P, dtype=float))  # exactly 4 patches

    batch = data.build_ts_batch(lambda: series, seq_len=4, micro_batch=1, patch_len=P)
    # 4 patches, supervision on the first 3 (causal shift by one patch)
    assert batch.ts_mask[0, :3].all()
    assert not batch.ts_mask[0, 3].any()
    feats = batch.inputs.patches
    # target of position 0 is the value block of position 1
    assert np.allclose(batch.ts_targets[0, 0], feats[1][P:2 * P])


def test_build_ts_batch_partial_patch_excluded():
    cfg = tiny_config()
    P = cfg.patch_len
    values = np.arange(P + 1, dtype=float)  # 2 patches, second is 1-valid
    series = codec.RawSeries(values)
    batch = data.build_ts_batch(lambda: series, seq_len=2, micro_batch=1, patch_len=P)
    assert np.array_equal(batch.ts_mask[0, 0], [1, 0, 0, 0])  # only first target pos valid
    assert not batch.ts_mask[0, 1].any()


def test_build_ts_batch_cut_channel_keeps_last_target():
    P = 4
    ramp = np.arange(3 * P, dtype=float)
    series = codec.RawSeries(np.stack([ramp, (ramp - 5.0) ** 2]))  # 3 patches per channel
    ch0, ch1 = codec.patchify(series, P)
    batch = data.build_ts_batch(lambda: series, seq_len=5, micro_batch=1, patch_len=P)
    # channel 0 whole, channel 1 cut after its second patch
    assert np.array_equal(batch.inputs.patches, np.concatenate([ch0, ch1[:2]]))
    expect_targets = np.zeros((1, 5, P), dtype=np.float32)
    expect_targets[0, 0] = ch0[1, P:2 * P]
    expect_targets[0, 1] = ch0[2, P:2 * P]
    expect_targets[0, 3] = ch1[1, P:2 * P]
    expect_targets[0, 4] = ch1[2, P:2 * P]  # the patch after the cut
    expect_mask = np.ones((1, 5, P), dtype=np.float32)
    expect_mask[0, 2] = 0.0  # the last patch of channel 0 has no successor
    assert np.array_equal(batch.ts_targets, expect_targets)
    assert np.array_equal(batch.ts_mask, expect_mask)


def test_build_ts_batch_packs_multiple_series():
    cfg = tiny_config()
    P = cfg.patch_len
    calls = {"n": 0}

    def source():
        calls["n"] += 1
        return codec.RawSeries(np.random.default_rng(calls["n"]).normal(size=2 * P))

    batch = data.build_ts_batch(source, seq_len=7, micro_batch=1, patch_len=P)
    assert calls["n"] == 4  # 2 patches each, last one truncated to fit 7
    assert (batch.inputs.ids == M.PATCH).all()
    assert batch.inputs.patches.shape == (7, 4 * P)


# -- interleaved -----------------------------------------------------------

def test_interleaved_pure_text_reduces_to_text(vocab):
    cfg = tiny_config()
    batch = data.build_interleaved_batch([[("text", b"hello world")]], vocab,
                                         seq_len=16, patch_len=cfg.patch_len)
    assert len(batch.inputs.patches) == 0
    assert (batch.text_targets >= 0).any()
    assert not batch.ts_mask.any()


def test_interleaved_dual_masks_and_order(vocab):
    cfg = tiny_config()
    P = cfg.patch_len
    series = codec.RawSeries(np.arange(3 * P, dtype=float))
    batch = data.build_interleaved_batch(
        [[("text", b"rising pattern"), ("series", series)]], vocab,
        seq_len=32, patch_len=P)
    ids = batch.inputs.ids[0]
    assert (batch.text_targets >= 0).any()
    assert batch.ts_mask.any()
    # segment order preserved: every text position of the caption precedes the patches
    ts_pos = np.flatnonzero(ids == M.PATCH)
    sentinel_pos = ts_pos.min() - 1
    assert ids[sentinel_pos] == vocab.specials["<|ts_begin|>"]
    assert ids[ts_pos.max() + 1] == vocab.specials["<|ts_end|>"]
    # no CE target at the boundary into the ts block
    assert batch.text_targets[0, sentinel_pos] == -1


def test_interleaved_loss_routing(vocab):
    cfg = tiny_config()
    P = cfg.patch_len
    series = codec.RawSeries(np.arange(4 * P, dtype=float))
    batch = data.build_interleaved_batch(
        [[("text", b"count up"), ("series", series)]], vocab, seq_len=24, patch_len=P)
    ts_positions = np.flatnonzero(batch.inputs.ids[0] == M.PATCH)
    text_positions = np.flatnonzero(batch.inputs.ids[0] != M.PATCH)
    assert not np.any(batch.ts_mask[0][text_positions].any(axis=1))
    assert np.all(batch.text_targets[0][ts_positions] == -1)


def test_interleaved_cut_inside_series(vocab):
    P = 4
    series = codec.RawSeries(np.arange(3 * P, dtype=float))  # 3 whole patches
    feats = codec.patchify(series, P)[0]
    up = bpe.encode(b"up", vocab)
    n = len(up)
    ts_begin = vocab.specials["<|ts_begin|>"]
    S = n + 3  # room for <|ts_begin|> and 2 of the 3 patches
    batch = data.build_interleaved_batch([[("text", b"up"), ("series", series)]], vocab,
                                         seq_len=S, patch_len=P)
    assert batch.inputs.ids.tolist() == [up + [ts_begin, M.PATCH, M.PATCH]]
    assert np.array_equal(batch.inputs.patches, feats[:2])
    # each kept patch targets its successor's values, the cut-off third one included
    expect_targets = np.zeros((1, S, P), dtype=np.float32)
    expect_targets[0, n + 1] = feats[1, P:2 * P]
    expect_targets[0, n + 2] = feats[2, P:2 * P]
    expect_mask = np.zeros((1, S, P), dtype=np.float32)
    expect_mask[0, n + 1:] = 1.0
    assert np.array_equal(batch.ts_targets, expect_targets)
    assert np.array_equal(batch.ts_mask, expect_mask)
    # CE through <|ts_begin|>; none into the patches, none at the last position
    assert batch.text_targets.tolist() == [up[1:] + [ts_begin] + [-1] * 3]

    cut_text = data.build_interleaved_batch([[("text", b"up"), ("series", series)]], vocab,
                                            seq_len=n, patch_len=P)
    assert cut_text.inputs.ids.tolist() == [up]
    assert cut_text.text_targets.tolist() == [up[1:] + [-1]]  # the next token is cut off


def test_interleaved_short_sample_padded_with_unsupervised_eos(vocab):
    P = 4
    series = codec.RawSeries(np.arange(2 * P, dtype=float))  # 2 whole patches
    feats = codec.patchify(series, P)[0]
    up = bpe.encode(b"up", vocab)
    n = len(up)
    eos = vocab.specials["<|eos|>"]
    ts_begin, ts_end = vocab.specials["<|ts_begin|>"], vocab.specials["<|ts_end|>"]
    batch = data.build_interleaved_batch([[("text", b"up")], [("series", series)]], vocab,
                                         seq_len=8, patch_len=P)
    assert batch.inputs.ids.tolist() == [
        up + [eos] * (8 - n),
        [ts_begin, M.PATCH, M.PATCH, ts_end, eos, eos, eos, eos]]
    assert np.array_equal(batch.inputs.patches, feats)
    # the sample's own <|eos|> is a target; the padding after it is not
    assert batch.text_targets.tolist() == [
        up[1:] + [eos] + [-1] * (8 - n),
        [-1, -1, -1, eos, -1, -1, -1, -1]]
    expect_targets = np.zeros((2, 8, P), dtype=np.float32)
    expect_targets[1, 1] = feats[1, P:2 * P]
    expect_mask = np.zeros((2, 8, P), dtype=np.float32)
    expect_mask[1, 1] = 1.0
    assert np.array_equal(batch.ts_targets, expect_targets)
    assert np.array_equal(batch.ts_mask, expect_mask)


# -- modality sampling --------------------------------------------------------

def test_sample_modality_extremes_and_frequency():
    rng = np.random.default_rng(0)
    assert all(data.sample_modality(rng, 1.0) == "text" for _ in range(100))
    rng = np.random.default_rng(1)
    draws = [data.sample_modality(rng, 0.92) for _ in range(10000)]
    frac = draws.count("text") / len(draws)
    assert abs(frac - 0.92) < 0.01
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    assert [data.sample_modality(rng_a, 0.5) for _ in range(50)] == \
           [data.sample_modality(rng_b, 0.5) for _ in range(50)]


# -- trainer --------------------------------------------------------------------

def test_all_masked_batch_no_update(vocab):
    cfg = tiny_config()
    trainer = training.Trainer(cfg, seed=0)
    before = {k: v.data.copy() for k, v in trainer.params.items()}
    P = cfg.patch_len
    inputs = M.Inputs(np.full((1, 4), M.PATCH), np.zeros((4, 4 * P), dtype=np.float32))
    batch = data.TrainBatch(
        inputs=inputs,
        text_targets=np.full((1, 4), -1, dtype=np.int64),
        ts_targets=np.zeros((1, 4, P), dtype=np.float32),
        ts_mask=np.zeros((1, 4, P), dtype=np.float32),
        modality="ts")
    metrics = trainer.train_step(batch, lr_mult=1.0, w_text=1.0, w_ts=2.5)
    assert metrics["combined"] == 0.0
    for k in before:
        assert trainer.params[k].data.tobytes() == before[k].tobytes()


def test_nan_loss_raises_before_any_update(vocab):
    cfg = tiny_config()
    trainer = training.Trainer(cfg, seed=5)
    sources = make_sources(vocab, cfg)
    for _ in range(3):   # non-trivial optimizer buffers
        trainer.train_step(data.build_ts_batch(lambda: sources.ts_source(trainer.rng), 12, 2,
                                               cfg.patch_len), 1.0, 1.0, 2.5)
    batch = data.build_ts_batch(lambda: sources.ts_source(trainer.rng), 12, 2, cfg.patch_len)
    valid = np.argwhere(batch.ts_mask > 0)[0]
    batch.ts_targets[tuple(valid)] = np.nan            # a NaN target under the mask

    def state():
        return ({k: v.data.tobytes() for k, v in trainer.params.items()},
                {k: v.tobytes() for k, v in trainer.optimizer.state_tensors().items()},
                trainer.optimizer.t, trainer.step)

    before = state()
    with pytest.raises(NumericError, match=r"^step 4 \(ts batch\): loss is not finite"):
        trainer.train_step(batch, 1.0, 1.0, 2.5)
    assert state() == before
    assert all(p.grad is None for p in trainer.params.values())


def test_nonfinite_gradient_raises_with_step_and_modality(vocab, monkeypatch):
    cfg = tiny_config()
    trainer = training.Trainer(cfg, seed=5)
    sources = make_sources(vocab, cfg)
    for _ in range(2):
        trainer.train_step(data.build_text_batch(sources.text_stream, 12, 2), 1.0, 1.0, 2.5)
    step = Optimizer.step

    def nan_in_final_norm(self, lr_mult=1.0):
        self.params["final_norm"].grad[0] = np.nan   # a finite loss, a NaN gradient
        step(self, lr_mult)

    monkeypatch.setattr(Optimizer, "step", nan_in_final_norm)
    before = {k: v.data.tobytes() for k, v in trainer.params.items()}
    with pytest.raises(NumericError,
                       match=r"^step 3 \(text batch\): non-finite gradient in final_norm$"):
        trainer.train_step(data.build_text_batch(sources.text_stream, 12, 2), 1.0, 1.0, 2.5)
    assert {k: v.data.tobytes() for k, v in trainer.params.items()} == before
    assert (trainer.optimizer.t, trainer.step) == (2, 2)


def test_text_step_leaves_ts_params_untouched(vocab):
    cfg = tiny_config()
    trainer = training.Trainer(cfg, seed=1)
    sources = make_sources(vocab, cfg)
    q_before = trainer.params["quantile_head"].data.copy()
    p_before = trainer.params["patch_proj"].data.copy()
    batch = data.build_text_batch(sources.text_stream, 12, 2)
    trainer.train_step(batch, 1.0, 1.0, 2.5)
    assert np.array_equal(trainer.params["quantile_head"].data, q_before)
    assert np.array_equal(trainer.params["patch_proj"].data, p_before)
    assert trainer.params["quantile_head"].grad is None


def test_ts_step_leaves_text_embedding_untouched(vocab):
    cfg = tiny_config()
    trainer = training.Trainer(cfg, seed=2)
    sources = make_sources(vocab, cfg)
    emb_before = trainer.params["tok_emb"].data.copy()
    batch = data.build_ts_batch(lambda: sources.ts_source(trainer.rng), 12, 2, cfg.patch_len)
    trainer.train_step(batch, 1.0, 1.0, 2.5)
    assert np.array_equal(trainer.params["tok_emb"].data, emb_before)


@pytest.mark.parametrize("modality", ["text", "ts"])
def test_single_modality_step_backward_root_is_float32(vocab, monkeypatch, modality):
    cfg = tiny_config()
    trainer = training.Trainer(cfg, seed=4)
    sources = make_sources(vocab, cfg)
    if modality == "text":
        batch = data.build_text_batch(sources.text_stream, 12, 2)
    else:
        batch = data.build_ts_batch(lambda: sources.ts_source(trainer.rng), 12, 2, cfg.patch_len)
    roots = []
    backward = training.Tensor.backward

    def spy(self):
        roots.append(self.dtype)
        backward(self)

    monkeypatch.setattr(training.Tensor, "backward", spy)
    trainer.train_step(batch, 1.0, 1.0, 2.5)
    assert roots == [np.float32]


def test_overfit_fixed_ts_batch(vocab):
    cfg = tiny_config()
    trainer = training.Trainer(cfg, seed=3)
    rng = np.random.default_rng(0)
    series = codec.RawSeries(np.sin(np.linspace(0, 12, 64)) + 0.05 * rng.normal(size=64))
    batch = data.build_ts_batch(lambda: series, 16, 2, cfg.patch_len)
    first = trainer.train_step(batch, 1.0, 1.0, 2.5)["ql"]
    last = first
    for _ in range(50):
        last = trainer.train_step(batch, 1.0, 1.0, 2.5)["ql"]
    assert last < first * 0.7


def test_loss_routing_zeroing(vocab):
    cfg = tiny_config()
    trainer = training.Trainer(cfg, seed=4)
    rng = np.random.default_rng(5)
    samples = [
        [("text", b"up"), ("series", codec.RawSeries(rng.normal(size=4 * cfg.patch_len)))]
        for _ in range(2)
    ]
    batch = data.build_interleaved_batch(samples, vocab, 24, cfg.patch_len)
    assert batch.ts_mask.any()

    def losses_of(b):
        t = training.Trainer(cfg, seed=4)
        m = t.train_step(b, 0.0, 1.0, 2.5)
        return m["ce"], m["ql"]

    ce0, ql0 = losses_of(batch)
    zero_ts = data.TrainBatch(batch.inputs, batch.text_targets,
                              np.zeros_like(batch.ts_targets), batch.ts_mask, "interleaved")
    ce1, ql1 = losses_of(zero_ts)
    assert ce1 == ce0 and ql1 != ql0
    zero_text = data.TrainBatch(batch.inputs, np.full_like(batch.text_targets, -1),
                                batch.ts_targets, batch.ts_mask, "interleaved")
    ce2, ql2 = losses_of(zero_text)
    assert ce2 == 0.0 and ql2 == ql0


def test_run_stage_and_metrics_monotone_step(vocab, tmp_path):
    cfg = tiny_config()
    trainer = training.Trainer(cfg, seed=5)
    sources = make_sources(vocab, cfg)
    stage = training.StageConfig(seq_len=12, total_steps=8, micro_batch=1,
                                 text_prob=0.5, log_every=2)
    records = []
    trainer.run_stage(stage, sources, Schedule(total_steps=8),
                      metrics_sink=records.append)
    assert trainer.step == 8
    steps = [r["step"] for r in records]
    assert steps == sorted(steps)
    assert records[-1]["step"] == 8
    assert {"ce", "ql", "combined", "lr", "tokens_seen", "modality"} <= set(records[0])


def test_checkpoint_resume_bit_identical(vocab, tmp_path):
    cfg = tiny_config()
    stage = training.StageConfig(seq_len=12, total_steps=6, micro_batch=1,
                                 text_prob=0.6, align_fraction=0.3, log_every=1)
    schedule = Schedule(total_steps=20)

    def fresh(seed):
        return training.Trainer(cfg, seed=seed), make_sources(vocab, cfg)

    # uninterrupted: 6 + 6 steps
    trainer, sources = fresh(9)
    trainer.run_stage(stage, sources, schedule)
    baseline = []
    trainer.run_stage(stage, sources, schedule, metrics_sink=baseline.append)

    # interrupted: 6 steps, save, load, 6 more
    trainer2, sources2 = fresh(9)
    trainer2.run_stage(stage, sources2, schedule)
    path = str(tmp_path / "ckpt.bin")
    trainer2.save(path, sources2)
    trainer3 = training.Trainer.load(path, sources2)
    resumed = []
    trainer3.run_stage(stage, sources2, schedule, metrics_sink=resumed.append)

    assert [json.dumps(r) for r in baseline] == [json.dumps(r) for r in resumed]
    for k in trainer.params:
        assert trainer.params[k].data.tobytes() == trainer3.params[k].data.tobytes()


def test_stage2_alignment_fraction(vocab):
    cfg = tiny_config()
    trainer = training.Trainer(cfg, seed=11)
    sources = make_sources(vocab, cfg)
    stage = training.StageConfig(seq_len=12, total_steps=1, micro_batch=1,
                                 text_prob=0.0, align_fraction=0.05)
    kinds = []
    for _ in range(6000):
        kinds.append(trainer.next_batch(stage, sources).modality)
    frac = kinds.count("interleaved") / len(kinds)
    assert abs(frac - 0.05) < 0.01


def test_missing_sources_raise(vocab):
    cfg = tiny_config()
    trainer = training.Trainer(cfg, seed=0)
    stage = training.StageConfig(text_prob=1.0)
    with pytest.raises(ConfigError):
        trainer.next_batch(stage, training.DataSources())


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_steady_text_step_takes_no_page_faults():
    # the bench's text step: the default model, 4 rows of 256 tokens; at
    # glibc's default malloc settings each step faults about 10k pages in
    cfg = M.ModelConfig()
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, 1 << 14)
    stream = data.TokenStream(ids)
    trainer = training.Trainer(cfg, seed=0)
    faults = []
    for _ in range(3):
        batch = data.build_text_batch(stream, 256, 4)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        trainer.train_step(batch, 1e-3, 1.0, 1.0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert faults[-1] < 500, faults
