import copy
import dataclasses
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from patchlm import bpe, checkpoint, codec
from patchlm import config as cfgmod
from patchlm import model as M
from patchlm.cli import dispatch
from patchlm.optim import Optimizer


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return dispatch(list(argv))


def test_unknown_subcommand_usage_error(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


def test_tokenize_roundtrip_files(workdir):
    (workdir / "corpus.txt").write_bytes(b"hello hello bytes bytes " * 20)
    assert run("tokenize", "train", "--input", "corpus.txt",
               "--vocab-size", "300", "--out", "vocab.json") == 0
    assert os.path.exists("vocab.json")
    assert os.path.exists("vocab.json.manifest.json")
    (workdir / "msg.txt").write_bytes(b"hello bytes")
    assert run("tokenize", "encode", "--vocab", "vocab.json",
               "--input", "msg.txt", "--out", "ids.json") == 0
    assert run("tokenize", "decode", "--vocab", "vocab.json",
               "--input", "ids.json", "--out", "back.txt") == 0
    assert (workdir / "back.txt").read_bytes() == b"hello bytes"


def test_tokenize_vocab_floor_exit_code(workdir):
    (workdir / "c.txt").write_bytes(b"abc")
    assert run("tokenize", "train", "--input", "c.txt",
               "--vocab-size", "256", "--out", "v.json") == 2


def test_synth_generate_deterministic(workdir):
    assert run("--seed", "3", "synth", "generate", "--n", "4", "--len", "64",
               "--out", "a.jsonl") == 0
    assert run("--seed", "3", "synth", "generate", "--n", "4", "--len", "64",
               "--out", "b.jsonl") == 0
    assert (workdir / "a.jsonl").read_text() == (workdir / "b.jsonl").read_text()
    series = list(codec.read_jsonl("a.jsonl", codec.series_from_record))
    assert len(series) == 4 and series[0].length == 64


def test_synth_force_kernel(workdir):
    assert run("synth", "generate", "--n", "2", "--len", "32",
               "--force-kernel", "constant", "--out", "c.jsonl") == 0
    for s in codec.read_jsonl("c.jsonl", codec.series_from_record):
        assert np.allclose(s.values, s.values[0, 0])


def test_synth_short_series_exit_0(workdir):
    assert run("--seed", "0", "synth", "generate", "--n", "10", "--len", "8",
               "--out", "short.jsonl") == 0
    series = list(codec.read_jsonl("short.jsonl", codec.series_from_record))
    assert [s.length for s in series] == [8] * 10


def test_train_missing_config_exit_2(workdir):
    assert run("train", "--config", "nope.toml") == 2


def _write_training_fixture(workdir):
    (workdir / "corpus.txt").write_bytes(
        b"the cat sat on the mat. the dog sat on the log. " * 8)
    run("tokenize", "train", "--input", "corpus.txt", "--vocab-size", "280",
        "--out", "vocab.json")
    (workdir / "run.toml").write_text("""
[model]
n_layers = 1
d_model = 16
n_q_heads = 2
n_kv_heads = 1
head_dim = 8
patch_len = 4
n_quantiles = 5
vocab_size = 284
max_seq = 64

[stage1]
seq_len = 16
total_steps = 6
micro_batch = 1
text_prob = 0.6
log_every = 2

[stage2]
seq_len = 24
total_steps = 3
micro_batch = 1
text_prob = 0.5
align_fraction = 0.3
log_every = 1

[data]
text = "corpus.txt"
vocab = "vocab.json"
out_dir = "run_out"
synth_length = 48
align_length = 16
""")


def test_train_nonfinite_gradient_exit_4(workdir, capsys, monkeypatch):
    _write_training_fixture(workdir)
    step = Optimizer.step

    def nan_on_third_step(self, lr_mult=1.0):
        if self.t == 2:   # a finite loss whose final_norm gradient is NaN
            self.params["final_norm"].grad[:] = np.nan
        step(self, lr_mult)

    monkeypatch.setattr(Optimizer, "step", nan_on_third_step)
    assert run("train", "--config", "run.toml") == 4
    assert re.fullmatch(r"numeric failure: step 3 \((text|ts|interleaved) batch\): "
                        r"non-finite gradient in final_norm\n", capsys.readouterr().err)


def test_train_forecast_embed_probe_eval_end_to_end(workdir):
    import time
    start = time.monotonic()
    _write_training_fixture(workdir)
    assert run("--seed", "1", "train", "--config", "run.toml") == 0
    assert os.path.exists("run_out/stage1.ckpt")
    assert os.path.exists("run_out/stage2.ckpt")
    metrics_records = [json.loads(l) for l in open("run_out/metrics.jsonl")]
    assert metrics_records[-1]["step"] == 9
    assert {"ce", "ql", "combined", "lr", "modality"} <= set(metrics_records[0])
    assert os.path.exists("run_out/manifest.json")

    run("--seed", "5", "synth", "generate", "--n", "3", "--len", "40", "--out", "ctx.jsonl")
    assert run("forecast", "--ckpt", "run_out/stage2.ckpt", "--input", "ctx.jsonl",
               "--horizon", "8", "--out", "fc.jsonl") == 0
    fc = [json.loads(l) for l in open("fc.jsonl")]
    assert len(fc) == 3
    assert np.asarray(fc[0]["quantiles"]).shape == (8, 5)

    # truth file pairing contexts with (synthetic) targets for eval
    truth = []
    for s in codec.read_jsonl("ctx.jsonl", codec.series_from_record):
        truth.append({"id": s.series_id, "context": s.values[0][:-8].tolist(),
                      "target": s.values[0][-8:].tolist()})
    with open("truth.jsonl", "w") as fh:
        for r in truth:
            fh.write(json.dumps(r) + "\n")
    # forecasts above used the full series as context; rebuild from the shorter context
    with open("ctx_short.jsonl", "w") as fh:
        for r in truth:
            fh.write(json.dumps({"id": r["id"], "values": r["context"]}) + "\n")
    assert run("forecast", "--ckpt", "run_out/stage2.ckpt", "--input", "ctx_short.jsonl",
               "--horizon", "8", "--out", "fc2.jsonl") == 0
    assert run("eval", "forecast", "--pred", "fc2.jsonl", "--truth", "truth.jsonl",
               "--season", "1", "--out", "report.json") == 0
    report = json.load(open("report.json"))
    assert "geomean_mase_ratio" in report

    assert run("embed", "--ckpt", "run_out/stage2.ckpt", "--input", "ctx.jsonl",
               "--repeat", "2", "--out", "emb.jsonl") == 0
    embs = [json.loads(l) for l in open("emb.jsonl")]
    assert len(embs[0]["embedding"]) == 16

    with open("labels.jsonl", "w") as fh:
        for i, r in enumerate(embs):
            fh.write(json.dumps({"id": r["id"], "label": i % 2}) + "\n")
    assert run("probe", "--embeddings", "emb.jsonl", "--labels", "labels.jsonl",
               "--epochs", "5", "--out", "probe.json") == 0
    probe_metrics = json.load(open("probe.json"))
    assert {"accuracy", "macro_f1", "auc"} <= set(probe_metrics)
    assert time.monotonic() - start < 120  # synth -> train -> forecast smoke budget


def test_train_resume_matches_config(workdir):
    _write_training_fixture(workdir)
    assert run("--seed", "1", "train", "--config", "run.toml", "--stage", "1") == 0
    assert run("--seed", "1", "train", "--config", "run.toml", "--stage", "2",
               "--resume", "run_out/stage1.ckpt") == 0
    assert os.path.exists("run_out/stage2.ckpt")


def _with_extra(workdir, src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with ``edit`` applied to its manifest's extra."""
    raw = (workdir / src).read_bytes()
    (n,) = struct.unpack("<Q", raw[:8])
    manifest = json.loads(raw[8:8 + n])
    edit(manifest["extra"])
    blob = json.dumps(manifest).encode()
    (workdir / dst).write_bytes(struct.pack("<Q", len(blob)) + blob + raw[8 + n:])


@pytest.mark.parametrize("text_pos", ["abc", 10 ** 9, -5])
def test_train_resume_bad_text_pos_exit_3(workdir, capsys, text_pos):
    _write_training_fixture(workdir)
    assert run("--seed", "1", "train", "--config", "run.toml", "--stage", "1") == 0
    _with_extra(workdir, "run_out/stage1.ckpt", "bad.ckpt",
                lambda extra: extra.update(text_pos=text_pos))
    capsys.readouterr()
    assert run("--seed", "1", "train", "--config", "run.toml", "--stage", "2",
               "--resume", "bad.ckpt") == 3
    err = capsys.readouterr().err
    assert "text_pos" in err and "Traceback" not in err


@pytest.mark.parametrize("saved", ["same", "other", "absent"])
def test_train_resume_names_a_different_code_digest(workdir, capsys, saved):
    _write_training_fixture(workdir)
    assert run("--seed", "1", "train", "--config", "run.toml", "--stage", "1") == 0
    code = cfgmod.code_digest()
    assert checkpoint.load_checkpoint("run_out/stage1.ckpt")[2]["code_digest"] == code
    other = "0" * 64

    def edit(extra):
        if saved == "other":
            extra["code_digest"] = other
        elif saved == "absent":
            del extra["code_digest"]
    _with_extra(workdir, "run_out/stage1.ckpt", "resume.ckpt", edit)
    capsys.readouterr()
    assert run("--seed", "1", "train", "--config", "run.toml", "--stage", "2",
               "--resume", "resume.ckpt") == 0
    lines = capsys.readouterr().err.splitlines()
    if saved == "other":
        assert len(lines) == 1 and other in lines[0] and code in lines[0], lines
        assert lines[0].startswith("warning: resume.ckpt ")
    else:
        assert lines == []


def test_eval_cls(workdir):
    with open("pred.jsonl", "w") as fh:
        fh.write(json.dumps({"id": "a", "scores": [0.9, 0.1]}) + "\n")
        fh.write(json.dumps({"id": "b", "scores": [0.2, 0.8]}) + "\n")
    with open("truth.jsonl", "w") as fh:
        fh.write(json.dumps({"id": "a", "label": 0}) + "\n")
        fh.write(json.dumps({"id": "b", "label": 1}) + "\n")
    assert run("eval", "cls", "--pred", "pred.jsonl", "--truth", "truth.jsonl",
               "--out", "cls.json") == 0
    payload = json.load(open("cls.json"))
    assert payload["accuracy"] == 1.0 and payload["macro_f1"] == 1.0 and payload["auc"] == 1.0


def test_missing_prediction_is_data_error(workdir):
    with open("pred.jsonl", "w") as fh:
        fh.write(json.dumps({"id": "a", "label": 0}) + "\n")
    with open("truth.jsonl", "w") as fh:
        fh.write(json.dumps({"id": "zzz", "label": 0}) + "\n")
    assert run("eval", "cls", "--pred", "pred.jsonl", "--truth", "truth.jsonl",
               "--out", "x.json") == 3


def test_manifest_identical_for_identical_runs(workdir, monkeypatch):
    run("--seed", "9", "synth", "generate", "--n", "2", "--len", "32", "--out", "s1.jsonl")
    run("--seed", "9", "synth", "generate", "--n", "2", "--len", "32", "--out", "s2.jsonl")
    m1 = json.load(open("s1.jsonl.manifest.json"))
    m2 = json.load(open("s2.jsonl.manifest.json"))
    assert m1["config_hash"] == m2["config_hash"]
    assert list(m1["outputs"].values()) == list(m2["outputs"].values())
    # the numeric platform is recorded, outside the hash
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert m1["numpy_version"] == np.__version__
    assert m1["blas"] == f"{blas['name']} {blas['version']}"
    # the kernel picked at run time: a name from the BLAS itself, or "?"
    assert m1["blas_core"] == m2["blas_core"] == cfgmod._blas_core()
    assert m1["blas_core"] == "?" or re.fullmatch(r"\w+", m1["blas_core"])
    if blas["name"].startswith("scipy-openblas"):
        assert m1["blas_core"] != "?"
    monkeypatch.setattr(cfgmod, "numeric_platform",
                        lambda: {"numpy_version": "0.0", "blas": "other 0.0",
                                 "blas_core": "Other"})
    run("--seed", "9", "synth", "generate", "--n", "2", "--len", "32", "--out", "s3.jsonl")
    m3 = json.load(open("s3.jsonl.manifest.json"))
    assert (m3["numpy_version"], m3["blas"], m3["blas_core"]) == ("0.0", "other 0.0", "Other")
    assert m3["config_hash"] == m1["config_hash"]


# -- malformed and missing inputs -------------------------------------------------

TINY = M.ModelConfig(n_layers=1, d_model=16, n_q_heads=2, n_kv_heads=1, head_dim=8,
                     patch_len=4, n_quantiles=3, vocab_size=32, max_seq=32)


def _write_model(path, config=TINY, tensor_config=TINY):
    params = M.init_params(tensor_config, seed=0)
    tensors = {f"param.{k}": v for k, v in checkpoint.params_to_tensors(params).items()}
    checkpoint.save_checkpoint(str(path), config, tensors)


@pytest.fixture()
def inputs(workdir):
    """A tiny checkpoint, a two-series file and a vocabulary in the work dir."""
    _write_model(workdir / "m.ckpt")
    rng = np.random.default_rng(0)
    codec.write_jsonl("s.jsonl", [codec.series_to_record(
        codec.RawSeries(rng.normal(size=12), series_id=f"s{i}")) for i in range(2)])
    bpe.save_vocab(bpe.bpe_train([b"abab abab"], 260), "v.json")
    (workdir / "msg.txt").write_bytes(b"abab")
    return workdir


@pytest.mark.parametrize("argv", [
    ["tokenize", "encode", "--vocab", "nope.json", "--input", "msg.txt", "--out", "o.json"],
    ["tokenize", "encode", "--vocab", "v.json", "--input", "nope.txt", "--out", "o.json"],
    ["forecast", "--ckpt", "m.ckpt", "--input", "nope.jsonl", "--horizon", "4",
     "--out", "o.jsonl"],
    ["embed", "--ckpt", "m.ckpt", "--input", "nope.jsonl", "--out", "o.jsonl"],
], ids=["encode-vocab", "encode-input", "forecast-input", "embed-input"])
def test_missing_input_file_exit_3(inputs, argv, capsys):
    assert run(*argv) == 3
    assert "nope" in capsys.readouterr().err


def test_text_without_vocab_exit_2_whether_or_not_the_text_exists(inputs):
    for text in ("msg.txt", "nope.txt"):
        assert run("forecast", "--ckpt", "m.ckpt", "--input", "s.jsonl", "--horizon", "4",
                   "--text", text, "--out", "f.jsonl") == 2


def test_vocab_not_json_exit_3(inputs):
    (inputs / "bad.json").write_text("{not json")
    assert run("tokenize", "encode", "--vocab", "bad.json", "--input", "msg.txt",
               "--out", "o.json") == 3


@pytest.mark.parametrize("raw", [b"{not json", b"[1, 2]", b'{"ids": [1, "x"]}', b'{"ids": 5}',
                                 b'\xff{"ids": [1]}'])
def test_malformed_ids_file_exit_3(inputs, raw):
    (inputs / "ids.json").write_bytes(raw)
    assert run("tokenize", "decode", "--vocab", "v.json", "--input", "ids.json",
               "--out", "o.txt") == 3


def test_checkpoint_of_older_version_exit_3(inputs, capsys):
    # a manifest written before rope_base etc. became constants
    raw = (inputs / "m.ckpt").read_bytes()
    (n,) = struct.unpack("<Q", raw[:8])
    manifest = json.loads(raw[8:8 + n])
    manifest["config"].update(rope_base=5e5, softcap_alpha=15.0, tied_lm_head=True,
                              norm_eps=1e-6)
    blob = json.dumps(manifest).encode()
    (inputs / "old.ckpt").write_bytes(struct.pack("<Q", len(blob)) + blob + raw[8 + n:])
    assert run("embed", "--ckpt", "old.ckpt", "--input", "s.jsonl", "--out", "e.jsonl") == 3
    assert "rope_base" in capsys.readouterr().err


def test_checkpoint_with_a_flipped_payload_byte_exit_3(inputs, capsys):
    raw = bytearray((inputs / "m.ckpt").read_bytes())
    raw[-5] ^= 0x10                  # inside the last tensor's bytes
    (inputs / "flipped.ckpt").write_bytes(bytes(raw))
    assert run("embed", "--ckpt", "flipped.ckpt", "--input", "s.jsonl", "--out", "e.jsonl") == 3
    err = capsys.readouterr().err
    assert "flipped.ckpt" in err and "SHA-256" in err and "Traceback" not in err
    assert not os.path.exists("e.jsonl")


def test_checkpoint_config_not_fitting_tensors_exit_3(inputs, capsys):
    _write_model(inputs / "q.ckpt", config=dataclasses.replace(TINY, n_quantiles=5))
    assert run("forecast", "--ckpt", "q.ckpt", "--input", "s.jsonl", "--horizon", "4",
               "--out", "f.jsonl") == 3
    assert "quantile_head" in capsys.readouterr().err


def test_label_record_without_label_exit_3(inputs, capsys):
    assert run("embed", "--ckpt", "m.ckpt", "--input", "s.jsonl", "--out", "e.jsonl") == 0
    (inputs / "labels.jsonl").write_text('{"id": "s0", "label": 0}\n{"id": "s1"}\n')
    assert run("probe", "--embeddings", "e.jsonl", "--labels", "labels.jsonl",
               "--out", "p.json") == 3
    err = capsys.readouterr().err
    assert "labels.jsonl" in err and "'label'" in err


def test_truth_record_without_context_exit_3(inputs, capsys):
    assert run("forecast", "--ckpt", "m.ckpt", "--input", "s.jsonl", "--horizon", "4",
               "--out", "f.jsonl") == 0
    with open("truth.jsonl", "w") as fh:
        for i in range(2):
            fh.write(json.dumps({"id": f"s{i}", "target": [1.0, 2.0, 3.0, 4.0]}) + "\n")
    assert run("eval", "forecast", "--pred", "f.jsonl", "--truth", "truth.jsonl",
               "--out", "r.json") == 3
    err = capsys.readouterr().err
    assert "truth.jsonl" in err and "'context'" in err


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("season", ["3", "4"])
def test_eval_forecast_context_not_longer_than_season_is_skipped(workdir, capsys, season):
    codec.write_jsonl("truth.jsonl", [{"id": "a", "context": [1.0, 3.0, 2.0],
                                       "target": [4.0, 5.0]}])
    codec.write_jsonl("f.jsonl", [{"id": "a", "quantiles": [[4.0, 4.5, 5.0]] * 2,
                                   "median": [4.5, 4.5]}])
    assert run("--json", "eval", "forecast", "--pred", "f.jsonl", "--truth", "truth.jsonl",
               "--season", season, "--out", "r.json") == 0
    line = _strict_json(capsys.readouterr().out)
    assert line == {"geomean_mase_ratio": None, "geomean_wql_ratio": None,
                    "n_tasks": 0, "n_skipped": 1}
    report = _strict_json((workdir / "r.json").read_text())
    assert report["skipped"] == [{"task_id": "a", "mase": None, "baseline_mase": None,
                                  "wql": None, "baseline_wql": None}]


def test_probe_undefined_auc_is_null(workdir, capsys):
    codec.write_jsonl("labels.jsonl", [{"id": f"s{i}", "label": 0} for i in range(4)])
    codec.write_jsonl("emb.jsonl", _embedding_records())
    assert run("--json", "probe", "--embeddings", "emb.jsonl", "--labels", "labels.jsonl",
               "--epochs", "2", "--out", "p.json") == 0
    line = _strict_json(capsys.readouterr().out)
    assert line["auc"] is None and line["accuracy"] == 1.0
    assert _strict_json((workdir / "p.json").read_text()) == line


def _embedding_records(width=2, n=4):
    return [{"id": f"s{i}", "embedding": [float(i + j) for j in range(width)]}
            for i in range(n)]


# (labels, extra probe flags, the file with widths other than 2 or None)
MALFORMED_PROBES = {
    "balanced-negative-label": ([0, 1, -1, 1], ["--class-balanced"], None),
    "all-labels-negative": ([-1] * 4, [], None),
    "negative-label": ([0, 1, -1, 1], [], None),
    "two-embedding-widths": ([0, 1, 0, 1], [], "emb.jsonl"),
    "test-width-differs": ([0, 1, 0, 1], ["--test-embeddings", "test_emb.jsonl",
                                          "--test-labels", "labels.jsonl"], "test_emb.jsonl"),
}


@pytest.mark.parametrize("case", list(MALFORMED_PROBES))
def test_probe_malformed_records_exit_3_naming_the_file(workdir, capsys, case):
    labels, flags, wide = MALFORMED_PROBES[case]
    codec.write_jsonl("labels.jsonl",
                      [{"id": f"s{i}", "label": y} for i, y in enumerate(labels)])
    embeddings = _embedding_records()
    if wide == "emb.jsonl":
        embeddings[2]["embedding"].append(0.5)
    codec.write_jsonl("emb.jsonl", embeddings)
    codec.write_jsonl("test_emb.jsonl", _embedding_records(width=3))
    assert run("probe", "--embeddings", "emb.jsonl", "--labels", "labels.jsonl",
               "--epochs", "2", *flags, "--out", "p.json") == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert (wide or "labels.jsonl") in err


@pytest.mark.parametrize("preds", [
    [{"id": "a", "scores": [0.9, 0.1]}, {"id": "b", "scores": [0.4, 0.5, 0.1]}],
    [{"id": "a", "scores": [0.9, 0.1]}, {"id": "b", "label": 1}],
    [{"id": "a", "label": 0}, {"id": "b", "scores": [0.4, 0.6]}],
    [{"id": "a", "label": 0}, {"id": "b", "label": -1}],
], ids=["two-score-widths", "scores-then-label", "label-then-scores", "negative-label"])
def test_eval_cls_malformed_predictions_exit_3_naming_the_file(workdir, capsys, preds):
    codec.write_jsonl("pred.jsonl", preds)
    codec.write_jsonl("cls.jsonl", [{"id": "a", "label": 0}, {"id": "b", "label": 1}])
    assert run("eval", "cls", "--pred", "pred.jsonl", "--truth", "cls.jsonl",
               "--out", "r.json") == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: pred.jsonl: ") and err.count("\n") == 1


def _assert_repeated_id(capsys, path, rid):
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: ") and err.count("\n") == 1
    assert repr(rid) in err


@pytest.mark.parametrize("repeated", ["labels.jsonl", "emb.jsonl"])
def test_probe_repeated_id_exit_3(workdir, capsys, repeated):
    labels = [{"id": f"s{i}", "label": i % 2} for i in range(4)]
    embeddings = _embedding_records()
    if repeated == "labels.jsonl":
        labels.append({"id": "s1", "label": 0})
    else:
        embeddings.append({"id": "s1", "embedding": [9.0, 9.0]})
    codec.write_jsonl("labels.jsonl", labels)
    codec.write_jsonl("emb.jsonl", embeddings)
    assert run("probe", "--embeddings", "emb.jsonl", "--labels", "labels.jsonl",
               "--epochs", "2", "--out", "p.json") == 3
    _assert_repeated_id(capsys, repeated, "s1")
    assert not os.path.exists("p.json")


@pytest.mark.parametrize("repeated", ["pred.jsonl", "cls.jsonl"])
def test_eval_cls_repeated_id_exit_3(workdir, capsys, repeated):
    preds = [{"id": "a", "label": 1}, {"id": "b", "label": 1}]
    truth = [{"id": "a", "label": 1}, {"id": "b", "label": 1}]
    (preds if repeated == "pred.jsonl" else truth).append({"id": "a", "label": 0})
    codec.write_jsonl("pred.jsonl", preds)
    codec.write_jsonl("cls.jsonl", truth)
    assert run("eval", "cls", "--pred", "pred.jsonl", "--truth", "cls.jsonl",
               "--out", "r.json") == 3
    _assert_repeated_id(capsys, repeated, "a")
    assert not os.path.exists("r.json")


@pytest.mark.parametrize("repeated", ["f.jsonl", "truth.jsonl"])
def test_eval_forecast_repeated_series_and_channel_exit_3(workdir, capsys, repeated):
    truth = [{"id": "a", "channel": c, "context": [1.0, 3.0, 2.0, 4.0], "target": [4.0, 5.0]}
             for c in (0, 1)]
    preds = [{"id": "a", "channel": c, "quantiles": [[4.0, 4.5, 5.0]] * 2,
              "median": [4.5, 4.5]} for c in (0, 1)]
    (preds if repeated == "f.jsonl" else truth).append(dict(
        (preds if repeated == "f.jsonl" else truth)[1]))
    codec.write_jsonl("f.jsonl", preds)
    codec.write_jsonl("truth.jsonl", truth)
    assert run("eval", "forecast", "--pred", "f.jsonl", "--truth", "truth.jsonl",
               "--season", "1", "--out", "r.json") == 3
    _assert_repeated_id(capsys, repeated, ("a", 1))
    assert not os.path.exists("r.json")


@pytest.mark.parametrize("flag, path", [("--test-embeddings", "test_emb.jsonl"),
                                        ("--test-labels", "labels.jsonl")])
def test_probe_test_flag_without_its_partner_exit_2(workdir, capsys, flag, path):
    codec.write_jsonl("labels.jsonl", [{"id": f"s{i}", "label": i % 2} for i in range(4)])
    codec.write_jsonl("emb.jsonl", _embedding_records())
    codec.write_jsonl("test_emb.jsonl", _embedding_records(n=2))
    assert run("probe", "--embeddings", "emb.jsonl", "--labels", "labels.jsonl",
               "--epochs", "2", flag, path, "--out", "p.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--test-labels" in err
    assert not os.path.exists("p.json")


@pytest.mark.parametrize("command, pred", [
    ("forecast", {"id": "a", "quantiles": [[1.0, 2.0, 3.0]], "median": [2.0]}),
    ("cls", {"id": "a", "label": 0}),
])
def test_eval_truth_without_records_exit_3_naming_the_file(workdir, capsys, command, pred):
    codec.write_jsonl("pred.jsonl", [pred])
    (workdir / "empty.jsonl").write_text("\n")
    assert run("eval", command, "--pred", "pred.jsonl", "--truth", "empty.jsonl",
               "--out", "r.json") == 3
    err = capsys.readouterr().err
    assert err == "data error: empty.jsonl: no records\n"
    assert not os.path.exists("r.json")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_checkpoint_never_escapes_embed(inputs, data):
    """Truncated or byte-flipped checkpoints end in an exit code, never a traceback."""
    raw = (inputs / "m.ckpt").read_bytes()
    (n,) = struct.unpack("<Q", raw[:8])
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")]
    else:
        damaged = bytearray(raw)
        # most flips land in the header and manifest, where the structure lives
        where = st.integers(0, 8 + n - 1) | st.integers(0, len(raw) - 1)
        for pos in data.draw(st.lists(where, min_size=1, max_size=3), label="flips"):
            damaged[pos] ^= data.draw(st.integers(1, 255), label="xor")
    (inputs / "damaged.ckpt").write_bytes(bytes(damaged))
    code = run("embed", "--ckpt", "damaged.ckpt", "--input", "s.jsonl", "--out", "e.jsonl")
    assert code in (0, 2, 3, 4)


# every command that reads JSONL, with the JSONL files it reads
FUZZ_RUNS = [
    (["forecast", "--ckpt", "m.ckpt", "--input", "s.jsonl", "--horizon", "4"], ["s.jsonl"]),
    (["embed", "--ckpt", "m.ckpt", "--input", "s.jsonl"], ["s.jsonl"]),
    (["probe", "--embeddings", "e.jsonl", "--labels", "l.jsonl", "--epochs", "2",
      "--test-embeddings", "e2.jsonl", "--test-labels", "l2.jsonl"],
     ["e.jsonl", "l.jsonl", "e2.jsonl", "l2.jsonl"]),
    (["eval", "forecast", "--pred", "f.jsonl", "--truth", "truth.jsonl"],
     ["f.jsonl", "truth.jsonl"]),
    (["eval", "cls", "--pred", "pred.jsonl", "--truth", "cls.jsonl"],
     ["pred.jsonl", "cls.jsonl"]),
]
FUZZ_VALUES = st.sampled_from(["x", "", True, False, None, [], [[]], [[1.0, 2.0]], [[[0.5]]],
                               {"k": 1}, 10 ** 400, -(10 ** 400), -3, -2.5, 0, [-1], [None],
                               ["x", 1.0], [10 ** 400]]).map(copy.deepcopy)


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_jsonl_never_escapes_a_command(every_input, data):
    """Dropped keys, values of the wrong type, cut lines and bytes that are not
    UTF-8 in any JSONL input end in an exit code, never a traceback."""
    argv, files = data.draw(st.sampled_from(FUZZ_RUNS), label="command")
    target = data.draw(st.sampled_from(files), label="file")
    records = [json.loads(line) for line in (every_input / target).read_text().splitlines()]
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        record = data.draw(st.sampled_from(records), label="record")
        key = data.draw(st.sampled_from(sorted(record)), label="key")
        if data.draw(st.booleans(), label="drop"):
            del record[key]
        elif isinstance(record[key], list) and record[key] and data.draw(st.booleans()):
            where = data.draw(st.integers(0, len(record[key]) - 1), label="element")
            record[key][where] = data.draw(FUZZ_VALUES, label="element value")
        else:
            record[key] = data.draw(FUZZ_VALUES, label="value")
        if not record:
            records.remove(record)
        if not records:
            break
    text = "".join(json.dumps(r) + "\n" for r in records)
    if data.draw(st.booleans(), label="cut"):
        text = text[:data.draw(st.integers(0, len(text)), label="cut at")]
    raw = text.encode()
    if data.draw(st.booleans(), label="not utf-8"):
        at = data.draw(st.integers(0, len(raw)), label="byte at")
        raw = raw[:at] + data.draw(st.sampled_from([b"\xff", b"\xfe", b"\xc3"])) + raw[at:]
    (every_input / "fuzz.jsonl").write_bytes(raw)
    fuzzed = ["fuzz.jsonl" if arg == target else arg for arg in argv]
    assert run(*fuzzed, "--out", "o.json") in (0, 2, 3, 4)


@pytest.mark.parametrize("argv, target", [
    pytest.param(argv, target, id="-".join(a for a in argv[:2] if a[0] != "-") + ":" + target)
    for argv, files in FUZZ_RUNS for target in files])
def test_jsonl_input_not_utf8_exit_3(every_input, capsys, argv, target):
    lines = (every_input / target).read_bytes().splitlines(keepends=True)
    (every_input / "latin1.jsonl").write_bytes(lines[0] + b'{"id": "\xe9"}\n' + b"".join(lines[1:]))
    renamed = ["latin1.jsonl" if arg == target else arg for arg in argv]
    capsys.readouterr()
    assert run(*renamed, "--out", "o.json") == 3
    assert "latin1.jsonl:2: not UTF-8" in capsys.readouterr().err


def test_train_series_not_utf8_exit_3(workdir, capsys):
    _write_training_fixture(workdir)
    (workdir / "series.jsonl").write_bytes(b'{"id": "\xe9", "values": [1.0, 2.0]}\n')
    (workdir / "s.toml").write_text(
        _with_value((workdir / "run.toml").read_text(), "data", "series", '"series.jsonl"'))
    capsys.readouterr()
    assert run("train", "--config", "s.toml", "--stage", "1") == 3
    assert "series.jsonl:1: not UTF-8" in capsys.readouterr().err


FORECAST_MODEL = dataclasses.replace(TINY, vocab_size=262)


def _warm_forecast_checkpoint():
    """warm.ckpt: FORECAST_MODEL with its zero-initialised matrices filled."""
    if os.path.exists("warm.ckpt"):
        return
    params = M.init_params(FORECAST_MODEL, seed=1)
    rng = np.random.default_rng(1)
    for p in params.values():
        if p.data.ndim == 2 and not p.data.any():
            p.data[:] = rng.normal(0, 0.3, size=p.shape)
    tensors = {f"param.{k}": v for k, v in checkpoint.params_to_tensors(params).items()}
    checkpoint.save_checkpoint("warm.ckpt", FORECAST_MODEL, tensors)


@pytest.mark.parametrize("horizon,code", [(36, 0), (37, 2)])
def test_forecast_needing_exactly_max_seq_positions_runs(inputs, horizon, code):
    """A 2-channel context of 24 patches: H = 36 generates 9 patches and feeds
    back 8, 32 = max_seq positions in all, so it runs; H = 37 needs 33."""
    _warm_forecast_checkpoint()
    P = FORECAST_MODEL.patch_len
    values = np.random.default_rng(2).normal(size=(2, 24 * P))
    codec.write_jsonl("fc_in.jsonl", [codec.series_to_record(codec.RawSeries(values))])
    assert run("forecast", "--ckpt", "warm.ckpt", "--input", "fc_in.jsonl",
               "--horizon", str(horizon), "--out", "fc_out.jsonl") == code
    assert os.path.exists("fc_out.jsonl") == (code == 0)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_forecast_fits_max_seq_or_exits_2(inputs, data):
    """1-3 channel series, horizons and text prefixes around max_seq: the run exits 2
    when text, context and horizon patches overflow max_seq, and otherwise exits 0
    with one record of sorted [H, Q] quantiles per channel.  The KV cache's
    CacheError, which dispatch does not map, is never reached."""
    _warm_forecast_checkpoint()
    P = FORECAST_MODEL.patch_len
    horizon = data.draw(st.integers(0, 40), label="horizon")
    shapes = data.draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 100)),
                                min_size=1, max_size=2), label="[C, L] per series")
    text = data.draw(st.none() | st.text("ab ", max_size=16).map(str.encode), label="text")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    series = []
    for i, shape in enumerate(shapes):
        values = rng.normal(size=shape).cumsum(axis=1)
        values[rng.random(shape) < 0.2] = np.nan
        values[:, -1] = rng.normal(size=shape[0])  # every channel keeps a finite value
        series.append(codec.series_to_record(codec.RawSeries(values, series_id=f"s{i}")))
    codec.write_jsonl("fc_in.jsonl", series)
    argv = ["forecast", "--ckpt", "warm.ckpt", "--input", "fc_in.jsonl",
            "--horizon", str(horizon), "--out", "fc_out.jsonl"]
    n_text = 0
    if text is not None:
        (inputs / "prefix.txt").write_bytes(text)
        argv += ["--text", "prefix.txt", "--vocab", "v.json"]
        n_text = len(bpe.encode(text, bpe.load_vocab("v.json"))) + 1  # and <|ts_begin|>
    # the last generated patch is never fed back into the model
    need = max(n_text + -(-length // P) + -(-horizon // P) - 1 for _, length in shapes)
    fits = horizon >= 1 and need <= FORECAST_MODEL.max_seq
    event("fits" if fits else "exit 2")
    if os.path.exists("fc_out.jsonl"):
        os.remove("fc_out.jsonl")
    assert run(*argv) == (0 if fits else 2)
    if fits:
        records = [json.loads(line) for line in open("fc_out.jsonl")]
        assert [(r["id"], r["channel"]) for r in records] == [
            (f"s{i}", c) for i, (channels, _) in enumerate(shapes) for c in range(channels)]
        for record in records:
            quantiles = np.asarray(record["quantiles"])
            assert quantiles.shape == (horizon, FORECAST_MODEL.n_quantiles)
            assert np.all(np.diff(quantiles, axis=1) >= 0)
    else:
        assert not os.path.exists("fc_out.jsonl")


# -- run identity ------------------------------------------------------------------

def _sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _manifest(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture()
def every_input(inputs):
    """On top of `inputs`: a corpus, an ids file, a checkpoint whose vocabulary
    covers v.json, embeddings and two label sets, forecasts and their truth,
    and class predictions with their truth."""
    (inputs / "corpus.txt").write_bytes(b"abab cdcd abab cdcd " * 8)
    assert run("tokenize", "encode", "--vocab", "v.json", "--input", "msg.txt",
               "--out", "ids.json") == 0
    _write_model(inputs / "mv.ckpt", dataclasses.replace(TINY, vocab_size=262),
                 dataclasses.replace(TINY, vocab_size=262))
    assert run("embed", "--ckpt", "m.ckpt", "--input", "s.jsonl", "--out", "e.jsonl") == 0
    shutil.copy("e.jsonl", "e2.jsonl")
    (inputs / "l.jsonl").write_text('{"id": "s0", "label": 0}\n{"id": "s1", "label": 1}\n')
    (inputs / "l2.jsonl").write_text('{"id": "s0", "label": 1}\n{"id": "s1", "label": 0}\n')
    assert run("forecast", "--ckpt", "m.ckpt", "--input", "s.jsonl", "--horizon", "4",
               "--out", "f.jsonl") == 0
    with open("truth.jsonl", "w") as fh:
        for i in range(2):
            fh.write(json.dumps({"id": f"s{i}", "context": [1.0, 2.0, 3.0, 4.0] * 3,
                                 "target": [1.0, 2.0, 3.0, 4.0]}) + "\n")
    (inputs / "pred.jsonl").write_text('{"id": "a", "scores": [0.9, 0.1]}\n'
                                       '{"id": "b", "scores": [0.4, 0.6]}\n')
    (inputs / "cls.jsonl").write_text('{"id": "a", "label": 0}\n{"id": "b", "label": 1}\n')
    return inputs


# (argv without --out, flag changes that change the output); every argv token
# naming a file in the work dir is an input of the run
IDENTITY_CASES = {
    "tokenize-train": (["tokenize", "train", "--input", "corpus.txt", "--vocab-size", "262"],
                       [["--vocab-size", "264"], ["--input", "corpus.txt", "msg.txt"]]),
    "tokenize-encode": (["tokenize", "encode", "--vocab", "v.json", "--input", "msg.txt"], []),
    "tokenize-decode": (["tokenize", "decode", "--vocab", "v.json", "--input", "ids.json"], []),
    "synth": (["synth", "generate", "--n", "2", "--len", "16"],
              [["--n", "3"], ["--len", "8"], ["--force-kernel", "constant"], ["--seed", "1"]]),
    "forecast": (["forecast", "--ckpt", "mv.ckpt", "--input", "s.jsonl", "--horizon", "4"],
                 [["--horizon", "8"], ["--text", "msg.txt", "--vocab", "v.json"]]),
    "forecast-text": (["forecast", "--ckpt", "mv.ckpt", "--input", "s.jsonl", "--horizon", "4",
                       "--text", "msg.txt", "--vocab", "v.json"], []),
    "embed": (["embed", "--ckpt", "mv.ckpt", "--input", "s.jsonl"], [["--repeat", "2"]]),
    "probe": (["probe", "--embeddings", "e.jsonl", "--labels", "l.jsonl", "--epochs", "3"],
              [["--class-balanced"], ["--head", "mlp"], ["--epochs", "4"],
               ["--test-embeddings", "e2.jsonl", "--test-labels", "l2.jsonl"]]),
    "probe-test": (["probe", "--embeddings", "e.jsonl", "--labels", "l.jsonl", "--epochs", "3",
                    "--test-embeddings", "e2.jsonl", "--test-labels", "l2.jsonl"], []),
    "eval-forecast": (["eval", "forecast", "--pred", "f.jsonl", "--truth", "truth.jsonl"],
                      [["--season", "2"]]),
    "eval-cls": (["eval", "cls", "--pred", "pred.jsonl", "--truth", "cls.jsonl"], []),
}


def _identity_run(argv, out):
    assert run(*argv, "--out", out) == 0
    return _manifest(out + ".manifest.json")


@pytest.mark.parametrize("case", list(IDENTITY_CASES))
def test_hash_covers_every_input_file_and_flag(every_input, case):
    argv, flag_changes = IDENTITY_CASES[case]
    files = [a for a in argv if os.path.isfile(a)]
    base = _identity_run(argv, "o1")
    assert base["inputs"] == {path: _sha256(path) for path in files}
    assert _identity_run(argv, "o2")["config_hash"] == base["config_hash"]
    for path in files:
        raw = (every_input / path).read_bytes()
        (every_input / path).write_bytes(raw + b"\n")  # same parse, other bytes
        assert _identity_run(argv, "o3")["config_hash"] != base["config_hash"], path
        (every_input / path).write_bytes(raw)
    for change in flag_changes:
        assert _identity_run(argv + change, "o4")["config_hash"] != base["config_hash"], change


@pytest.mark.parametrize("case", list(IDENTITY_CASES))
def test_hash_ignores_input_names_and_out_path(every_input, case):
    argv, _ = IDENTITY_CASES[case]
    base = _identity_run(argv, "o1")
    os.mkdir("copies")
    renamed = []
    for arg in argv:
        if os.path.isfile(arg):
            shutil.copy(arg, os.path.join("copies", "c_" + arg))
            arg = os.path.join("copies", "c_" + arg)
        renamed.append(arg)
    other = _identity_run(renamed, os.path.join("copies", "other"))
    assert other["config_hash"] == base["config_hash"]
    assert sorted(other["inputs"].values()) == sorted(base["inputs"].values())
    assert list(other["outputs"].values()) == list(base["outputs"].values())


def _train_manifest(*argv):
    assert run("--seed", "1", "train", *argv) == 0
    return _manifest("run_out/manifest.json")


def test_train_hash_covers_data_files_and_stage(workdir):
    _write_training_fixture(workdir)
    assert run("synth", "generate", "--n", "2", "--len", "48", "--out", "series.jsonl") == 0
    with open("run.toml", "a") as fh:
        fh.write('series = "series.jsonl"\n')
    base = _train_manifest("--config", "run.toml")
    assert base["inputs"] == {p: _sha256(p) for p in ("corpus.txt", "vocab.json", "series.jsonl")}
    for path in ("series.jsonl", "corpus.txt"):
        raw = (workdir / path).read_bytes()
        (workdir / path).write_bytes(raw + b"\n")
        assert _train_manifest("--config", "run.toml")["config_hash"] != base["config_hash"]
        (workdir / path).write_bytes(raw)
    assert _train_manifest("--config", "run.toml", "--stage", "1")["config_hash"] \
        != base["config_hash"]
    # the config's own name and its data files' names do not count
    shutil.copy("corpus.txt", "corpus2.txt")
    (workdir / "other.toml").write_text(
        (workdir / "run.toml").read_text().replace('"corpus.txt"', '"corpus2.txt"'))
    renamed = _train_manifest("--config", "other.toml")
    assert renamed["config_hash"] == base["config_hash"]
    assert renamed["outputs"] == base["outputs"]


def test_train_resume_file_is_hashed_before_the_run_overwrites_it(workdir):
    _write_training_fixture(workdir)
    assert run("--seed", "1", "train", "--config", "run.toml", "--stage", "1") == 0
    shutil.copy("run_out/stage1.ckpt", "saved.ckpt")
    # a longer stage 1 makes the resumed run write run_out/stage1.ckpt again
    (workdir / "long.toml").write_text(
        (workdir / "run.toml").read_text().replace("total_steps = 6", "total_steps = 8"))
    resumed = _train_manifest("--config", "long.toml", "--stage", "1",
                              "--resume", "run_out/stage1.ckpt")
    assert _sha256("run_out/stage1.ckpt") != _sha256("saved.ckpt")
    assert resumed["inputs"]["run_out/stage1.ckpt"] == _sha256("saved.ckpt")
    from_copy = _train_manifest("--config", "long.toml", "--stage", "1", "--resume", "saved.ckpt")
    assert from_copy["config_hash"] == resumed["config_hash"]


def test_train_twice_into_one_out_dir_same_metrics(workdir):
    _write_training_fixture(workdir)
    assert run("--seed", "1", "train", "--config", "run.toml") == 0
    first = (workdir / "run_out" / "metrics.jsonl").read_bytes()
    assert run("--seed", "1", "train", "--config", "run.toml") == 0
    assert (workdir / "run_out" / "metrics.jsonl").read_bytes() == first


def test_train_resume_cuts_metrics_back_to_the_checkpoint(workdir):
    _write_training_fixture(workdir)
    assert run("--seed", "1", "train", "--config", "run.toml", "--stage", "all") == 0
    first = (workdir / "run_out" / "metrics.jsonl").read_bytes()
    assert [json.loads(line)["step"] for line in first.splitlines()] == [2, 4, 6, 7, 8, 9]
    assert run("--seed", "1", "train", "--config", "run.toml", "--stage", "2",
               "--resume", "run_out/stage1.ckpt") == 0
    assert (workdir / "run_out" / "metrics.jsonl").read_bytes() == first


def _with_value(text, section, key, raw):
    """Config text with ``key = raw`` in [section], in place of any earlier value."""
    out, current = [], None
    for line in text.splitlines():
        if line.startswith("["):
            current = line.strip("[]")
            out.append(line)
            if current == section:
                out.append(f"{key} = {raw}")
        elif not (current == section and line.split("=")[0].strip() == key):
            out.append(line)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("section, key, raw", [
    ("stage1", "log_every", "0"),
    ("stage1", "seq_len", "16.5"),
    ("model", "d_model", "16.0"),
    ("model", "n_layers", "true"),
    ("stage1", "text_prob", '"x"'),
    ("stage1", "w_ts", '"x"'),
    ("stage2", "w_text", "-1.0"),
    ("data", "synth_length", '"a"'),
    ("data", "align_length", "1"),
    ("data", "synthetic_batch_prob", "1.5"),
    ("stage1", "micro_batch", "0"),
    ("stage1", "seq_len", "0"),
    ("stage2", "seq_len", "65"),  # above [model] max_seq
    ("stage1", "total_steps", "-1"),
])
def test_train_config_value_of_wrong_type_or_range_exit_2(workdir, capsys, section, key, raw):
    _write_training_fixture(workdir)
    (workdir / "bad.toml").write_text(
        _with_value((workdir / "run.toml").read_text(), section, key, raw))
    capsys.readouterr()
    assert run("train", "--config", "bad.toml") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [{section}] {key} ") and err.count("\n") == 1
    assert not os.path.exists("run_out")


@pytest.mark.parametrize("edit, needle", [
    (lambda text: text.replace("[stage2]", "[stage_2]"), "top-level 'stage_2' is not a"),
    (lambda text: "seed = 3\n" + text, "top-level 'seed' is not a"),
    (lambda text: text.replace("log_every = 2", "log_every = 2\nlog_every = 3"),
     "at line 19,"),
    (lambda text: text + "[stage1]\nseq_len = 16\n", "at line 34,"),
    (lambda text: text.replace('out_dir = "run_out"', 'out_dir = "run_\xe9"'), "utf-8"),
], ids=["misspelled-table", "top-level-key", "repeated-key", "repeated-table", "not-utf8"])
def test_train_config_not_read_exit_2(workdir, capsys, edit, needle):
    _write_training_fixture(workdir)
    text = edit((workdir / "run.toml").read_text())
    (workdir / "bad.toml").write_bytes(text.encode("latin-1"))
    capsys.readouterr()
    assert run("train", "--config", "bad.toml") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad.toml: ") and err.count("\n") == 1, err
    assert needle in err
    assert not os.path.exists("run_out")


def test_train_config_float_field_takes_an_int(workdir):
    _write_training_fixture(workdir)
    (workdir / "int.toml").write_text(
        _with_value((workdir / "run.toml").read_text(), "stage1", "w_ts", "1"))
    assert run("--seed", "1", "train", "--config", "int.toml", "--stage", "1") == 0


def _synth_manifest_under(package_copy, out):
    env = dict(os.environ, PYTHONPATH=str(package_copy))
    done = subprocess.run([sys.executable, "-m", "patchlm", "synth", "generate", "--n", "1",
                           "--len", "16", "--out", out], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return _manifest(out + ".manifest.json")


def test_hash_covers_package_source(workdir):
    package = os.path.dirname(os.path.abspath(cfgmod.__file__))
    for name in ("a", "b", "c"):
        shutil.copytree(package, workdir / name / "patchlm",
                        ignore=shutil.ignore_patterns("__pycache__"))
    edited = workdir / "c" / "patchlm" / "errors.py"
    edited.write_bytes(edited.read_bytes() + b"\n")  # one byte, same program
    a, b, c = (_synth_manifest_under(workdir / name, f"{name}.jsonl") for name in "abc")
    assert a["config_hash"] == b["config_hash"] and a["code_digest"] == b["code_digest"]
    assert c["config_hash"] != a["config_hash"] and c["code_digest"] != a["code_digest"]
    assert c["outputs"]["c.jsonl"] == a["outputs"]["a.jsonl"]
    assert a["code_digest"] == cfgmod.code_digest()
