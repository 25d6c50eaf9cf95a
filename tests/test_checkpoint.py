import dataclasses
import hashlib
import io
import json
import os
import struct

import numpy as np
import pytest

from patchlm import checkpoint as C
from patchlm import model as M
from patchlm import training
from patchlm.errors import DataError


def test_roundtrip_bit_exact(tmp_path):
    cfg = M.ModelConfig(n_layers=1, d_model=16, n_q_heads=2, n_kv_heads=1,
                        head_dim=8, patch_len=4, n_quantiles=5, vocab_size=32, max_seq=16)
    rng = np.random.default_rng(0)
    tensors = {
        "param.a": rng.normal(size=(3, 5)).astype(np.float32),
        "param.b": rng.normal(size=(7,)).astype(np.float32),
        "opt.a.m": rng.normal(size=(3, 5)).astype(np.float32),
        "wide": rng.normal(size=(2, 2)).astype(np.float64),
    }
    extra = {"step": 17, "rng_state": {"state": 12345678901234567890}}
    path = str(tmp_path / "model.ckpt")
    C.save_checkpoint(path, cfg, tensors, extra)
    cfg2, loaded, extra2 = C.load_checkpoint(path)
    assert cfg2 == cfg
    assert extra2["step"] == 17
    assert extra2["rng_state"]["state"] == 12345678901234567890
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].tobytes() == arr.tobytes()


def test_header_is_json_manifest(tmp_path):
    cfg = M.ModelConfig(n_layers=1, d_model=16, n_q_heads=2, n_kv_heads=1,
                        head_dim=8, patch_len=4, n_quantiles=5, vocab_size=32, max_seq=16)
    path = str(tmp_path / "m.ckpt")
    C.save_checkpoint(path, cfg, {"x": np.ones((2, 2), dtype=np.float32)})
    raw = open(path, "rb").read()
    (n,) = struct.unpack("<Q", raw[:8])
    manifest = json.loads(raw[8:8 + n])
    assert manifest["config"]["d_model"] == 16
    assert manifest["tensors"]["x"]["dtype"] == "f4"
    assert manifest["tensors"]["x"]["shape"] == [2, 2]
    payload = raw[8 + n:]
    assert np.frombuffer(payload, dtype="<f4").tolist() == [1.0, 1.0, 1.0, 1.0]


def test_truncated_files_rejected(tmp_path):
    cfg = M.ModelConfig(n_layers=1, d_model=16, n_q_heads=2, n_kv_heads=1,
                        head_dim=8, patch_len=4, n_quantiles=5, vocab_size=32, max_seq=16)
    path = str(tmp_path / "trunc.ckpt")
    C.save_checkpoint(path, cfg, {"x": np.ones(8, dtype=np.float32)})
    blob = open(path, "rb").read()
    for cut in (4, len(blob) - 8):
        open(path, "wb").write(blob[:cut])
        with pytest.raises(DataError):
            C.load_checkpoint(path)


def test_unsupported_dtype_rejected(tmp_path):
    cfg = M.ModelConfig(n_layers=1, d_model=16, n_q_heads=2, n_kv_heads=1,
                        head_dim=8, patch_len=4, n_quantiles=5, vocab_size=32, max_seq=16)
    with pytest.raises(DataError):
        C.save_checkpoint(str(tmp_path / "x.ckpt"), cfg, {"x": np.ones(3, dtype=np.int32)})


TINY = M.ModelConfig(n_layers=1, d_model=16, n_q_heads=2, n_kv_heads=1,
                     head_dim=8, patch_len=4, n_quantiles=5, vocab_size=32, max_seq=16)


class _TornFile(io.FileIO):
    """A file whose every write stores half its bytes, then fails."""

    def write(self, b):
        super().write(bytes(b)[:len(b) // 2])
        raise OSError("write failed")


def test_failed_save_leaves_the_earlier_checkpoint_whole(tmp_path, monkeypatch):
    path = str(tmp_path / "m.ckpt")
    C.save_checkpoint(path, TINY, {"x": np.arange(64, dtype=np.float32)}, {"step": 1})
    before = open(path, "rb").read()
    monkeypatch.setattr(C, "open", _TornFile, raising=False)
    with pytest.raises(OSError, match="write failed"):
        C.save_checkpoint(path, TINY, {"x": np.zeros(64, dtype=np.float32)}, {"step": 2})
    monkeypatch.undo()
    assert open(path, "rb").read() == before
    _, tensors, extra = C.load_checkpoint(path)
    assert tensors["x"].tolist() == list(range(64)) and extra == {"step": 1}
    assert os.listdir(tmp_path) == ["m.ckpt"]


def test_manifest_records_the_payload_sha256(tmp_path):
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(str(path), TINY, {"b": np.arange(3, dtype=np.float64),
                                        "a": np.ones(2, dtype=np.float32)})
    raw = path.read_bytes()
    (n,) = struct.unpack("<Q", raw[:8])
    manifest = json.loads(raw[8:8 + n])
    assert manifest["payload_sha256"] == hashlib.sha256(raw[8 + n:]).hexdigest()


@pytest.mark.parametrize("where", [0, -1])
def test_flipped_payload_byte_is_data_error_naming_the_file(tmp_path, where):
    path = tmp_path / "m.ckpt"
    C.save_checkpoint(str(path), TINY, {"x": np.ones(4, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    (n,) = struct.unpack("<Q", raw[:8])
    raw[8 + n if where == 0 else len(raw) - 1] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=f"{path}: payload does not match its SHA-256"):
        C.load_checkpoint(str(path))


def test_checkpoint_without_payload_digest_still_loads(tmp_path):
    # as written before the manifest carried payload_sha256
    path = tmp_path / "old.ckpt"
    payload = np.array([1.5, -2.0], dtype="<f4").tobytes()
    _write_raw(str(path), _manifest(), payload)
    assert "payload_sha256" not in json.loads(_manifest())
    config, tensors, extra = C.load_checkpoint(str(path))
    assert config == TINY and extra == {}
    assert tensors["x"].tobytes() == payload


def _write_raw(path, manifest: bytes, payload: bytes = b""):
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(manifest)) + manifest + payload)


def _manifest(**overrides) -> bytes:
    manifest = {"config": dataclasses.asdict(TINY),
                "tensors": {"x": {"dtype": "f4", "shape": [2], "offset": 0}}, "extra": {}}
    manifest.update(overrides)
    return json.dumps(manifest).encode()


def test_config_from_an_older_version_is_data_error(tmp_path):
    # the fields that have since become module constants
    old = dict(dataclasses.asdict(TINY), rope_base=5e5, softcap_alpha=15.0,
               tied_lm_head=True, norm_eps=1e-6)
    path = str(tmp_path / "old.ckpt")
    _write_raw(path, _manifest(config=old), np.ones(2, dtype="<f4").tobytes())
    with pytest.raises(DataError, match="rope_base"):
        C.load_checkpoint(path)


@pytest.mark.parametrize("value", [0, -2, True, 16.0, "16", None])
def test_config_value_not_a_positive_int_is_data_error(tmp_path, value):
    path = str(tmp_path / "bad.ckpt")
    _write_raw(path, _manifest(config=dict(dataclasses.asdict(TINY), d_model=value)),
               np.ones(2, dtype="<f4").tobytes())
    with pytest.raises(DataError, match="d_model must be a positive integer"):
        C.load_checkpoint(path)


def test_config_without_a_field_is_data_error(tmp_path):
    # max_seq differs from its default, which a missing key would silently take
    config = dataclasses.asdict(TINY)
    del config["max_seq"]
    path = str(tmp_path / "partial.ckpt")
    _write_raw(path, _manifest(config=config), np.ones(2, dtype="<f4").tobytes())
    with pytest.raises(DataError, match="max_seq"):
        C.load_checkpoint(path)


def test_header_longer_than_file_is_data_error(tmp_path):
    path = tmp_path / "garbage.ckpt"
    path.write_bytes(b"garbage\n")
    with pytest.raises(DataError, match="exceeds"):
        C.load_checkpoint(str(path))


def test_manifest_not_json_is_data_error(tmp_path):
    path = str(tmp_path / "notjson.ckpt")
    _write_raw(path, b"{not json")
    with pytest.raises(DataError, match="JSON"):
        C.load_checkpoint(path)


@pytest.mark.parametrize("drop", ["config", "tensors"])
def test_manifest_without_part_is_data_error(tmp_path, drop):
    manifest = json.loads(_manifest())
    del manifest[drop]
    path = str(tmp_path / "partial.ckpt")
    _write_raw(path, json.dumps(manifest).encode(), np.ones(2, dtype="<f4").tobytes())
    with pytest.raises(DataError, match="config"):
        C.load_checkpoint(path)


def test_params_that_do_not_fit_the_config_are_data_error(tmp_path):
    params = M.init_params(dataclasses.replace(TINY, n_quantiles=3), seed=0)
    tensors = {f"param.{k}": v for k, v in C.params_to_tensors(params).items()}
    with pytest.raises(DataError, match="quantile_head"):
        C.model_params(TINY, tensors)
    path = str(tmp_path / "misfit.ckpt")
    C.save_checkpoint(path, TINY, tensors, {"step": 0, "tokens_seen": 0, "opt_t": 0})
    with pytest.raises(DataError, match="quantile_head"):
        training.Trainer.load(path)

