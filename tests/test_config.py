import pytest

from patchlm import config as C
from patchlm.errors import ConfigError


def test_parse_sections_and_types():
    text = """
# training run
[model]
n_layers = 2
rope_base = 5e5
tied_lm_head = true

[data]
text = ["a.txt", "b.txt"]
out_dir = "runs/demo"
synthetic_batch_prob = 0.2
"""
    sections = C.parse_toml_like(text)
    assert sections["model"]["n_layers"] == 2
    assert sections["model"]["rope_base"] == 5e5
    assert sections["model"]["tied_lm_head"] is True
    assert sections["data"]["text"] == ["a.txt", "b.txt"]
    assert sections["data"]["out_dir"] == "runs/demo"
    assert sections["data"]["synthetic_batch_prob"] == 0.2


def test_parse_rejects_stray_keys():
    with pytest.raises(ConfigError):
        C.parse_toml_like("key = 1\n")
    with pytest.raises(ConfigError):
        C.parse_toml_like("[s]\nnot a kv line\n")


def test_load_run_config(tmp_path):
    path = tmp_path / "run.toml"
    path.write_text("""
[model]
n_layers = 1
d_model = 16
n_q_heads = 2
n_kv_heads = 1
head_dim = 8
patch_len = 4
n_quantiles = 5
vocab_size = 300
max_seq = 64

[stage1]
total_steps = 10
seq_len = 16

[data]
text = "corpus.txt"
vocab = "vocab.json"
""")
    run = C.load_run_config(str(path))
    assert run.model.d_model == 16
    assert run.stage1.total_steps == 10
    assert run.stage2 is None
    assert run.data.text == ["corpus.txt"]


def test_load_run_config_unknown_key(tmp_path):
    path = tmp_path / "bad.toml"
    path.write_text("[model]\nnot_a_field = 3\n[stage1]\ntotal_steps = 1\n")
    with pytest.raises(ConfigError):
        C.load_run_config(str(path))


@pytest.mark.parametrize("text", ["5", "[1, 2]", "true"])
def test_load_run_config_text_not_paths(tmp_path, text):
    path = tmp_path / "bad.toml"
    path.write_text(f"[model]\n[stage1]\ntotal_steps = 1\n[data]\ntext = {text}\n")
    with pytest.raises(ConfigError, match="text"):
        C.load_run_config(str(path))


def test_config_hash_stable_and_sensitive():
    a, inputs = C.run_identity("synth", {"n": 3}, 0)
    b, _ = C.run_identity("synth", {"n": 3}, 0)
    c, _ = C.run_identity("synth", {"n": 4}, 0)
    d, _ = C.run_identity("synth", {"n": 3}, 1)
    assert a == b and inputs == {}
    assert len({a, c, d}) == 3


@pytest.mark.parametrize("text, line", [
    ("[model]\nn_layers = 2\nn_layers = 3\n", 3),
    ("[model]\nn_layers = 2\n[data]\nvocab = \"v.json\"\n[model]\nd_model = 16\n", 5),
], ids=["key", "section"])
def test_parse_rejects_repeats(text, line):
    with pytest.raises(ConfigError, match=f"line {line}: .*repeated"):
        C.parse_toml_like(text)
