import pytest

from patchlm import config as C
from patchlm.errors import ConfigError

MODEL = """
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
"""


def _load(tmp_path, text):
    path = tmp_path / "run.toml"
    path.write_text(text)
    return C.load_run_config(str(path))


def test_parse_sections_and_types(tmp_path):
    run = _load(tmp_path, MODEL + """
# training run
[stage1]
total_steps = 10
seq_len = 16
w_ts = 5e-1

[data]
text = ["a.txt", "b.txt"]
out_dir = "runs/demo"
synthetic_batch_prob = 0.2
""")
    assert run.model.n_layers == 1 and type(run.model.n_layers) is int
    assert run.stage1.w_ts == 0.5
    assert run.data.text == ["a.txt", "b.txt"]
    assert run.data.out_dir == "runs/demo"
    assert run.data.synthetic_batch_prob == 0.2


def test_load_reads_hash_and_comma_inside_strings(tmp_path):
    run = _load(tmp_path, MODEL + """
[stage1]
total_steps = 1
seq_len = 16
[data]
text = ["a,b.txt", "c.txt"]  # two paths
out_dir = "runs/#1"
vocab = 'v#.json'
""")
    assert run.data.text == ["a,b.txt", "c.txt"]
    assert run.data.out_dir == "runs/#1"
    assert run.data.vocab == "v#.json"


def test_load_takes_a_bool_as_a_bool(tmp_path):
    with pytest.raises(ConfigError, match=r"\[model\] n_layers must be an integer, got True"):
        _load(tmp_path, MODEL.replace("n_layers = 1", "n_layers = true")
              + "[stage1]\ntotal_steps = 1\n")


def test_parse_rejects_stray_keys(tmp_path):
    with pytest.raises(ConfigError, match="run.toml: top-level 'key' is not a"):
        _load(tmp_path, "key = 1\n")
    with pytest.raises(ConfigError, match="run.toml: .*at line 2,"):
        _load(tmp_path, "[s]\nnot a kv line\n")


@pytest.mark.parametrize("text, name", [
    (MODEL + "[stage1]\ntotal_steps = 1\n[[data]]\n", "'data'"),
    ("stage1 = 3\n" + MODEL, "'stage1'"),
], ids=["array-of-tables", "key-for-table"])
def test_load_rejects_top_level_names_it_does_not_read(tmp_path, text, name):
    with pytest.raises(ConfigError, match=f"top-level {name} is not a"):
        _load(tmp_path, text)


def test_load_run_config(tmp_path):
    run = _load(tmp_path, MODEL + """
[stage1]
total_steps = 10
seq_len = 16

[data]
text = "corpus.txt"
vocab = "vocab.json"
""")
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
def test_parse_rejects_repeats(tmp_path, text, line):
    with pytest.raises(ConfigError, match=f"run.toml: .*at line {line},"):
        _load(tmp_path, text)
