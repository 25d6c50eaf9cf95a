"""Run configuration: run configs read with ``tomllib``, run identity.

The config file is TOML, read by the standard library's ``tomllib``.  Its
top level holds the tables [model], [stage1], optional [stage2] and [data]
and nothing else: any other top-level name, such as a misspelled table or a
key outside a table, is a ConfigError naming it.  So is a file that is not
UTF-8 or not valid TOML (a repeated key or table among them, with its
line), and a value whose type does not fit its field's annotation (an int
field takes an int but not a bool, a float field an int or a float) or
that the config's own checks reject, with the section and key named.

A run is identified by ``run_identity``: a hash of the command, the
seed, the package source (``code_digest``) and its settings, in which every
``InputPath`` (a file the run reads, such as a CLI input flag or a
``[data]`` path) stands for the SHA-256 of its content.  ``write_manifest``
records that hash, the code digest and the numeric platform (numpy and BLAS
versions and the BLAS kernel, outside the hash) with the input and output
digests.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import itertools
import json
import pathlib
import tomllib
import typing
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from . import __version__
from .errors import ConfigError
from .model import ModelConfig
from .training import StageConfig


class InputPath(str):
    """A path naming a file the run reads; the run hash covers the file's
    content, not its name."""


@dataclass
class DataConfig:
    text: list[str] = field(default_factory=list)
    series: str = ""
    vocab: str = ""
    out_dir: str = "run_out"
    synth_length: int = 512
    align_length: int = 128
    synthetic_batch_prob: float = 0.20

    def __post_init__(self):
        for name in ("synth_length", "align_length"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be >= 2")
        if not 0.0 <= self.synthetic_batch_prob <= 1.0:
            raise ConfigError("synthetic_batch_prob must be in [0, 1]")


@dataclass
class RunConfig:
    model: ModelConfig
    stage1: StageConfig
    stage2: Optional[StageConfig]
    data: DataConfig


# what a parsed value must be to fill a field of each annotated type;
# a bool is never a number
_FIELD_TYPES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    list[str]: ("a list of strings",
                lambda v: isinstance(v, list) and all(isinstance(p, str) for p in v)),
}


def _build(cls, section: dict, where: str):
    hints = typing.get_type_hints(cls)
    unknown = set(section) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"[{where}] has unknown keys: {sorted(unknown)}")
    for key, value in section.items():
        name, fits = _FIELD_TYPES[hints[key]]
        if not fits(value):
            raise ConfigError(f"[{where}] {key} must be {name}, got {value!r}")
    try:
        return cls(**section)
    except ConfigError as exc:
        raise ConfigError(f"[{where}] {exc}") from exc


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, "rb") as fh:
            sections = tomllib.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for name, value in sections.items():
        if name not in ("model", "stage1", "stage2", "data") or not isinstance(value, dict):
            raise ConfigError(f"{path}: top-level {name!r} is not a [model], [stage1], "
                              "[stage2] or [data] table")
    if "model" not in sections or "stage1" not in sections:
        raise ConfigError("config needs [model] and [stage1] sections")
    data_section = dict(sections.get("data", {}))
    if isinstance(data_section.get("text"), str):  # one path
        data_section["text"] = [data_section["text"]]
    data = _build(DataConfig, data_section, "data")
    # the files the run reads, so that the run hash covers their content
    data.text = [InputPath(p) for p in data.text]
    data.series, data.vocab = (InputPath(p) if p else p for p in (data.series, data.vocab))
    run = RunConfig(
        model=_build(ModelConfig, sections["model"], "model"),
        stage1=_build(StageConfig, sections["stage1"], "stage1"),
        stage2=(_build(StageConfig, sections["stage2"], "stage2")
                if "stage2" in sections else None),
        data=data,
    )
    # checked before a batch of seq_len positions is built
    for name, stage in (("stage1", run.stage1), ("stage2", run.stage2)):
        if stage and stage.seq_len > run.model.max_seq:
            raise ConfigError(f"[{name}] seq_len {stage.seq_len} exceeds [model] max_seq "
                              f"{run.model.max_seq}")
    return run


# ---------------------------------------------------------------------
# run identity and manifests: identical hash => identical outputs
# ---------------------------------------------------------------------

def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@functools.cache
def code_digest() -> str:
    """SHA-256 of the sorted (file name, bytes) pairs of the package's
    ``*.py`` files, computed once per process.  Any edit to the source, a
    comment included, changes it: the safe side for a run identity."""
    h = hashlib.sha256()
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        body = path.read_bytes()
        h.update(f"{path.name}\0{len(body)}\0".encode())
        h.update(body)
    return h.hexdigest()


def _blas_core() -> str:
    """The kernel that OpenBLAS's ``DYNAMIC_ARCH`` picked at run time, such as
    SkylakeX, read from the BLAS that numpy's core module links; "?" where no
    ``*openblas_get_corename*`` symbol is found.  numpy's build config names
    only the build's target, which can differ."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return "?"
    for prefix, suffix in itertools.product(("scipy_", ""), ("64_", "")):
        corename = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
        if corename is not None:
            corename.argtypes = ()
            corename.restype = ctypes.c_char_p
            return (corename() or b"?").decode()
    return "?"


@functools.cache
def numeric_platform() -> dict[str, str]:
    """The numpy version, its BLAS build's name and version, and the BLAS
    kernel picked at run time.  Manifests record them but run hashes leave
    them out: equal bytes are promised for one numpy + BLAS build on one
    kernel, since a BLAS kernel choice changes last bits."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy_version": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_core": _blas_core()}


def run_identity(command: str, config: Any,
                 seed: Optional[int]) -> tuple[str, dict[str, Optional[str]]]:
    """(config hash, {input path: SHA-256}) of a run.

    The hash covers the command, the seed, ``code_digest()`` and ``config``
    (dataclasses, dicts, lists and scalars) with every InputPath in it
    replaced by the SHA-256 of its file, so the same input contents under
    other names give the same hash.  A file that cannot be read counts as
    None; a command that reads it then fails with its own error.
    """
    inputs: dict[str, Optional[str]] = {}

    def canonical(obj: Any) -> Any:
        if isinstance(obj, InputPath):
            if obj not in inputs:
                try:
                    inputs[obj] = file_digest(obj)
                except OSError:
                    inputs[obj] = None
            return inputs[obj]
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return canonical(dataclasses.asdict(obj))
        if isinstance(obj, dict):
            return {k: canonical(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [canonical(v) for v in obj]
        return obj

    blob = json.dumps({"command": command, "config": canonical(config),
                       "seed": seed, "code": code_digest()},
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest(), inputs


def write_manifest(path: str, command: str, config_hash: str, seed: Optional[int],
                   inputs: dict[str, Optional[str]], outputs: list[str],
                   wall_clock_s: float) -> None:
    """Write the run manifest: identity, numeric platform, input digests and
    output digests."""
    manifest = {
        "command": command,
        "config_hash": config_hash,
        "seed": seed,
        "code_version": __version__,
        "code_digest": code_digest(),
        **numeric_platform(),
        "wall_clock_s": round(wall_clock_s, 3),
        "inputs": inputs,
        "outputs": {p: file_digest(p) for p in outputs},
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
