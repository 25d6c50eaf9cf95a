"""Two-stage training orchestration.

Each step samples one modality (text with p=0.92 by default), builds a
single-modality batch (stage 2 swaps a small fraction of TS batches for
interleaved alignment batches), and applies one grouped optimizer update
under a shared warmup/constant/decay schedule.  When a second stage is
planned the schedule horizon spans both stages, so stage 2 resumes the
decay exactly where stage 1 left it and keeps the optimizer state.

Checkpoints capture params, optimizer buffers, RNG state, stream
positions, and the step counter; save -> load -> N steps reproduces an
uninterrupted run bit for bit.  Data generation therefore runs
synchronously inside the loop.  A checkpoint also records the code digest
of the package that saved it, so a resume under other code can say so.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import checkpoint as ckpt
from . import codec, data, losses, synth
from . import model as M
from . import tensor as T
from .bpe import BpeVocab
from .errors import ConfigError, DataError, NumericError
from .optim import Optimizer, Schedule
from .tensor import Tensor


@dataclass(frozen=True)
class StageConfig:
    seq_len: int = 256
    total_steps: int = 2000
    micro_batch: int = 4
    text_prob: float = 0.92
    align_fraction: float = 0.0      # stage 2: 0.05 of TS batches interleave
    w_text: float = losses.DEFAULT_TEXT_WEIGHT
    w_ts: float = losses.DEFAULT_TS_WEIGHT
    log_every: int = 50

    def __post_init__(self):
        for name in ("seq_len", "micro_batch", "log_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.total_steps < 0:
            raise ConfigError("total_steps must be >= 0")
        if not 0.0 <= self.text_prob <= 1.0:
            raise ConfigError("text_prob must be in [0, 1]")
        if not 0.0 <= self.align_fraction <= 1.0:
            raise ConfigError("align_fraction must be in [0, 1]")
        for name in ("w_text", "w_ts"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0")


@dataclass
class DataSources:
    """Callables feeding the loop; all randomness comes from the trainer rng."""

    text_stream: Optional[data.TokenStream] = None
    ts_source: Optional[Callable[[np.random.Generator], codec.RawSeries]] = None
    alignment_source: Optional[Callable[[np.random.Generator], Sequence[data.Segment]]] = None
    vocab: Optional[BpeVocab] = None


def synthetic_ts_source(length: int):
    def source(rng: np.random.Generator) -> codec.RawSeries:
        return codec.RawSeries(synth.sample_series(length, rng))
    return source


def mixed_ts_source(file_series: Sequence[codec.RawSeries], length: int,
                    synthetic_batch_prob: float = 0.20):
    """Corpus series with a per-draw synthetic fraction."""
    if not file_series:
        raise ConfigError("no corpus series given")

    def source(rng: np.random.Generator) -> codec.RawSeries:
        if rng.random() < synthetic_batch_prob:
            return codec.RawSeries(synth.sample_series(length, rng))
        return file_series[int(rng.integers(len(file_series)))]
    return source


# template captions for self-generated alignment pairs; these stand in for
# real description corpora and are deliberately simple placeholders
_MODE_PHRASES = {"additive": "overlaid", "mixed": "intertwined"}
_CATEGORY_PHRASES = {
    "rbf": "smooth variation",
    "periodic": "a periodic cycle",
    "periodic_harmonics": "a cycle with overtones",
    "rational_quadratic": "multi-scale wiggles",
    "linear_trend": "a linear trend",
    "polynomial": "a polynomial trend",
    "log_trend": "a logarithmic trend",
    "random_walk": "a random walk",
    "level_shift": "sudden level shifts",
    "discrete_wave": "a discrete wave",
    "damped_oscillation": "a damped oscillation",
    "white_noise": "white noise",
    "heteroskedastic_noise": "bursty noise",
    "periodic_noise": "rhythmic noise",
    "step_function": "stepwise levels",
    "exponential_trend": "exponential growth or decay",
    "constant": "a flat baseline",
}


def describe_synth(info: synth.SynthInfo) -> bytes:
    parts = [_CATEGORY_PHRASES[c] for c in info.categories]
    if len(parts) > 1:
        text = ", ".join(parts[:-1]) + f" and {parts[-1]} {_MODE_PHRASES[info.mode]}"
    else:
        text = parts[0]
    return f"This series shows {text}.".encode()


def synthetic_alignment_source(length: int):
    def source(rng: np.random.Generator) -> list[data.Segment]:
        series, info = synth.sample_series_info(length, rng)
        return [("text", describe_synth(info)), ("series", codec.RawSeries(series))]
    return source


class Trainer:
    def __init__(self, config: M.ModelConfig, params: Optional[dict[str, Tensor]] = None,
                 seed: int = 0):
        self.config = config
        self.params = params if params is not None else M.init_params(config, seed=seed)
        self.optimizer = Optimizer(self.params, config)
        self.rng = np.random.default_rng(seed)
        self.step = 0
        self.tokens_seen = 0
        self.levels = losses.quantile_levels(config.n_quantiles)
        self.saved_code_digest: Optional[str] = None   # set by load, when the file has one

    # -- one update ------------------------------------------------------
    def train_step(self, batch: data.TrainBatch, lr_mult: float,
                   w_text: float, w_ts: float) -> dict:
        B, S = batch.inputs.ids.shape
        rows = M.forward_hidden(self.params, self.config, batch.inputs)

        tt = batch.text_targets.reshape(-1)
        text_rows = np.flatnonzero(tt >= 0)
        ce, _ = losses.lm_loss(self.params, T.gather_rows(rows, text_rows), tt[text_rows])

        tm = batch.ts_mask.reshape(B * S, -1)
        ts_rows = np.flatnonzero(tm.any(axis=1))
        q_hat = losses.quantile_head(self.params, self.config, T.gather_rows(rows, ts_rows))
        ql, _ = losses.masked_quantile_loss(
            q_hat, batch.ts_targets.reshape(B * S, -1)[ts_rows], tm[ts_rows], self.levels)

        loss = losses.combined_loss(ce, ql, w_text, w_ts)
        if not np.isfinite(loss.data):
            # before backward(), so no parameter or optimizer buffer takes the NaN
            raise NumericError(f"step {self.step + 1} ({batch.modality} batch): loss is not "
                               f"finite (ce {ce.item()}, ql {ql.item()})")
        if loss.requires_grad:
            loss.backward()
            try:
                self.optimizer.step(lr_mult)
            except NumericError as exc:   # a non-finite gradient: nothing was updated
                raise NumericError(
                    f"step {self.step + 1} ({batch.modality} batch): {exc}") from exc
        self.optimizer.zero_grad()
        self.step += 1
        self.tokens_seen += B * S
        return {
            "step": self.step,
            "modality": batch.modality,
            "ce": float(ce.item()),
            "ql": float(ql.item()),
            "combined": float(loss.item()),
            "lr": float(lr_mult),
            "tokens_seen": self.tokens_seen,
        }

    # -- batch routing -----------------------------------------------------
    def next_batch(self, stage: StageConfig, sources: DataSources) -> data.TrainBatch:
        modality = data.sample_modality(self.rng, stage.text_prob)
        if modality == "text":
            if sources.text_stream is None:
                raise ConfigError("stage needs a text stream")
            return data.build_text_batch(sources.text_stream, stage.seq_len, stage.micro_batch)
        if stage.align_fraction > 0.0 and sources.alignment_source is not None \
                and self.rng.random() < stage.align_fraction:
            samples = [sources.alignment_source(self.rng) for _ in range(stage.micro_batch)]
            if sources.vocab is None:
                raise ConfigError("interleaved batches need a vocab")
            return data.build_interleaved_batch(samples, sources.vocab, stage.seq_len,
                                                self.config.patch_len)
        if sources.ts_source is None:
            raise ConfigError("stage needs a ts source")
        return data.build_ts_batch(lambda: sources.ts_source(self.rng), stage.seq_len,
                                   stage.micro_batch, self.config.patch_len)

    # -- stage loop ----------------------------------------------------------
    def run_stage(self, stage: StageConfig, sources: DataSources, schedule: Schedule,
                  metrics_sink: Optional[Callable[[dict], None]] = None,
                  checkpoint_path: Optional[str] = None,
                  checkpoint_every: int = 0) -> dict:
        last: dict = {}
        for i in range(stage.total_steps):
            batch = self.next_batch(stage, sources)
            lr_mult = schedule.at(self.step + 1)
            last = self.train_step(batch, lr_mult, stage.w_text, stage.w_ts)
            if metrics_sink and (last["step"] % stage.log_every == 0
                                 or i == stage.total_steps - 1):
                metrics_sink(last)
            if checkpoint_path and checkpoint_every and self.step % checkpoint_every == 0:
                self.save(checkpoint_path, sources)
        if checkpoint_path:
            self.save(checkpoint_path, sources)
        return last

    # -- checkpointing ----------------------------------------------------------
    def save(self, path: str, sources: Optional[DataSources] = None) -> None:
        from .config import code_digest      # config imports this module
        tensors = {f"param.{k}": v for k, v in ckpt.params_to_tensors(self.params).items()}
        tensors.update(self.optimizer.state_tensors())
        extra = {
            "step": self.step,
            "tokens_seen": self.tokens_seen,
            "opt_t": self.optimizer.t,
            "rng_state": json.loads(json.dumps(self.rng.bit_generator.state)),
            "text_pos": (sources.text_stream.pos
                         if sources and sources.text_stream is not None else 0),
            "code_digest": code_digest(),
        }
        ckpt.save_checkpoint(path, self.config, tensors, extra)

    @classmethod
    def load(cls, path: str, sources: Optional[DataSources] = None) -> "Trainer":
        config, tensors, extra = ckpt.load_checkpoint(path)
        trainer = cls(config, params=ckpt.model_params(config, tensors))
        try:
            opt_t = int(extra["opt_t"])
            trainer.step = int(extra["step"])
            trainer.tokens_seen = int(extra["tokens_seen"])
            trainer.rng.bit_generator.state = extra["rng_state"]
            text_pos = extra["text_pos"]
            trainer.saved_code_digest = extra.get("code_digest")
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: training state missing or malformed ({exc})") from exc
        trainer.optimizer.load_state_tensors(
            {k: v for k, v in tensors.items() if k.startswith("opt.")}, opt_t)
        if sources and sources.text_stream is not None:
            n_ids = len(sources.text_stream.ids)
            if type(text_pos) is not int or not 0 <= text_pos < n_ids:
                raise DataError(f"{path}: text_pos {text_pos!r} is not a position in the "
                                f"{n_ids}-token text stream")
            sources.text_stream.pos = text_pos
        return trainer


def jsonl_sink(path: str, step: int = 0):
    """JSONL metrics writer that first cuts ``path`` back to the records of
    steps <= ``step``: a fresh run (step 0) starts the file empty, and a run
    resumed from a checkpoint keeps what was written up to its step."""
    kept = []
    if step and os.path.exists(path):
        kept = [r for r in codec.read_jsonl(path)
                if isinstance(r.get("step"), int) and r["step"] <= step]
    fh = open(path, "w")
    fh.writelines(json.dumps(r) + "\n" for r in kept)

    def write(record: dict) -> None:
        fh.write(json.dumps(record) + "\n")
        fh.flush()
    write.close = fh.close  # type: ignore[attr-defined]
    return write
