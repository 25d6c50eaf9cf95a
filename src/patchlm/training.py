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
synchronously inside the loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import checkpoint as ckpt
from . import codec, data, losses, synth
from . import model as M
from . import tensor as T
from .bpe import BpeVocab
from .errors import ConfigError
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
        if not 0.0 <= self.text_prob <= 1.0:
            raise ConfigError("text_prob must be in [0, 1]")
        if not 0.0 <= self.align_fraction <= 1.0:
            raise ConfigError("align_fraction must be in [0, 1]")


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

    # -- one update ------------------------------------------------------
    def train_step(self, batch: data.TrainBatch, lr_mult: float,
                   w_text: float, w_ts: float) -> dict:
        hidden = M.forward_hidden(self.params, self.config, batch.layouts)
        B, S, d = hidden.shape
        flat = T.reshape(hidden, (B * S, d))

        tt = batch.text_targets.reshape(-1)
        text_rows = np.flatnonzero(tt >= 0)
        if len(text_rows):
            ce, n_text = losses.lm_loss(self.params, self.config,
                                        T.index(flat, (text_rows,)), tt[text_rows])
        else:
            ce, n_text = Tensor(np.zeros((), dtype=flat.dtype)), 0

        tm = batch.ts_mask.reshape(B * S, -1)
        ts_rows = np.flatnonzero(tm.any(axis=1))
        if len(ts_rows):
            q_hat = losses.quantile_head(self.params, self.config, T.index(flat, (ts_rows,)))
            ql, _ = losses.masked_quantile_loss(
                q_hat, batch.ts_targets.reshape(B * S, -1)[ts_rows], tm[ts_rows], self.levels)
        else:
            ql = Tensor(np.zeros((), dtype=flat.dtype))

        loss = losses.combined_loss(ce, ql, w_text, w_ts)
        if loss.requires_grad or loss._rules:
            loss.backward()
            self.optimizer.step(lr_mult)
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
        tensors = {f"param.{k}": v for k, v in ckpt.params_to_tensors(self.params).items()}
        tensors.update(self.optimizer.state_tensors())
        extra = {
            "step": self.step,
            "tokens_seen": self.tokens_seen,
            "opt_t": self.optimizer.t,
            "rng_state": json.loads(json.dumps(self.rng.bit_generator.state)),
            "text_pos": (sources.text_stream.pos
                         if sources and sources.text_stream is not None else 0),
        }
        ckpt.save_checkpoint(path, self.config, tensors, extra)

    @classmethod
    def load(cls, path: str, sources: Optional[DataSources] = None) -> "Trainer":
        config, tensors, extra = ckpt.load_checkpoint(path)
        params = ckpt.tensors_to_params(
            {k: v for k, v in tensors.items() if k.startswith("param.")}, "param.")
        trainer = cls(config, params=params)
        trainer.optimizer.load_state_tensors(
            {k: v for k, v in tensors.items() if k.startswith("opt.")}, extra["opt_t"])
        trainer.step = extra["step"]
        trainer.tokens_seen = extra["tokens_seen"]
        trainer.rng.bit_generator.state = extra["rng_state"]
        if sources and sources.text_stream is not None:
            sources.text_stream.pos = extra.get("text_pos", 0)
        return trainer


def jsonl_sink(path: str):
    """Append-mode JSONL metrics writer."""
    fh = open(path, "a")

    def write(record: dict) -> None:
        fh.write(json.dumps(record) + "\n")
        fh.flush()
    write.close = fh.close  # type: ignore[attr-defined]
    return write
