"""Training batch construction for the three batch flavors.

Every batch hands the model one ``model.Inputs``: a [B, S] id array with
a token id at each text position and ``model.PATCH`` at each patch
position, plus the patch feature rows in row-major position order.  The
loss targets and masks are [B, S] arrays over the same positions.

Text batches are plain next-token packing over a cycling token stream
(documents separated by <|eos|>).  Time-series batches pack patch rows
from as many series as fit and supervise causal next-patch prediction
inside each channel.  Interleaved batches mix text segments and series
segments in order, bracket each series with the ts sentinels, and carry
both loss masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import bpe, codec
from .errors import DataError
from .model import PATCH, Inputs

Segment = tuple[str, object]  # ("text", bytes) | ("series", RawSeries)


@dataclass
class TrainBatch:
    inputs: Inputs
    text_targets: np.ndarray      # [B, S] int64, -1 = unsupervised
    ts_targets: np.ndarray        # [B, S, P] float32, normalized next-patch values
    ts_mask: np.ndarray           # [B, S, P] float32
    modality: str


class TokenStream:
    """Cycling reader over one packed token id array."""

    def __init__(self, ids: np.ndarray):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            raise DataError("empty token stream")
        self.ids = ids
        self.pos = 0

    def next_chunk(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            take = min(n - filled, len(self.ids) - self.pos)
            out[filled:filled + take] = self.ids[self.pos:self.pos + take]
            self.pos = (self.pos + take) % len(self.ids)
            filled += take
        return out


def pack_documents(docs: Sequence[bytes], vocab: bpe.BpeVocab) -> np.ndarray:
    """Encode documents and join them with <|eos|> separators."""
    eos = vocab.specials["<|eos|>"]
    ids: list[int] = []
    for doc in docs:
        ids.extend(bpe.encode(doc, vocab))
        ids.append(eos)
    if not ids:
        raise DataError("no tokens after packing")
    return np.asarray(ids, dtype=np.int64)


def build_text_batch(stream: TokenStream, seq_len: int, micro_batch: int) -> TrainBatch:
    ids = np.empty((micro_batch, seq_len), dtype=np.int64)
    targets = np.empty((micro_batch, seq_len), dtype=np.int64)
    P = 1  # text batches carry all-zero [B, S, 1] TS targets and mask
    for b in range(micro_batch):
        chunk = stream.next_chunk(seq_len + 1)
        ids[b] = chunk[:-1]
        targets[b] = chunk[1:]
    return TrainBatch(inputs=Inputs(ids), text_targets=targets,
                      ts_targets=np.zeros((micro_batch, seq_len, P), dtype=np.float32),
                      ts_mask=np.zeros((micro_batch, seq_len, P), dtype=np.float32),
                      modality="text")


def _series_patch_rows(series: codec.RawSeries, patch_len: int):
    """[C, n, 4P] features, [C, n, P] next-patch targets and target masks of one series."""
    feats = codec.patchify(series, patch_len)
    P = patch_len
    targets = np.zeros(feats.shape[:2] + (P,), dtype=np.float32)
    mask = np.zeros_like(targets)
    targets[:, :-1] = feats[:, 1:, P:2 * P]
    mask[:, :-1] = feats[:, 1:, 2 * P:3 * P]
    return feats, targets, mask


def build_ts_batch(source: Callable[[], codec.RawSeries], seq_len: int,
                   micro_batch: int, patch_len: int) -> TrainBatch:
    """Pack whole series (channel by channel) until seq_len positions fill.

    A channel cut at seq_len keeps the target of its last kept row: the
    next patch exists in the series even though it is not in the batch.
    """
    P = patch_len
    rows: list[np.ndarray] = []
    targets = np.zeros((micro_batch, seq_len, P), dtype=np.float32)
    mask = np.zeros((micro_batch, seq_len, P), dtype=np.float32)
    for b in range(micro_batch):
        pos = 0
        while pos < seq_len:
            for feats, tgt, msk in zip(*_series_patch_rows(source(), P)):
                take = min(len(feats), seq_len - pos)
                if take <= 0:
                    break
                rows.append(feats[:take])
                targets[b, pos:pos + take] = tgt[:take]
                mask[b, pos:pos + take] = msk[:take]
                pos += take
    ids = np.full((micro_batch, seq_len), PATCH, dtype=np.int64)
    return TrainBatch(inputs=Inputs(ids, np.concatenate(rows, axis=0)),
                      text_targets=np.full((micro_batch, seq_len), -1, dtype=np.int64),
                      ts_targets=targets, ts_mask=mask, modality="ts")


def build_interleaved_batch(samples: Sequence[Sequence[Segment]], vocab: bpe.BpeVocab,
                            seq_len: int, patch_len: int) -> TrainBatch:
    """Mixed text/series sequences with sentinel-bracketed series spans.

    A sample longer than seq_len is cut there; a shorter one is padded with
    unsupervised <|eos|>.  CE supervises a real text position whose
    successor is real text.
    """
    micro_batch = len(samples)
    P = patch_len
    ts_begin = vocab.specials["<|ts_begin|>"]
    ts_end = vocab.specials["<|ts_end|>"]
    eos = vocab.specials["<|eos|>"]

    ids = np.full((micro_batch, seq_len), eos, dtype=np.int64)
    patches = [np.zeros((0, 4 * P), dtype=np.float32)]
    text_targets = np.full((micro_batch, seq_len), -1, dtype=np.int64)
    ts_targets = np.zeros((micro_batch, seq_len, P), dtype=np.float32)
    ts_mask = np.zeros((micro_batch, seq_len, P), dtype=np.float32)

    for b, segments in enumerate(samples):
        seq: list[int] = []
        series_rows = []  # (features, targets, masks) per series, channel rows in order
        for kind, payload in segments:
            if kind == "text":
                seq.extend(bpe.encode(payload, vocab))
            elif kind == "series":
                rows = [a.reshape(-1, a.shape[-1]) for a in _series_patch_rows(payload, P)]
                seq += [ts_begin] + [PATCH] * len(rows[0]) + [ts_end]
                series_rows.append(rows)
            else:
                raise DataError(f"unknown segment kind {kind!r}")
        seq.append(eos)

        n_real = min(len(seq), seq_len)
        ids[b, :n_real] = seq[:n_real]
        real = ids[b, :n_real]
        supervised = (real[:-1] != PATCH) & (real[1:] != PATCH)
        text_targets[b, :n_real - 1] = np.where(supervised, real[1:], -1)
        ts_pos = np.flatnonzero(real == PATCH)
        if len(ts_pos):
            feats, tgt, msk = (np.concatenate(part, axis=0)[:len(ts_pos)]
                               for part in zip(*series_rows))
            patches.append(feats)
            ts_targets[b, ts_pos] = tgt
            ts_mask[b, ts_pos] = msk
    return TrainBatch(inputs=Inputs(ids, np.concatenate(patches, axis=0)),
                      text_targets=text_targets, ts_targets=ts_targets, ts_mask=ts_mask,
                      modality="interleaved")


def sample_modality(rng: np.random.Generator, text_prob: float) -> str:
    """One modality per training step."""
    return "text" if rng.random() < text_prob else "ts"
