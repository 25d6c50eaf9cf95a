"""Training batch construction for the three batch flavors.

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
from .model import SequenceLayout

Segment = tuple[str, object]  # ("text", bytes) | ("series", RawSeries)


@dataclass
class TrainBatch:
    layouts: list[SequenceLayout]
    text_targets: np.ndarray      # [B, S] int64, -1 = unsupervised
    ts_targets: np.ndarray        # [B, S, P] float32, normalized next-patch values
    ts_mask: np.ndarray           # [B, S, P] float32
    modality: str

    @property
    def n_text_supervised(self) -> int:
        return int((self.text_targets >= 0).sum())

    @property
    def n_ts_supervised(self) -> float:
        return float(self.ts_mask.sum())


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
    layouts = []
    targets = np.empty((micro_batch, seq_len), dtype=np.int64)
    P = 1  # text batches carry all-zero [B, S, 1] TS targets and mask
    for b in range(micro_batch):
        chunk = stream.next_chunk(seq_len + 1)
        layouts.append(SequenceLayout(length=seq_len, text_pos=np.arange(seq_len),
                                      text_ids=chunk[:-1]))
        targets[b] = chunk[1:]
    return TrainBatch(layouts=layouts, text_targets=targets,
                      ts_targets=np.zeros((micro_batch, seq_len, P), dtype=np.float32),
                      ts_mask=np.zeros((micro_batch, seq_len, P), dtype=np.float32),
                      modality="text")


def _series_patch_rows(series: codec.RawSeries, patch_len: int):
    """Per-channel (features, next-patch targets, target masks) for one series."""
    pb = codec.patchify(series, patch_len)
    P = patch_len
    per_channel = []
    for sl in pb.channel_slices:
        feats = pb.features[sl]
        vals = feats[:, P:2 * P].astype(np.float32)
        valid = pb.validity[sl].astype(np.float32)
        t = len(feats)
        targets = np.zeros((t, P), dtype=np.float32)
        mask = np.zeros((t, P), dtype=np.float32)
        if t > 1:
            targets[:-1] = vals[1:]
            mask[:-1] = valid[1:]
        per_channel.append((feats, targets, mask))
    return per_channel


def build_ts_batch(source: Callable[[], codec.RawSeries], seq_len: int,
                   micro_batch: int, patch_len: int) -> TrainBatch:
    """Pack whole series (channel by channel) until seq_len positions fill."""
    P = patch_len
    layouts = []
    all_targets = np.zeros((micro_batch, seq_len, P), dtype=np.float32)
    all_masks = np.zeros((micro_batch, seq_len, P), dtype=np.float32)
    for b in range(micro_batch):
        rows: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        masks: list[np.ndarray] = []
        room = seq_len
        while room > 0:
            series = source()
            for feats, tgt, msk in _series_patch_rows(series, P):
                if room <= 0:
                    break
                take = min(len(feats), room)
                if take < len(feats):  # truncated: last kept row loses its target
                    tgt = tgt.copy()
                    msk = msk.copy()
                    tgt[take - 1:] = 0.0
                    msk[take - 1:] = 0.0
                rows.append(feats[:take])
                targets.append(tgt[:take])
                masks.append(msk[:take])
                room -= take
        feats = np.concatenate(rows, axis=0)
        layouts.append(SequenceLayout(length=seq_len, ts_pos=np.arange(seq_len),
                                      ts_features=feats))
        all_targets[b] = np.concatenate(targets, axis=0)
        all_masks[b] = np.concatenate(masks, axis=0)
    return TrainBatch(layouts=layouts,
                      text_targets=np.full((micro_batch, seq_len), -1, dtype=np.int64),
                      ts_targets=all_targets, ts_mask=all_masks, modality="ts")


def build_interleaved_batch(samples: Sequence[Sequence[Segment]], vocab: bpe.BpeVocab,
                            seq_len: int, patch_len: int) -> TrainBatch:
    """Mixed text/series sequences with sentinel-bracketed series spans."""
    micro_batch = len(samples)
    P = patch_len
    ts_begin = vocab.specials["<|ts_begin|>"]
    ts_end = vocab.specials["<|ts_end|>"]
    eos = vocab.specials["<|eos|>"]

    layouts = []
    text_targets = np.full((micro_batch, seq_len), -1, dtype=np.int64)
    ts_targets = np.zeros((micro_batch, seq_len, P), dtype=np.float32)
    ts_mask = np.zeros((micro_batch, seq_len, P), dtype=np.float32)

    for b, segments in enumerate(samples):
        # assemble per-position streams first, then truncate/pad to seq_len
        kinds: list[str] = []       # "text" | "ts"
        tok_ids: list[int] = []
        feat_rows: list[np.ndarray] = []
        row_targets: list[np.ndarray] = []
        row_masks: list[np.ndarray] = []

        def push_text(tid: int):
            kinds.append("text")
            tok_ids.append(tid)

        for kind, payload in segments:
            if kind == "text":
                for tid in bpe.encode(payload, vocab):
                    push_text(tid)
            elif kind == "series":
                push_text(ts_begin)
                for feats, tgt, msk in _series_patch_rows(payload, P):
                    for row, trow, mrow in zip(feats, tgt, msk):
                        kinds.append("ts")
                        feat_rows.append(row)
                        row_targets.append(trow)
                        row_masks.append(mrow)
                push_text(ts_end)
            else:
                raise DataError(f"unknown segment kind {kind!r}")
        push_text(eos)

        n_real = min(len(kinds), seq_len)
        kinds = kinds[:seq_len]
        while len(kinds) < seq_len:
            kinds.append("text")
            tok_ids.append(eos)

        text_pos, ts_pos = [], []
        ids_in_order, feats_in_order = [], []
        id_at_pos: dict[int, int] = {}
        ti = fi = 0
        for pos, kind in enumerate(kinds):
            if kind == "text":
                text_pos.append(pos)
                ids_in_order.append(tok_ids[ti])
                id_at_pos[pos] = tok_ids[ti]
                ti += 1
            else:
                ts_pos.append(pos)
                feats_in_order.append(feat_rows[fi])
                ts_targets[b, pos] = row_targets[fi]
                ts_mask[b, pos] = row_masks[fi]
                fi += 1
        # CE supervises a real (non-pad) text position whose successor is text
        for pos in text_pos:
            nxt = pos + 1
            if nxt < n_real and kinds[nxt] == "text":
                text_targets[b, pos] = id_at_pos[nxt]
        feats_arr = (np.stack(feats_in_order) if feats_in_order
                     else np.zeros((0, 4 * P), dtype=np.float32))
        layouts.append(SequenceLayout(length=seq_len,
                                      text_pos=np.asarray(text_pos, dtype=np.int64),
                                      text_ids=np.asarray(ids_in_order, dtype=np.int64),
                                      ts_pos=np.asarray(ts_pos, dtype=np.int64),
                                      ts_features=feats_arr))
    return TrainBatch(layouts=layouts, text_targets=text_targets,
                      ts_targets=ts_targets, ts_mask=ts_mask, modality="interleaved")


def sample_modality(rng: np.random.Generator, text_prob: float) -> str:
    """One modality per training step."""
    return "text" if rng.random() < text_prob else "ts"
