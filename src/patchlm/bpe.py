"""Byte-level BPE: trainer, encoder, decoder, JSON vocabulary file.

Ids 0..255 are raw bytes; merge i creates id 256+i; the four special
tokens come after every merge token.  The trainer's vocab_size budget
covers bytes + merges only (specials are always appended), merging the
highest-frequency adjacent pair with a deterministic tie-break on the
lexicographically smallest (left, right) id pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ConfigError, DataError

SPECIAL_TOKENS = ("<|bos|>", "<|eos|>", "<|ts_begin|>", "<|ts_end|>")

_SEP = np.int64(1) << 40          # document separator, never a valid id
_PACK_SHIFT = np.int64(21)        # ids < 2^21 pack into one int64 pair key


@dataclass(frozen=True)
class BpeVocab:
    merges: tuple[tuple[int, int], ...]
    specials: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        limit = 256
        for left, right in self.merges:
            if not (0 <= left < limit and 0 <= right < limit):
                raise DataError(f"merge ({left},{right}) references undefined id (limit {limit})")
            limit += 1

    @property
    def n_tokens(self) -> int:
        """Byte + merge token count (excludes specials)."""
        return 256 + len(self.merges)

    @property
    def size(self) -> int:
        return self.n_tokens + len(self.specials)

    def token_bytes(self) -> list[bytes]:
        table = [bytes([i]) for i in range(256)]
        for left, right in self.merges:
            table.append(table[left] + table[right])
        return table

    def merge_ranks(self) -> dict[tuple[int, int], int]:
        return {pair: rank for rank, pair in enumerate(self.merges)}


def default_specials(n_merges: int) -> dict[str, int]:
    return {name: 256 + n_merges + i for i, name in enumerate(SPECIAL_TOKENS)}


def _pair_counts(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    left, right = arr[:-1], arr[1:]
    valid = (left != _SEP) & (right != _SEP)
    packed = (left[valid] << _PACK_SHIFT) | right[valid]
    return np.unique(packed, return_counts=True)


def _merge_in_place(arr: np.ndarray, left: int, right: int, new_id: int) -> np.ndarray:
    """Replace non-overlapping (left, right) adjacencies left-to-right."""
    hits = np.flatnonzero((arr[:-1] == left) & (arr[1:] == right))
    if hits.size == 0:
        return arr
    keep_hits = []
    prev = -2
    for h in hits.tolist():
        if h > prev + 1:
            keep_hits.append(h)
            prev = h
    keep_hits = np.array(keep_hits)
    arr[keep_hits] = new_id
    mask = np.ones(arr.size, dtype=bool)
    mask[keep_hits + 1] = False
    return arr[mask]


def bpe_train(corpus: Iterable[bytes], vocab_size: int) -> BpeVocab:
    """Greedy pair merging until ``vocab_size`` ids exist or no pair repeats."""
    if vocab_size < 257:
        raise ConfigError(f"vocab_size must be >= 257, got {vocab_size}")
    docs = [np.frombuffer(doc, dtype=np.uint8).astype(np.int64) for doc in corpus]
    if not docs or all(d.size == 0 for d in docs):
        raise DataError("empty corpus")
    sep = np.array([_SEP], dtype=np.int64)
    arr = np.concatenate([chunk for doc in docs for chunk in (doc, sep)])[:-1]

    merges: list[tuple[int, int]] = []
    while 256 + len(merges) < vocab_size:
        pairs, counts = _pair_counts(arr)
        if pairs.size == 0:
            break
        best_count = counts.max()
        if best_count < 2:
            break
        candidates = pairs[counts == best_count]
        best = candidates.min()  # smallest packed key == smallest (left, right)
        left = int(best >> _PACK_SHIFT)
        right = int(best & ((1 << int(_PACK_SHIFT)) - 1))
        new_id = 256 + len(merges)
        merges.append((left, right))
        arr = _merge_in_place(arr, left, right, new_id)

    return BpeVocab(tuple(merges), default_specials(len(merges)))


def encode(data: bytes, vocab: BpeVocab) -> list[int]:
    """Apply merges in training order; total on arbitrary byte strings."""
    ids = list(data)
    if len(ids) < 2:
        return ids
    ranks = vocab.merge_ranks()
    while len(ids) >= 2:
        best_rank = None
        best_pair = None
        for pair in zip(ids, ids[1:]):
            rank = ranks.get(pair)
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank = rank
                best_pair = pair
        if best_pair is None:
            break
        new_id = 256 + best_rank
        left, right = best_pair
        out = []
        i = 0
        while i < len(ids):
            if i + 1 < len(ids) and ids[i] == left and ids[i + 1] == right:
                out.append(new_id)
                i += 2
            else:
                out.append(ids[i])
                i += 1
        ids = out
    return ids


def decode(ids: Iterable[int], vocab: BpeVocab) -> bytes:
    """Inverse table lookup; specials render as their literal names."""
    table = vocab.token_bytes()
    by_id = {i: name.encode() for name, i in vocab.specials.items()}
    out = bytearray()
    for tok in ids:
        tok = int(tok)
        if 0 <= tok < len(table):
            out += table[tok]
        elif tok in by_id:
            out += by_id[tok]
        else:
            raise DataError(f"unknown token id {tok}")
    return bytes(out)


def save_vocab(vocab: BpeVocab, path: str) -> None:
    doc = {
        "vocab_size": vocab.size,
        "tokens": [t.hex() for t in vocab.token_bytes()],
        "merges": [[left, right] for left, right in vocab.merges],
        "specials": dict(vocab.specials),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_vocab(path: str) -> BpeVocab:
    with open(path) as fh:
        try:
            doc = json.load(fh)
            merges = tuple((int(l), int(r)) for l, r in doc["merges"])
            specials = {str(k): int(v) for k, v in doc["specials"].items()}
            tokens = [bytes.fromhex(t) for t in doc["tokens"]]
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            # ValueError covers invalid JSON, undecodable bytes and bad numbers
            raise DataError(f"{path}: malformed vocabulary file ({exc})") from exc
    vocab = BpeVocab(merges, specials)
    if tokens != vocab.token_bytes():
        raise DataError("vocabulary file inconsistent: token table does not match merges")
    if doc.get("vocab_size") != vocab.size:
        raise DataError("vocabulary file inconsistent: vocab_size mismatch")
    return vocab
