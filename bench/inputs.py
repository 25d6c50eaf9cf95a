"""Seeded benchmark inputs; the program only ever sees what these return.

Lengths are drawn by stratified log-uniform sampling: item i of n takes
its length from the i-th of n equal slices of the log range, and the
items are then shuffled.  Every seed therefore gets the same length mix
up to jitter inside a slice, while values and order change with the seed.
That keeps per-run medians comparable across seeds.  The forecast and
tokenize sets, whose p50/p90 are read straight off the per-item times,
allow only a quarter of a slice of jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from patchlm import codec, synth, training


def stratified_lengths(rng: np.random.Generator, n: int, lo: int, hi: int,
                       jitter: float = 1.0, shuffle: bool = True) -> np.ndarray:
    """n log-uniform lengths in [lo, hi], one per equal slice of the log range;
    ``jitter`` is the share of its slice a length may move within."""
    u = (np.arange(n) + 0.5 + jitter * (rng.random(n) - 0.5)) / n
    lengths = np.round(lo * (hi / lo) ** u).astype(int)
    return rng.permutation(lengths) if shuffle else lengths


SET_JITTER = 0.25


# -- text -----------------------------------------------------------------------

def bigram_token_ids(rng: np.random.Generator, vocab: int, n: int) -> np.ndarray:
    """A learnable Zipf-skewed stream.  Each id has 8 successors drawn from a
    fixed Zipf(1.1) law over a seeded ranking of the ids, picked with
    geometric odds; 5% of positions restart at an id drawn from that law."""
    p = 1.0 / np.arange(1, vocab + 1) ** 1.1
    ranked = rng.permutation(vocab)
    succ = ranked[rng.choice(vocab, size=(vocab, 8), p=p / p.sum())].tolist()
    pick = np.minimum(rng.geometric(0.5, size=n) - 1, 7).tolist()
    restart = (rng.random(n) < 0.05).tolist()
    starts = ranked[rng.choice(vocab, size=n, p=p / p.sum())].tolist()
    out = np.empty(n, dtype=np.int64)
    x = starts[0]
    for i in range(n):
        x = starts[i] if restart[i] else succ[x][pick[i]]
        out[i] = x
    return out


# -- series -----------------------------------------------------------------------

def series_values(rng: np.random.Generator, n_channels: int, length: int) -> np.ndarray:
    """[C, L] level + trend + two seasonal cycles + noise.

    The level sits well above the swings, so forecast WQL never divides by
    a near-zero target mass, and the narrow parameter ranges keep the mean
    WQL of a seeded set close across seeds."""
    t = np.arange(length, dtype=np.float64)
    out = np.empty((n_channels, length))
    for c in range(n_channels):
        level = rng.uniform(14.0, 16.0)
        trend = rng.normal(0.0, 0.5) * t / max(length, 1)
        seasonal = np.zeros(length)
        for period in rng.choice([7.0, 12.0, 24.0, 48.0, 168.0], size=2, replace=False):
            seasonal += rng.uniform(1.0, 1.2) * np.sin(2 * np.pi * t / period + rng.uniform(0, 6.3))
        out[c] = level + trend + seasonal + rng.normal(0.0, rng.uniform(0.2, 0.3), length)
    return out


def punch_gaps(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    """Copy with 1-3 NaN runs per channel, never covering the last point."""
    out = values.copy()
    length = out.shape[1]
    for c in range(out.shape[0]):
        for _ in range(int(rng.integers(1, 4))):
            run = int(rng.integers(1, max(2, length // 10)))
            start = int(rng.integers(0, max(1, length - run - 1)))
            out[c, start:start + run] = np.nan
    return out


def train_series(rng: np.random.Generator, n: int, lo: int, hi: int) -> list[codec.RawSeries]:
    """Corpus for the TS stream: a quarter are 2-3 channel series, a third
    carry NaN gaps, and lengths span [lo, hi] so packing truncates some
    series and fits several others into one sequence."""
    out = []
    for i, length in enumerate(stratified_lengths(rng, n, lo, hi)):
        channels = int(rng.integers(2, 4)) if i % 4 == 1 else 1
        values = series_values(rng, channels, int(length))
        if i % 3 == 0:
            values = punch_gaps(rng, values)
        out.append(codec.RawSeries(values, series_id=f"s{i}"))
    return out


def caption_corpus(rng: np.random.Generator, n: int) -> list[bytes]:
    """Captions in the alignment stream's template language, for its BPE vocab."""
    cats = synth.KERNEL_CATEGORIES
    return [training.describe_synth(synth.SynthInfo(
        categories=list(rng.choice(cats, size=int(rng.integers(1, 4)), replace=False)),
        mode=str(rng.choice(["additive", "mixed"])))) for _ in range(n)]


@dataclass
class ForecastItem:
    context: np.ndarray          # [C, L] model input, NaN = missing
    history: np.ndarray          # [C, L] the same span without gaps, for the metric
    target: np.ndarray           # [C, H] seeded continuation
    text_ids: np.ndarray
    repeat: int
    season: int


def forecast_items(rng: np.random.Generator, n: int, max_ctx: int, max_h: int,
                   max_seq: int, patch_len: int, vocab: int) -> list[ForecastItem]:
    """Contexts 64..max_ctx and horizons 8..max_h, in seeded order.

    The mix is a fixed grid: item i takes the i-th context slice and the
    (7i mod n)-th horizon slice, and by index a quarter are multivariate
    (2 or 3 channels), a quarter carry a text prefix and a quarter have
    gaps.  Seeds move lengths only inside their slice, so every seed asks
    for about the same work.
    """
    ctxs = stratified_lengths(rng, n, 64, max_ctx, SET_JITTER, shuffle=False).tolist()
    horizons = stratified_lengths(rng, n, 8, max_h, SET_JITTER, shuffle=False).tolist()
    items = []
    for i in range(n):
        ctx, h = ctxs[i], horizons[7 * i % n]
        channels = 2 + (i // 4) % 2 if i % 4 == 1 else 1
        values = series_values(rng, channels, ctx + h)
        history, target = values[:, :ctx], values[:, ctx:]
        context = punch_gaps(rng, history) if i % 4 == 3 else history
        text_ids = (rng.integers(0, vocab, size=int(rng.integers(8, 33)))
                    if i % 4 == 2 else np.zeros(0, dtype=np.int64))
        n_patches = channels * -(-ctx // patch_len)
        repeat = max(1, min(1 + i // 4 % 4, (max_seq - len(text_ids)) // n_patches))
        items.append(ForecastItem(context, history, target, text_ids, repeat, season=24))
    return [items[i] for i in rng.permutation(n)]


def fill_zero_params(rng: np.random.Generator, params: dict, scale: float = 0.05) -> None:
    """The zero-initialised matrices (wo, w3, quantile head) get seeded values
    so forecasts and embeddings depend on every layer."""
    for p in params.values():
        if p.data.ndim == 2 and not p.data.any():
            p.data[...] = rng.normal(0.0, scale, p.data.shape)


# -- tokenizer text -----------------------------------------------------------------

_ONSETS = list("bcdfghjklmnprstvwz") + ["ch", "sh", "th", "tr", "st", "pl"]
_VOWELS = list("aeiou") + ["ai", "ou", "ea"]


@dataclass
class Language:
    """A pseudo-word lexicon with Zipf word frequencies and light punctuation."""

    words: list[str]
    probs: np.ndarray

    @classmethod
    def make(cls, rng: np.random.Generator, n_words: int) -> "Language":
        syllables = [o + v for o in _ONSETS for v in _VOWELS] + \
                    [v + o for o in _ONSETS[:8] for v in _VOWELS[:5]]
        # word i has 1 + i % 4 syllables, so every seed's lexicon has the same
        # length profile over the frequency ranks and compresses alike
        words = ["".join(rng.choice(syllables, size=1 + i % 4)) for i in range(n_words)]
        probs = 1.0 / np.arange(1, n_words + 1)
        return cls(words, probs / probs.sum())

    def text(self, rng: np.random.Generator, n_bytes: int) -> bytes:
        n = n_bytes // 5 + 16
        idx = rng.choice(len(self.words), size=n, p=self.probs)
        punct = rng.choice(["", "", "", "", ",", ".", ";", "!"], size=n)
        doc = " ".join(self.words[i] + q for i, q in zip(idx.tolist(), punct.tolist())).encode()
        while len(doc) < n_bytes:
            doc += b" " + doc
        return doc[:n_bytes]
