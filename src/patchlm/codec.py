"""Time-series input/output representation.

A raw (possibly multivariate, possibly gappy) series becomes model input
in four steps: visible-value standardization + arcsinh compression,
segmentation into non-overlapping length-P patches, per-patch feature
assembly [time ramp; values; observed mask; channel ramp], and -- on the
way back out -- the exact sinh inverse of the normalization.

Statistics are computed per channel over finite values only, using the
population standard deviation clamped to ``SIGMA_FLOOR``.

``patchify`` returns one [C, n, 4P] float32 array for a [C, L] series,
with n = ceil(L / P): row ``[c, j]`` is patch j of channel c, and every
channel's time ramp runs over the same positions 0..L-1.  Tail positions
past L zero every block; an interior NaN zeroes its value and mask but
keeps its ramp and channel entries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

import numpy as np

from .errors import DataError, InvalidSeriesError

SIGMA_FLOOR = 1e-6


@dataclass
class RawSeries:
    """[C, L] float values with NaN marking missing points."""

    values: np.ndarray
    series_id: str = ""
    freq: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataError(f"series must be [C, L] with C,L >= 1, got shape {arr.shape}")
        self.values = arr

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class NormStats:
    """Per-channel visible mean / clamped population std."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", np.atleast_1d(np.asarray(self.mu, dtype=np.float64)))
        object.__setattr__(self, "sigma", np.atleast_1d(np.asarray(self.sigma, dtype=np.float64)))
        if self.mu.shape != self.sigma.shape:
            raise DataError("mu and sigma must have matching shapes")
        if np.any(self.sigma < SIGMA_FLOOR):
            raise DataError(f"sigma below floor {SIGMA_FLOOR}")


def compute_visible_stats(series: RawSeries) -> NormStats:
    """Mean / population std over finite values, per channel."""
    mu = np.empty(series.n_channels)
    sigma = np.empty(series.n_channels)
    for c in range(series.n_channels):
        visible = series.values[c][np.isfinite(series.values[c])]
        if visible.size == 0:
            raise InvalidSeriesError(f"channel {c} has no finite values")
        mu[c] = visible.mean()
        sigma[c] = max(float(visible.std()), SIGMA_FLOOR)
    return NormStats(mu, sigma)


def normalize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """arcsinh((x - mu) / sigma) of [C, L] values; NaN passes through."""
    values = np.asarray(values, dtype=np.float64)
    return np.arcsinh((values - stats.mu[:, None]) / stats.sigma[:, None])


def denormalize(normed: np.ndarray, stats: NormStats) -> np.ndarray:
    """Exact inverse of [C, L] values: sinh(q) * sigma + mu."""
    normed = np.asarray(normed, dtype=np.float64)
    return np.sinh(normed) * stats.sigma[:, None] + stats.mu[:, None]


def extend_time_ramp(length: int, start: int, count: int) -> np.ndarray:
    """Ramp (i + 1 - L) / L for positions i = start..start+count-1.

    Over 0..L-1 it runs from near -1 to exactly 0 at the last context
    position; positions past the end take values > 0 (generation)."""
    i = np.arange(start, start + count, dtype=np.float64)
    return (i + 1.0 - length) / length


def build_channel_ramp(n_channels: int) -> np.ndarray:
    """Channel j -> j / max(C - 1, 1); a single channel maps to 0."""
    if n_channels < 1:
        raise DataError("need at least one channel")
    return np.arange(n_channels, dtype=np.float64) / max(n_channels - 1, 1)


def assemble_features(ramp: np.ndarray, values: np.ndarray, mask: np.ndarray,
                      channel: np.ndarray) -> np.ndarray:
    """Concatenate the four P-blocks in the fixed order [r; v; m; c]."""
    blocks = (ramp, values, mask, channel)
    if len({b.shape for b in blocks}) != 1:
        raise DataError("feature blocks must share one [..., P] shape")
    return np.concatenate(blocks, axis=-1).astype(np.float32)


def patchify(series: RawSeries, patch_len: int, stats: NormStats | None = None) -> np.ndarray:
    """Normalize, patch, and assemble the [C, n, 4P] features of every channel."""
    if patch_len < 1:
        raise DataError("patch_len must be >= 1")
    if stats is None:
        stats = compute_visible_stats(series)
    n_channels, length = series.values.shape
    n_patches = math.ceil(length / patch_len)

    def patched(block: np.ndarray) -> np.ndarray:
        """Broadcast to [C, L], zero past L, and cut into [C, n, P]."""
        out = np.zeros((n_channels, n_patches * patch_len))
        out[:, :length] = block
        return out.reshape(n_channels, n_patches, patch_len)

    finite = np.isfinite(series.values)
    return assemble_features(patched(extend_time_ramp(length, 0, length)),
                             patched(np.where(finite, normalize(series.values, stats), 0.0)),
                             patched(finite),
                             patched(build_channel_ramp(n_channels)[:, None]))


# ---------------------------------------------------------------------
# JSON-lines ingestion: {"id": str, "values": [...] | [[...]], "freq": str?}
# NaN encodes as null.
# ---------------------------------------------------------------------

def _numbers(raw) -> list[float]:
    if isinstance(raw, list) and all(v is None or type(v) in (int, float) for v in raw):
        try:
            return [np.nan if v is None else float(v) for v in raw]
        except OverflowError:  # an integer too large for a float
            pass
    raise DataError("series record 'values' must be a list of numbers and nulls, "
                    "or a list of such lists")


def series_from_record(record: dict) -> RawSeries:
    if not isinstance(record, dict) or "values" not in record:
        raise DataError("series record missing 'values'")
    raw = record["values"]
    if isinstance(raw, list) and raw and isinstance(raw[0], list):
        rows = [_numbers(row) for row in raw]
        if len({len(r) for r in rows}) != 1:
            raise DataError("channels must share one length")
        values = np.asarray(rows)
    else:
        values = np.asarray(_numbers(raw))
    return RawSeries(values, series_id=str(record.get("id", "")), freq=record.get("freq"))


def series_to_record(series: RawSeries) -> dict:
    def encode_row(row):
        return [None if not np.isfinite(v) else float(v) for v in row]

    values = [encode_row(row) for row in series.values]
    if series.n_channels == 1:
        values = values[0]
    record = {"id": series.series_id, "values": values}
    if series.freq:
        record["freq"] = series.freq
    return record


def read_jsonl(path: str, convert: Optional[Callable[[dict], Any]] = None) -> Iterator:
    """The JSON object on each non-blank line of ``path``, passed through
    ``convert`` when given; a line that is not UTF-8 or not a JSON object,
    or that ``convert`` rejects with a DataError, is a DataError naming
    file:line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise DataError("expected a JSON object")
                item = convert(record) if convert else record
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}:{lineno}: not UTF-8 ({exc})") from exc
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            yield item


def write_jsonl(path: str, records) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
