"""Online synthetic time-series generation.

A bank of 33 kernel generators (17 categories; duplicates raise sampling
weight for the empirically useful ones) is defined at module load time.
Each series samples 2-5 bank entries without replacement and combines
them additively (p=0.8) or in a mixed mode where every subsequent kernel
multiplies in (after a positive shift) with probability 0.40, else adds.
Kernel outputs clip to +-5 before combination and the result to +-1e7.

Everything runs on normalized time t in [0, 1] in float32, vectorized,
so a length-32k series stays in the low-millisecond range.

The composition values are fixed module constants, part of the
KernelSynth recipe (Ansari et al., arXiv 2403.07815), not settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError

Kernel = Callable[[np.ndarray, np.random.Generator, dict], np.ndarray]


MIN_KERNELS = 2
MAX_KERNELS = 5
ADDITIVE_PROB = 0.8
MULTIPLY_PROB = 0.40
PRE_CLIP = 5.0
POST_CLIP = 1.0e7


@dataclass
class SynthInfo:
    kernel_names: list[str] = field(default_factory=list)
    categories: list[str] = field(default_factory=list)
    mode: str = "additive"


def _params(rng: np.random.Generator, overrides: Optional[dict], **draws) -> dict:
    out = {k: v(rng) if callable(v) else v for k, v in draws.items()}
    if overrides:
        out.update(overrides)
    return out


# -- kernel implementations (normalized time t in [0, 1]) ----------------

def _rff_mean_cos(w: np.ndarray, phases: np.ndarray, t: np.ndarray) -> np.ndarray:
    # single [R, L] buffer, transformed in place: the cos calls dominate
    angles = np.multiply.outer(w, t)
    angles += phases[:, None]
    np.cos(angles, out=angles)
    return angles.mean(axis=0)


def rbf_smooth(t, rng, overrides=None, ls_range=(0.01, 0.1), n_features=32):
    p = _params(rng, overrides, length_scale=lambda r: r.uniform(*ls_range))
    w = rng.normal(0.0, 1.0 / p["length_scale"], n_features).astype(np.float32)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_features).astype(np.float32)
    return _rff_mean_cos(w, phases, t)


def periodic(t, rng, overrides=None, period_range=(0.02, 0.1)):
    p = _params(rng, overrides,
                amplitude=lambda r: r.uniform(0.5, 2.0),
                period=lambda r: r.uniform(*period_range),
                phase=lambda r: r.uniform(0.0, 2.0 * np.pi))
    return p["amplitude"] * np.sin(2.0 * np.pi * t / p["period"] + p["phase"])


def periodic_harmonics(t, rng, overrides=None):
    p = _params(rng, overrides,
                amplitude=lambda r: r.uniform(0.5, 2.0),
                period=lambda r: r.uniform(0.05, 0.5),
                phase=lambda r: r.uniform(0.0, 2.0 * np.pi))
    base = p["amplitude"] * np.sin(2.0 * np.pi * t / p["period"] + p["phase"])
    for k, div in ((2, 2.0), (3, 3.0)):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        base = base + (p["amplitude"] / div) * np.sin(2.0 * np.pi * k * t / p["period"] + phi)
    return base


def rational_quadratic(t, rng, overrides=None, ls_range=(0.01, 0.1), n_features=32):
    p = _params(rng, overrides,
                length_scale=lambda r: r.uniform(*ls_range),
                alpha=lambda r: r.uniform(1.0, 5.0))
    scales = rng.gamma(p["alpha"], 1.0 / p["alpha"], n_features).astype(np.float32)
    w = (scales * rng.normal(0.0, 1.0, n_features) / p["length_scale"]).astype(np.float32)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_features).astype(np.float32)
    return _rff_mean_cos(w, phases, t)


def linear_trend(t, rng, overrides=None):
    p = _params(rng, overrides,
                slope=lambda r: r.uniform(-3.0, 3.0),
                intercept=lambda r: r.uniform(-1.0, 1.0))
    return p["slope"] * t + p["intercept"]


def polynomial(t, rng, overrides=None):
    p = _params(rng, overrides,
                degree=lambda r: int(r.integers(2, 5)),
                coeffs=None)
    coeffs = p["coeffs"]
    if coeffs is None:
        coeffs = rng.uniform(-2.0, 2.0, p["degree"] + 1)
    return np.polyval(np.asarray(coeffs, dtype=np.float32), 2.0 * t - 1.0)


def log_trend(t, rng, overrides=None):
    p = _params(rng, overrides, coef=lambda r: r.uniform(-2.0, 2.0))
    with np.errstate(divide="ignore"):
        return p["coef"] * np.log(t)  # -inf at t=0 clips to the pre-clip bound


def random_walk(t, rng, overrides=None):
    p = _params(rng, overrides, drift=lambda r: r.uniform(-0.01, 0.01))
    steps = rng.normal(p["drift"], 1.0 / np.sqrt(len(t)), len(t)).astype(np.float32)
    return np.cumsum(steps)


def level_shift(t, rng, overrides=None):
    p = _params(rng, overrides, n_shifts=lambda r: int(r.integers(1, 4)))
    out = np.zeros(len(t), dtype=np.float32)
    lo, hi = int(0.1 * len(t)), max(int(0.9 * len(t)), int(0.1 * len(t)) + 1)
    for _ in range(p["n_shifts"]):
        pos = int(rng.integers(lo, hi))  # shifts land in the middle 80%
        out[pos:] += rng.uniform(-2.0, 2.0)
    return out


def _wave_params(rng, overrides):
    return _params(rng, overrides,
                   period=lambda r: r.uniform(0.05, 0.40),
                   amplitude=lambda r: r.uniform(0.5, 2.0),
                   phase=lambda r: r.uniform(0.0, 1.0),
                   offset=lambda r: r.uniform(-1.0, 1.0))


def square_wave(t, rng, overrides=None):
    p = _wave_params(rng, overrides)
    frac = np.mod(t / p["period"] + p["phase"], 1.0)
    return p["amplitude"] * np.sign(frac - 0.5) + p["offset"]


def triangle_wave(t, rng, overrides=None):
    p = _wave_params(rng, overrides)
    frac = np.mod(t / p["period"] + p["phase"], 1.0)
    return p["amplitude"] * (4.0 * np.abs(frac - 0.5) - 1.0) + p["offset"]


def sawtooth_wave(t, rng, overrides=None):
    p = _wave_params(rng, overrides)
    frac = np.mod(t / p["period"] + p["phase"], 1.0)
    return p["amplitude"] * (2.0 * frac - 1.0) + p["offset"]


def damped_oscillation(t, rng, overrides=None):
    p = _params(rng, overrides,
                amplitude=lambda r: r.uniform(0.5, 2.0),
                decay=lambda r: r.uniform(1.0, 8.0),
                period=lambda r: r.uniform(0.02, 0.5),
                phase=lambda r: r.uniform(0.0, 2.0 * np.pi))
    return p["amplitude"] * np.exp(-p["decay"] * t) * np.sin(2.0 * np.pi * t / p["period"] + p["phase"])


def white_noise(t, rng, overrides=None):
    p = _params(rng, overrides, sigma=lambda r: r.uniform(0.1, 1.0))
    return rng.normal(0.0, p["sigma"], len(t)).astype(np.float32)


def heteroskedastic_noise(t, rng, overrides=None):
    p = _params(rng, overrides, sigma=lambda r: r.uniform(0.1, 0.5))
    envelope = rbf_smooth(t, rng, {"length_scale": rng.uniform(0.1, 1.0)})
    return rng.normal(0.0, 1.0, len(t)).astype(np.float32) * p["sigma"] * np.exp(0.5 * envelope)


def periodic_noise(t, rng, overrides=None):
    p = _params(rng, overrides,
                amplitude=lambda r: r.uniform(0.5, 2.0),
                period=lambda r: r.uniform(0.02, 0.5),
                phase=lambda r: r.uniform(0.0, 2.0 * np.pi))
    gate = np.sin(2.0 * np.pi * t / p["period"] + p["phase"]) * 0.5 + 0.5
    return rng.normal(0.0, 0.3, len(t)).astype(np.float32) * (1.0 + p["amplitude"] * gate)


def step_function(t, rng, overrides=None):
    p = _params(rng, overrides, n_segments=lambda r: int(r.integers(3, 12)))
    bounds = np.sort(rng.choice(np.arange(1, len(t)), size=p["n_segments"] - 1, replace=False))
    levels = rng.uniform(-2.0, 2.0, p["n_segments"]).astype(np.float32)
    out = np.empty(len(t), dtype=np.float32)
    start = 0
    for level, end in zip(levels, list(bounds) + [len(t)]):
        out[start:end] = level
        start = end
    return out


def exponential_trend(t, rng, overrides=None):
    p = _params(rng, overrides, rate=lambda r: r.uniform(-3.0, 3.0))
    return np.exp(p["rate"] * t) - 1.0


def constant(t, rng, overrides=None):
    p = _params(rng, overrides, level=lambda r: r.uniform(-2.0, 2.0))
    return np.full(len(t), p["level"], dtype=np.float32)


# -- bank -----------------------------------------------------------------

def _entry(category, name, fn):
    return (category, name, fn)


def build_kernel_bank() -> list[tuple[str, str, Kernel]]:
    short, long_ = (0.01, 0.1), (0.1, 1.0)
    p_short, p_long = (0.02, 0.1), (0.1, 0.5)
    bank = [
        _entry("rbf", "rbf_short_a", lambda t, r, o=None: rbf_smooth(t, r, o, short)),
        _entry("rbf", "rbf_short_b", lambda t, r, o=None: rbf_smooth(t, r, o, short)),
        _entry("rbf", "rbf_short_c", lambda t, r, o=None: rbf_smooth(t, r, o, short)),
        _entry("rbf", "rbf_long_a", lambda t, r, o=None: rbf_smooth(t, r, o, long_)),
        _entry("rbf", "rbf_long_b", lambda t, r, o=None: rbf_smooth(t, r, o, long_)),
        _entry("periodic", "periodic_short_a", lambda t, r, o=None: periodic(t, r, o, p_short)),
        _entry("periodic", "periodic_short_b", lambda t, r, o=None: periodic(t, r, o, p_short)),
        _entry("periodic", "periodic_short_c", lambda t, r, o=None: periodic(t, r, o, p_short)),
        _entry("periodic", "periodic_long_a", lambda t, r, o=None: periodic(t, r, o, p_long)),
        _entry("periodic", "periodic_long_b", lambda t, r, o=None: periodic(t, r, o, p_long)),
        _entry("periodic_harmonics", "periodic_harmonics", periodic_harmonics),
        _entry("rational_quadratic", "rq_short", lambda t, r, o=None: rational_quadratic(t, r, o, short)),
        _entry("rational_quadratic", "rq_long", lambda t, r, o=None: rational_quadratic(t, r, o, long_)),
        _entry("linear_trend", "linear_trend", linear_trend),
        _entry("polynomial", "polynomial_a", polynomial),
        _entry("polynomial", "polynomial_b", polynomial),
        _entry("log_trend", "log_trend", log_trend),
        _entry("random_walk", "random_walk_a", random_walk),
        _entry("random_walk", "random_walk_b", random_walk),
        _entry("level_shift", "level_shift", level_shift),
        _entry("discrete_wave", "square_wave", square_wave),
        _entry("discrete_wave", "triangle_wave", triangle_wave),
        _entry("discrete_wave", "sawtooth_wave", sawtooth_wave),
        _entry("damped_oscillation", "damped_oscillation_a", damped_oscillation),
        _entry("damped_oscillation", "damped_oscillation_b", damped_oscillation),
        _entry("white_noise", "white_noise_a", white_noise),
        _entry("white_noise", "white_noise_b", white_noise),
        _entry("white_noise", "white_noise_c", white_noise),
        _entry("heteroskedastic_noise", "heteroskedastic_noise", heteroskedastic_noise),
        _entry("periodic_noise", "periodic_noise", periodic_noise),
        _entry("step_function", "step_function", step_function),
        _entry("exponential_trend", "exponential_trend", exponential_trend),
        _entry("constant", "constant", constant),
    ]
    return bank


KERNEL_BANK = build_kernel_bank()
KERNEL_CATEGORIES = sorted({cat for cat, _, _ in KERNEL_BANK})
assert len(KERNEL_BANK) == 33
assert len(KERNEL_CATEGORIES) == 17


def normalized_time(length: int) -> np.ndarray:
    if length < 2:
        raise ConfigError("synthetic series need length >= 2")
    return np.linspace(0.0, 1.0, length, dtype=np.float32)


def shift_positive(x: np.ndarray) -> np.ndarray:
    """Shift so min becomes 1 (strictly positive multiplication factor)."""
    return x - x.min() + 1.0


def compose(kernel_outputs: list[np.ndarray], mode: str, rng: np.random.Generator,
            multiply_prob: float = MULTIPLY_PROB) -> np.ndarray:
    if mode == "additive":
        out = np.sum(kernel_outputs, axis=0)
    elif mode == "mixed":
        out = kernel_outputs[0].copy()
        for k in kernel_outputs[1:]:
            if rng.random() < multiply_prob:
                out = out * shift_positive(k)
            else:
                out = out + k
    else:
        raise ConfigError(f"unknown composition mode {mode!r}")
    return out


def _bank_matches(name: str) -> list[tuple[str, str, Kernel]]:
    """Bank entries whose category or entry name is ``name``."""
    matches = [e for e in KERNEL_BANK if name in (e[0], e[1])]
    if not matches:
        raise ConfigError(f"unknown kernel {name!r}")
    return matches


def sample_series_info(length: int, rng,
                       force_kernel: str | None = None) -> tuple[np.ndarray, SynthInfo]:
    """Generate one series plus the kernels/mode that produced it."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    t = normalized_time(length)

    if force_kernel is not None:
        matches = _bank_matches(force_kernel)
        chosen = [matches[int(rng.integers(len(matches)))]]
        mode = "additive"
    else:
        n = int(rng.integers(MIN_KERNELS, MAX_KERNELS + 1))
        idx = rng.choice(len(KERNEL_BANK), size=n, replace=False)
        chosen = [KERNEL_BANK[i] for i in idx]
        mode = "additive" if rng.random() < ADDITIVE_PROB else "mixed"

    outputs = []
    for _, _, fn in chosen:
        raw = np.asarray(fn(t, rng), dtype=np.float32)
        outputs.append(np.clip(raw, -PRE_CLIP, PRE_CLIP))
    series = compose(outputs, mode, rng)
    series = np.clip(series, -POST_CLIP, POST_CLIP).astype(np.float32)
    info = SynthInfo(kernel_names=[name for _, name, _ in chosen],
                     categories=[cat for cat, _, _ in chosen], mode=mode)
    return series, info


def sample_series(length: int, rng, force_kernel: str | None = None) -> np.ndarray:
    return sample_series_info(length, rng, force_kernel)[0]


def force_kernel_series(length: int, rng, name: str, overrides: dict) -> np.ndarray:
    """One clipped kernel with pinned parameters (test fixtures)."""
    matches = _bank_matches(name)
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    t = normalized_time(length)
    raw = np.asarray(matches[0][2](t, rng, overrides), dtype=np.float32)
    return np.clip(raw, -PRE_CLIP, PRE_CLIP)
