"""Optimizers: Muon for the block matrices, AdamW for everything else.

Muon orthogonalizes the momentum of each 2-D block matrix with a 5-step
Newton-Schulz iteration and scales the update by sqrt(max(rows, cols)) so
its per-element RMS matches the learning rate.  The per-step quintic
coefficients are a tuned schedule: the classic single-tuple quintic
oscillates its singular values around ~{0.70, 1.11} and cannot land the
whole spectrum inside [0.7, 1.3] at exactly five steps.

AdamW groups: token embedding @ 0.2; untied LM head @ 0.004 (when
present); patch projection + quantile head + every RMSNorm scale @ 0.002;
betas (0.8, 0.95), eps 1e-10, weight decay 0.  AdamW learning rates scale
by sqrt(768/d) to keep update magnitudes steady across widths.  These
values are fixed module constants, not settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .model import ModelConfig
from .tensor import Tensor

# per-iteration (a, b, c) quintic coefficients, tuned to converge the
# singular spectrum into a tight band around 1 within five steps
NS_COEFFS: tuple[tuple[float, float, float], ...] = (
    (8.28721201814563, -23.595886519098837, 17.300387312530933),
    (4.107059111542203, -2.9478499167379106, 0.5448431082926601),
    (3.9486908534822946, -2.908902115962949, 0.5518191394370137),
    (3.3184196573706015, -2.488488024314874, 0.51004894012372),
    (2.300652019954817, -1.6689039845747493, 0.4188073119525673),
)

MUON_LR = 0.02
MUON_MOMENTUM = 0.95
EMBED_LR = 0.2
HEAD_LR = 0.004
REST_LR = 0.002
ADAM_BETAS = (0.8, 0.95)
ADAM_EPS = 1e-10


def newton_schulz(g: np.ndarray) -> np.ndarray:
    """Orthogonalize a 2-D matrix; zero input returns zero (eps guard)."""
    if g.ndim != 2:
        raise ConfigError("newton_schulz expects a 2-D matrix")
    if not np.isfinite(g).all():
        raise NumericError("non-finite gradient fed to newton_schulz")
    x = g.astype(np.float32) / (np.linalg.norm(g) * 1.01 + 1e-12)
    transposed = x.shape[0] > x.shape[1]
    if transposed:
        x = x.T
    for a, b, c in NS_COEFFS:
        xxt = x @ x.T
        x = a * x + (b * xxt + c * xxt @ xxt) @ x
    if transposed:
        x = x.T
    return x.astype(g.dtype)


def muon_step(param: np.ndarray, grad: np.ndarray, buf: np.ndarray, lr: float) -> None:
    """buf <- momentum*buf + grad; param -= lr * sqrt(max(r,c)) * NS(buf)."""
    buf *= MUON_MOMENTUM
    buf += grad
    update = newton_schulz(buf)
    param -= lr * math.sqrt(max(param.shape)) * update


def adamw_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
               t: int, lr: float, weight_decay: float = 0.0) -> None:
    """Bias-corrected AdamW update at step t (1-based)."""
    b1, b2 = ADAM_BETAS
    m *= b1
    m += (1 - b1) * grad
    v *= b2
    v += (1 - b2) * grad * grad
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    if weight_decay:
        param -= lr * weight_decay * param
    param -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass(frozen=True)
class Schedule:
    """Linear warmup, constant middle, linear decay over the final fraction."""

    total_steps: int
    warmup_steps: int = 40
    decay_fraction: float = 0.65

    def at(self, step: int) -> float:
        """Multiplier for 1-based step; continuous piecewise linear, peak 1."""
        if self.total_steps < 1:
            raise ConfigError("schedule needs at least one step")
        decay_start = self.total_steps * (1.0 - self.decay_fraction)
        if step <= self.warmup_steps and self.warmup_steps > 0:
            return min(step / self.warmup_steps,
                       self._decay_mult(step, decay_start))
        return self._decay_mult(step, decay_start)

    def _decay_mult(self, step: int, decay_start: float) -> float:
        if step < decay_start:
            return 1.0
        span = self.total_steps - decay_start
        if span <= 0:
            return 0.0
        return max(0.0, (self.total_steps - step) / span)


MUON_SUFFIXES = ("wq", "wk", "wv", "wo", "w1", "w2", "w3")


def build_param_groups(params: dict[str, Tensor]) -> dict[str, list[str]]:
    """Partition every trainable tensor into exactly one optimizer group."""
    groups: dict[str, list[str]] = {"muon": [], "adamw_embed": [], "adamw_head": [],
                                    "adamw_rest": []}
    for name in sorted(params):
        leaf = name.rsplit(".", 1)[-1]
        if name.startswith("blocks.") and leaf in MUON_SUFFIXES:
            groups["muon"].append(name)
        elif name == "tok_emb":
            groups["adamw_embed"].append(name)
        elif name == "lm_head":
            groups["adamw_head"].append(name)
        else:
            groups["adamw_rest"].append(name)
    assigned = [n for names in groups.values() for n in names]
    if sorted(assigned) != sorted(params):
        raise ConfigError("parameter groups failed to partition the trainables")
    return groups


class Optimizer:
    """Grouped Muon + AdamW with a shared schedule multiplier."""

    def __init__(self, params: dict[str, Tensor], model_config: ModelConfig):
        self.params = params
        self.groups = build_param_groups(params)
        adam_scale = math.sqrt(768.0 / model_config.d_model)
        self.group_lrs = {
            "muon": MUON_LR,
            "adamw_embed": EMBED_LR * adam_scale,
            "adamw_head": HEAD_LR * adam_scale,
            "adamw_rest": REST_LR * adam_scale,
        }
        self.state: dict[str, dict[str, np.ndarray]] = {}
        for name in self.groups["muon"]:
            self.state[name] = {"buf": np.zeros_like(params[name].data)}
        for group in ("adamw_embed", "adamw_head", "adamw_rest"):
            for name in self.groups[group]:
                self.state[name] = {"m": np.zeros_like(params[name].data),
                                    "v": np.zeros_like(params[name].data)}
        self.t = 0

    def step(self, lr_mult: float = 1.0) -> None:
        """Apply one update using current grads; params without grads are skipped."""
        self.t += 1
        for name in self.groups["muon"]:
            p = self.params[name]
            if p.grad is None:
                continue
            muon_step(p.data, p.grad, self.state[name]["buf"],
                      lr=self.group_lrs["muon"] * lr_mult)
        for group in ("adamw_embed", "adamw_head", "adamw_rest"):
            for name in self.groups[group]:
                p = self.params[name]
                if p.grad is None:
                    continue
                st = self.state[name]
                adamw_step(p.data, p.grad, st["m"], st["v"], self.t,
                           lr=self.group_lrs[group] * lr_mult)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Flat name -> buffer view for checkpointing."""
        out = {}
        for name, st in self.state.items():
            for key, arr in st.items():
                out[f"opt.{name}.{key}"] = arr
        return out

    def load_state_tensors(self, tensors: dict[str, np.ndarray], t: int) -> None:
        for name, st in self.state.items():
            for key in st:
                flat = f"opt.{name}.{key}"
                if flat not in tensors:
                    raise ConfigError(f"checkpoint missing optimizer buffer {flat}")
                if tensors[flat].shape != st[key].shape:
                    raise ConfigError(f"optimizer buffer {flat} has wrong shape")
                st[key] = tensors[flat].copy()
        self.t = t
