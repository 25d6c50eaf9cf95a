"""The four workloads: each is one process, one caller and a closed loop.

A workload builds its inputs from the seed, then runs *passes* over a
fixed list of work items until ``seconds`` have passed and at least two
passes are done, checking every output.  The program is set up afresh
before every pass (and once more before the first), so ``setup_s`` is a
median over moments spread across the run.

Every pass does the same work on the same inputs -- training passes resume
from one checkpoint -- so outputs must repeat bit for bit, and each item's
time is the best of its passes.  Best-of-passes keeps the figures steady on
a shared host whose speed drifts for seconds at a time; the p50/p90 are
then taken over the items, so they still show how cost varies with the
input.  In a traced run items alternate between traced and untraced from
one pass to the next, which gives both the per-layer spans and the tracing
overhead.
"""

from __future__ import annotations

import math
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator, Optional

import numpy as np

import inputs
from tracer import Tracer

from patchlm import bpe, checkpoint, codec, data, inference, losses, metrics, optim, training
from patchlm import model as M


@dataclass(frozen=True)
class Size:
    # train_text
    text_config: M.ModelConfig
    text_seq: int
    text_batch: int
    text_tokens: int
    # train_ts
    ts_config: M.ModelConfig
    ts_seq: int
    ts_batch: int
    ts_series: int
    ts_max_len: int
    synth_len: int
    caption_vocab: int
    # both train workloads
    train_steps: int           # steps per pass; quality is the first pass's mean loss
    save_every: int
    # forecast
    fc_config: M.ModelConfig
    fc_series: int
    fc_max_ctx: int
    fc_max_h: int
    # tokenize
    corpus_docs: int
    corpus_doc_bytes: int
    vocab_size: int
    docs: int
    doc_max: int


FULL = Size(
    text_config=M.ModelConfig(), text_seq=256, text_batch=4, text_tokens=1 << 17,
    ts_config=M.ModelConfig(max_seq=512), ts_seq=512, ts_batch=2, ts_series=32,
    ts_max_len=4096, synth_len=512, caption_vocab=384,
    train_steps=24, save_every=8,
    fc_config=M.ModelConfig(max_seq=1024), fc_series=48, fc_max_ctx=1536, fc_max_h=512,
    corpus_docs=40, corpus_doc_bytes=4096, vocab_size=4096, docs=24, doc_max=8192,
)

_TINY_MODEL = dict(n_layers=1, d_model=32, n_q_heads=2, n_kv_heads=1, head_dim=16,
                   vocab_size=512)
TINY = Size(
    text_config=M.ModelConfig(max_seq=32, **_TINY_MODEL), text_seq=32, text_batch=2,
    text_tokens=4096,
    ts_config=M.ModelConfig(max_seq=64, **_TINY_MODEL), ts_seq=64, ts_batch=2, ts_series=8,
    ts_max_len=512, synth_len=128, caption_vocab=300,
    train_steps=6, save_every=3,
    fc_config=M.ModelConfig(max_seq=128, **_TINY_MODEL), fc_series=8, fc_max_ctx=256,
    fc_max_h=64,
    corpus_docs=4, corpus_doc_bytes=1024, vocab_size=320, docs=8, doc_max=4096,
)
SIZES = {"full": FULL, "tiny": TINY}


@dataclass
class Outcome:
    """What a workload hands back besides the Run's own samples."""

    work_per_s: float
    quality: float
    aux: str                              # the secondary operation kind, report only
    names: dict[str, tuple[str, str]]     # generic metric or "aux" -> (workload's name, unit)
    config: dict[str, Any]
    extra: dict[str, tuple[float, str]]   # further report-only metrics


class Run:
    """Passes, timing, tracing and failure accounting shared by every workload."""

    def __init__(self, seconds: float, tracer: Optional[Tracer], workdir: str):
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.setup_s: list[float] = []
        # (kind, traced) -> item key -> seconds, one entry per pass
        self.times: dict[tuple[str, bool], dict[Any, list[float]]] = \
            defaultdict(lambda: defaultdict(list))
        self.n_passes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _setup(self, fn: Callable[[], Any]) -> Any:
        t0 = time.perf_counter()
        out = fn()
        self.setup_s.append(time.perf_counter() - t0)
        return out

    def passes(self, setup: Callable[[], Any], min_passes: int = 2) -> Iterator[tuple[int, Any]]:
        """Yield (pass number, what a fresh ``setup()`` returned)."""
        self._setup(setup)
        start = time.perf_counter()
        while self.n_passes < min_passes or time.perf_counter() - start < self.seconds:
            yield self.n_passes, self._setup(setup)
            self.n_passes += 1

    def traced(self, slot: int) -> bool:
        """Traced runs trace every other slot; untraced runs never trace."""
        return self.tracer is not None and slot % 2 == 1

    def fail(self, kind: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {message}")

    def call(self, kind: str, key: Any, fn: Callable[[], Any], traced: bool,
             check: Optional[Callable[[Any], list[str]]] = None) -> Any:
        """One closed-loop operation on item ``key``; kind "op" is the primary one.

        Returns None when the program raised; a failed check still returns
        the output but counts the operation as failed.
        """
        self.attempted += 1
        try:
            if traced:
                out, dt = self.tracer.traced(kind, fn)
            else:
                t0 = time.perf_counter()
                out = fn()
                dt = time.perf_counter() - t0
        except Exception as exc:  # the program failed: count it and report it
            self.fail(kind, f"{type(exc).__name__}: {exc}")
            return None
        self.times[(kind, traced)][key].append(dt)
        problems = check(out) if check else []
        if problems:
            self.fail(kind, "; ".join(problems))
        return out

    def best(self, kind: str, traced: bool = False) -> dict[Any, float]:
        """Each item's best time over the passes."""
        return {key: min(ts) for key, ts in self.times[(kind, traced)].items()}

    def overhead(self) -> float:
        """Median over items of best traced / best untraced primary time, minus 1."""
        plain, traced = self.best("op"), self.best("op", traced=True)
        ratios = [traced[k] / plain[k] for k in plain if k in traced]
        return float(np.median(ratios)) - 1.0 if ratios else math.nan


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

SCHEDULE_STEPS = 2000      # stage-1 default horizon: warmup, then a long constant phase


def _finite_losses(rec: dict) -> list[str]:
    bad = [k for k in ("ce", "ql", "combined") if not math.isfinite(rec[k])]
    return [f"step {rec['step']}: non-finite {', '.join(bad)}"] if bad else []


def _train(run: Run, size: Size, seed: int, config: M.ModelConfig,
           stage: training.StageConfig, make_sources: Callable[[], training.DataSources],
           quality: tuple[str, str, str]) -> Outcome:
    """``quality`` is (record key, reported name, unit) of the loss averaged
    over the first pass.

    Set-up trains one step and saves; every pass resumes from that save.
    """
    schedule = optim.Schedule(total_steps=SCHEDULE_STEPS)
    start = os.path.join(run.workdir, "start.ckpt")
    path = os.path.join(run.workdir, "train.ckpt")

    def setup():
        sources = make_sources()
        trainer = training.Trainer(config, seed=seed)
        batch = trainer.next_batch(stage, sources)
        trainer.train_step(batch, schedule.at(1), stage.w_text, stage.w_ts)
        trainer.save(start, sources)
        return sources

    def step(trainer, sources):
        batch = trainer.next_batch(stage, sources)
        return trainer.train_step(batch, schedule.at(trainer.step + 1), stage.w_text, stage.w_ts)

    first: list[dict] = []
    trainer = None
    for n, sources in run.passes(setup):
        traced = run.traced(n)
        trainer = run.call("resume", 0, lambda: training.Trainer.load(start, sources), traced)
        if trainer is None:
            break
        records = []
        for k in range(size.train_steps):
            rec = run.call("op", k, lambda: step(trainer, sources), traced, _finite_losses)
            if rec is None:
                break
            records.append(rec)
            if (k + 1) % size.save_every == 0:
                run.call("save", k, lambda: trainer.save(path, sources), traced)
        if n == 0:
            first = records
        elif records != first:
            run.fail("pass", f"pass {n} did not repeat the first pass's losses")

    def same_params(loaded) -> list[str]:
        if loaded.step != trainer.step or sorted(loaded.params) != sorted(trainer.params):
            return ["reloaded checkpoint has another step or parameter set"]
        return [f"reloaded {name} differs" for name, p in trainer.params.items()
                if p.data.dtype != loaded.params[name].data.dtype
                or not np.array_equal(p.data, loaded.params[name].data)]

    if trainer is not None:
        run.call("reload", 0, lambda: training.Trainer.load(path), run.tracer is not None,
                 same_params)

    key, name, unit = quality
    pass_s = sum(run.best("op").values()) + sum(run.best("save").values())
    positions = size.train_steps * stage.seq_len * stage.micro_batch
    return Outcome(
        work_per_s=positions / pass_s if pass_s else math.nan,
        quality=(float(np.mean([r[key] for r in first]))
                 if len(first) == size.train_steps else math.nan),
        aux="resume",
        names={"op_ms": ("step_ms", "ms"),
               "work_per_s": ("train_positions_per_s", "1/s"),
               "aux": ("resume_ms_p50", "ms"),
               "quality": (name, unit)},
        config={"model": asdict(config), "stage": asdict(stage),
                "schedule_steps": SCHEDULE_STEPS, "steps_per_pass": size.train_steps,
                "save_every": size.save_every, "passes": run.n_passes},
        extra={})


def train_text(run: Run, size: Size, seed: int) -> Outcome:
    rng = np.random.default_rng(seed)
    config = size.text_config
    ids = inputs.bigram_token_ids(rng, config.vocab_size, size.text_tokens)
    stage = training.StageConfig(seq_len=size.text_seq, micro_batch=size.text_batch,
                                 text_prob=1.0)
    return _train(run, size, seed, config, stage,
                  lambda: training.DataSources(text_stream=data.TokenStream(ids)),
                  ("ce", "ce_final", "nats"))


def train_ts(run: Run, size: Size, seed: int) -> Outcome:
    rng = np.random.default_rng(seed)
    config = size.ts_config
    series = inputs.train_series(rng, size.ts_series, 64, size.ts_max_len)
    captions = inputs.caption_corpus(rng, 200)
    stage = training.StageConfig(seq_len=size.ts_seq, micro_batch=size.ts_batch,
                                 text_prob=0.0, align_fraction=0.25)

    def make_sources():
        return training.DataSources(
            ts_source=training.mixed_ts_source(series, size.synth_len),
            alignment_source=training.synthetic_alignment_source(size.synth_len),
            vocab=bpe.bpe_train(captions, size.caption_vocab))

    return _train(run, size, seed, config, stage, make_sources, ("ql", "ql_final", "pinball"))


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------

def _check_forecast(item: inputs.ForecastItem, results, levels: np.ndarray) -> list[str]:
    if len(results) != item.context.shape[0]:
        return [f"{len(results)} results for {item.context.shape[0]} channels"]
    problems = []
    horizon = item.target.shape[1]
    for c, res in enumerate(results):
        q = res.quantiles
        if q.shape != (horizon, len(levels)):
            problems.append(f"channel {c}: quantiles shape {q.shape}")
            continue
        if not np.isfinite(q).all():
            problems.append(f"channel {c}: non-finite quantiles")
        elif (np.diff(q, axis=1) < 0).any():
            problems.append(f"channel {c}: quantiles decrease within a step")
        if not np.array_equal(res.median, q[:, len(levels) // 2]):
            problems.append(f"channel {c}: median is not the middle quantile column")
    return problems


def forecast(run: Run, size: Size, seed: int) -> Outcome:
    rng = np.random.default_rng(seed)
    config = size.fc_config
    params = M.init_params(config, seed=seed)
    inputs.fill_zero_params(rng, params)
    path = os.path.join(run.workdir, "forecast.ckpt")
    checkpoint.save_checkpoint(path, config, checkpoint.params_to_tensors(params))
    items = inputs.forecast_items(rng, size.fc_series, size.fc_max_ctx, size.fc_max_h,
                                  config.max_seq, config.patch_len, config.vocab_size)
    levels = losses.quantile_levels(config.n_quantiles)
    warm_values = inputs.series_values(rng, 1, 320)
    warm = inputs.ForecastItem(warm_values[:, :256], warm_values[:, :256], warm_values[:, 256:],
                               np.zeros(0, dtype=np.int64), repeat=1, season=24)

    def predict(p, cfg, item):
        horizon = item.target.shape[1]
        if item.context.shape[0] > 1:
            return inference.forecast_series(p, cfg, codec.RawSeries(item.context), horizon,
                                             item.text_ids)
        return [inference.forecast_values(p, cfg, item.context[0], horizon, item.text_ids)]

    def embed(p, cfg, item):
        return inference.extract_embedding(p, cfg, codec.RawSeries(item.context),
                                           item.text_ids, item.repeat)

    def setup():
        cfg, tensors, _ = checkpoint.load_checkpoint(path)
        p = checkpoint.tensors_to_params(tensors)
        predict(p, cfg, warm)
        embed(p, cfg, warm)
        return p, cfg

    first: dict[int, tuple[list, np.ndarray]] = {}

    def check_forecast(i, item):
        def check(results):
            problems = _check_forecast(item, results, levels)
            if i in first and first[i][0] is not None and not all(
                    np.array_equal(a.quantiles, b.quantiles)
                    for a, b in zip(results, first[i][0])):
                problems.append(f"series {i}: forecast differs from the first pass")
            return problems
        return check

    def check_embedding(i):
        def check(vec):
            if vec.shape != (config.d_model,) or not np.isfinite(vec).all():
                return [f"series {i}: embedding shape {vec.shape} or non-finite values"]
            if i in first and first[i][1] is not None and not np.array_equal(vec, first[i][1]):
                return [f"series {i}: embedding differs from the first pass"]
            return []
        return check

    for n, (params, cfg) in run.passes(setup):
        for i, item in enumerate(items):
            traced = run.traced(i + n)
            results = run.call("op", i, lambda: predict(params, cfg, item), traced,
                               check_forecast(i, item))
            vec = run.call("embed", i, lambda: embed(params, cfg, item), traced,
                           check_embedding(i))
            if n == 0:
                first[i] = (results, vec)

    tasks = [metrics.ForecastTask(f"s{i}c{c}", item.history[c], item.target[c],
                                  res.quantiles, res.median, res.levels, item.season)
             for i, item in enumerate(items) if first[i][0] is not None
             for c, res in enumerate(first[i][0])]

    def check_report(report) -> list[str]:
        if report.skipped or len(report.per_task) != len(tasks):
            return [f"{len(report.skipped)} of {len(tasks)} tasks had undefined metrics"]
        return []

    report = run.call("eval", 0, lambda: metrics.evaluate_forecast_tasks(tasks),
                      run.tracer is not None, check_report)
    wql = (float(np.mean([t["wql"] for t in report.per_task]))
           if report is not None and report.per_task else math.nan)
    forecast_s = sum(run.best("op").values())
    embed_s = sum(run.best("embed").values())
    return Outcome(
        work_per_s=len(items) / forecast_s if forecast_s else math.nan,
        quality=wql,
        aux="embed",
        names={"op_ms": ("forecast_ms", "ms"),
               "work_per_s": ("forecast_series_per_s", "1/s"),
               "aux": ("embed_ms_p50", "ms"),
               "quality": ("forecast_wql", "wql")},
        config={"model": asdict(config), "series": len(items), "passes": run.n_passes,
                "multivariate": sum(it.context.shape[0] > 1 for it in items),
                "with_text": sum(len(it.text_ids) > 0 for it in items)},
        extra={"embed_series_per_s": (len(items) / embed_s if embed_s else math.nan, "1/s")})


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

def tokenize(run: Run, size: Size, seed: int) -> Outcome:
    """Each pass trains the vocabulary, then encodes and decodes every doc."""
    rng = np.random.default_rng(seed)
    language = inputs.Language.make(rng, 20000)
    corpus = [language.text(rng, size.corpus_doc_bytes) for _ in range(size.corpus_docs)]
    docs = [language.text(rng, int(n)) for n in inputs.stratified_lengths(
        rng, size.docs, 100, size.doc_max, inputs.SET_JITTER)]
    vocab_path = os.path.join(run.workdir, "vocab.json")
    warm_corpus = [doc[:1024] for doc in corpus[:8]]

    def setup():
        vocab = bpe.bpe_train(warm_corpus, 512)
        bpe.save_vocab(vocab, vocab_path)
        vocab = bpe.load_vocab(vocab_path)
        return bpe.decode(bpe.encode(docs[0][:256], vocab), vocab)

    first = None
    tokens = 0
    for n, _ in run.passes(setup):
        vocab = run.call("train", 0, lambda: bpe.bpe_train(corpus, size.vocab_size),
                         run.traced(n))
        if vocab is None:
            break
        if first is None:
            first = vocab
            if len(vocab.merges) != size.vocab_size - 256:
                run.fail("train", f"{len(vocab.merges)} merges, expected {size.vocab_size - 256}")
        elif vocab.merges != first.merges:
            run.fail("train", f"pass {n} trained other merges than the first pass")
        for i, doc in enumerate(docs):
            traced = run.traced(i + n)
            ids = run.call("op", i, lambda: bpe.encode(doc, vocab), traced)
            if ids is None:
                continue
            run.call("decode", i, lambda: bpe.decode(ids, vocab), traced,
                     lambda out: [] if out == doc else [f"doc {i}: decode(encode) differs"])
            if n == 0:
                tokens += len(ids)

    def vocab_io():
        bpe.save_vocab(first, vocab_path)
        return bpe.load_vocab(vocab_path)

    if first is not None:
        run.call("vocab_io", 0, vocab_io, run.tracer is not None,
                 lambda loaded: [] if (loaded.merges == first.merges
                                       and loaded.specials == first.specials)
                 else ["reloaded vocab has other merges or specials"])
    doc_bytes = sum(len(d) for d in docs)
    best_encode = run.best("op")
    encode_s = sum(best_encode.values())
    train_s = run.best("train")
    return Outcome(
        work_per_s=sum(len(docs[i]) for i in best_encode) / encode_s if encode_s else math.nan,
        quality=tokens / doc_bytes,
        aux="train",
        names={"op_ms": ("encode_ms", "ms"),
               "work_per_s": ("encode_bytes_per_s", "B/s"),
               "aux": ("bpe_train_ms", "ms"),
               "quality": ("tokens_per_byte", "tokens/B")},
        config={"corpus_bytes": sum(len(d) for d in corpus), "vocab_size": size.vocab_size,
                "docs": len(docs), "doc_bytes": doc_bytes, "passes": run.n_passes},
        extra={"bpe_train_s": (train_s[0] if train_s else math.nan, "s")})


WORKLOADS = {"train_text": train_text, "train_ts": train_ts,
             "forecast": forecast, "tokenize": tokenize}
