"""Which program functions the traced run wraps, and the per-layer metrics.

Every probe sits at the attribute its caller looks up at call time:
``training`` reaches the model through ``model.forward_hidden``,
``model.forward_hidden`` calls ``embed_sequence`` / ``block_forward`` as
module globals, ``losses`` calls its own imported ``text_logits``, and so
on.  Per-layer times are self times: a layer's span minus its wrapped
children.  Unless a metric says otherwise it is averaged per primary
operation (one train step, one forecast series, one encoded document).
"""

from __future__ import annotations

import os
from collections import defaultdict

from tracer import Probe, Tracer

SHORT_DOC = 512        # bytes: encode_us_per_byte_short covers docs up to this
LONG_DOC = 4096        # bytes: encode_us_per_byte_long covers docs from this


def _graph_note(tracer: Tracer, args, kwargs, out) -> None:
    """Walk the loss graph once: node count and bytes held by node values."""
    seen: set[int] = set()
    stack = [args[0]]
    nbytes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.data.nbytes
        stack.extend(parent for parent, _ in node._rules)
    tracer.add("tensor.backward_calls", 1)
    tracer.add("tensor.graph_nodes", len(seen))
    tracer.add("tensor.graph_bytes", nbytes)


def _kv_note(tracer: Tracer, args, kwargs, out) -> None:
    k, v = out
    tracer.add("model.kv_bytes", k.nbytes + v.nbytes)


def _forward_tag(args, kwargs) -> str:
    cache = kwargs.get("cache", args[3] if len(args) > 3 else None)
    if cache is None:
        return "full"
    return "prefill" if cache.length == 0 else "decode"


def _pad_note(tracer: Tracer, args, kwargs, out) -> None:
    n = args[2].size
    pad = -n % args[1].patch_len
    tracer.add("inference.pad_positions", pad)
    tracer.add("inference.context_positions", n + pad)


def _batch_note(tracer: Tracer, args, kwargs, out) -> None:
    supervised = (out.text_targets >= 0) | (out.ts_mask > 0).any(axis=-1)
    tracer.add("data.batches", 1)
    tracer.add("data.supervised_positions", int(supervised.sum()))
    tracer.add("data.positions", supervised.size)


def _save_note(tracer: Tracer, args, kwargs, out) -> None:
    tracer.add("checkpoint.saves", 1)
    tracer.add("checkpoint.bytes", os.path.getsize(args[0]))


def _doc_class(n: int) -> str:
    return "short" if n <= SHORT_DOC else "long" if n >= LONG_DOC else "mid"


def _encode_tag(args, kwargs) -> str:
    return _doc_class(len(args[0]))


def _encode_note(tracer: Tracer, args, kwargs, out) -> None:
    n = len(args[0])
    tracer.add(f"bpe.bytes_{_doc_class(n)}", n)
    tracer.add("bpe.bytes", n)
    tracer.add("bpe.tokens", len(out))


def _train_note(tracer: Tracer, args, kwargs, out) -> None:
    tracer.add("bpe.train_calls", 1)
    tracer.add("bpe.train_merges", len(out.merges))


def build_probes() -> list[Probe]:
    from patchlm import (bpe, checkpoint, codec, inference, losses, metrics, model,
                         optim, synth, tensor, training)
    return [
        Probe(tensor.Tensor, "backward", "tensor.backward", note=_graph_note),
        Probe(model, "forward_hidden", "model.forward", tag=_forward_tag),
        Probe(model, "embed_sequence", "model.embed"),
        Probe(model, "block_forward", "model.block"),
        Probe(model, "attention_gqa", "model.attn"),
        Probe(model.KVCache, "extend", "model.kv_extend", note=_kv_note),
        Probe(losses, "lm_loss", "losses.lm"),
        Probe(losses, "text_logits", "losses.text_logits"),
        Probe(losses, "quantile_head", "losses.quantile"),
        Probe(losses, "masked_quantile_loss", "losses.quantile"),
        Probe(optim.Optimizer, "step", "optim.step"),
        Probe(optim, "muon_step", "optim.muon"),
        Probe(optim, "newton_schulz", "optim.newton_schulz"),
        Probe(optim, "adamw_step", "optim.adamw"),
        Probe(training.Trainer, "next_batch", "data.batch", note=_batch_note),
        Probe(training.Trainer, "train_step", "training.step"),
        Probe(synth, "sample_series_info", "synth.sample"),
        Probe(codec, "patchify", "codec.patchify"),
        Probe(codec, "compute_visible_stats", "codec.stats"),
        Probe(checkpoint, "save_checkpoint", "checkpoint.save", note=_save_note),
        Probe(checkpoint, "load_checkpoint", "checkpoint.load"),
        Probe(inference, "forecast_series", "inference.forecast"),
        Probe(inference, "forecast_values", "inference.forecast", note=_pad_note),
        Probe(inference, "extract_embedding", "inference.embed"),
        Probe(metrics, "evaluate_forecast_tasks", "metrics.eval"),
        Probe(bpe, "encode", "bpe.encode", tag=_encode_tag, note=_encode_note),
        Probe(bpe, "decode", "bpe.decode"),
        Probe(bpe, "bpe_train", "bpe.train", note=_train_note),
        Probe(bpe, "save_vocab", "bpe.vocab_io"),
        Probe(bpe, "load_vocab", "bpe.vocab_io"),
    ]


# per-layer metric -> span name whose self time it averages per primary op
SELF_MS_PER_OP = {
    "tensor.backward_ms": "tensor.backward",
    "model.embed_ms": "model.embed",
    "model.block_ms": "model.block",
    "model.attn_ms": "model.attn",
    "model.forward_other_ms": "model.forward",
    "model.kv_extend_ms": "model.kv_extend",
    "losses.lm_ms": "losses.lm",
    "losses.text_logits_ms": "losses.text_logits",
    "losses.quantile_ms": "losses.quantile",
    "optim.step_ms": "optim.step",
    "optim.muon_ms": "optim.muon",
    "optim.newton_schulz_ms": "optim.newton_schulz",
    "optim.adamw_ms": "optim.adamw",
    "data.batch_ms": "data.batch",
    "synth.sample_ms": "synth.sample",
    "codec.patchify_ms": "codec.patchify",
    "codec.stats_ms": "codec.stats",
    "training.step_other_ms": "training.step",
    "inference.forecast_other_ms": "inference.forecast",
    "bpe.encode_ms": "bpe.encode",
    "trace.hook_ms": "trace",
}

# per-layer metric -> unit; the order is the order of the report
PER_LAYER_UNITS = {name: "ms" for name in SELF_MS_PER_OP}
PER_LAYER_UNITS.update({
    "tensor.graph_nodes": "count",
    "tensor.graph_mb": "MB",
    "model.kv_bytes_copied": "B",
    "data.supervised_share": "ratio",
    "data.series_per_batch": "count",
    "checkpoint.save_ms": "ms",
    "checkpoint.mb": "MB",
    "checkpoint.load_ms": "ms",
    "inference.prefill_ms": "ms",
    "inference.decode_step_ms": "ms",
    "inference.forward_calls_per_series": "count",
    "inference.embed_ms": "ms",
    "inference.pad_share": "ratio",
    "metrics.eval_ms": "ms",
    "bpe.encode_us_per_byte_short": "us/B",
    "bpe.encode_us_per_byte_long": "us/B",
    "bpe.train_merges": "count",
    "bpe.tokens_per_byte": "tokens/B",
    "bpe.decode_ms": "ms",
    "bpe.vocab_io_ms": "ms",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_share: float) -> dict[str, float]:
    """Aggregate the recorded spans and counters into PER_LAYER_UNITS."""
    spans = tracer.spans
    self_s = tracer.self_times()
    primary = {i for i, kind in tracer.root_kinds.items() if kind == "op"}
    n_ops = len(primary)

    self_in_ops: dict[str, float] = defaultdict(float)    # self time under primary roots
    total: dict[tuple[str, str | None], float] = defaultdict(float)  # inclusive, any root
    calls: dict[tuple[str, str | None], int] = defaultdict(int)
    self_by_tag: dict[tuple[str, str | None], float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s.root in primary:
            self_in_ops[s.name] += self_s[i]
        total[(s.name, s.tag)] += s.end - s.start
        calls[(s.name, s.tag)] += 1
        self_by_tag[(s.name, s.tag)] += self_s[i]

    def ms_per_call(name: str) -> float:
        """Mean inclusive duration of the spans called ``name``, any tag."""
        return 1e3 * _ratio(sum(t for (n, _), t in total.items() if n == name),
                            sum(k for (n, _), k in calls.items() if n == name))

    c = tracer.counters
    out = {name: 1e3 * _ratio(self_in_ops[span], n_ops) for name, span in SELF_MS_PER_OP.items()}
    patchify_in_batches = sum(1 for s in spans if s.name == "codec.patchify"
                              and s.root in primary and _under(spans, s, "data.batch"))
    out.update({
        "tensor.graph_nodes": _ratio(c["tensor.graph_nodes"], c["tensor.backward_calls"]),
        "tensor.graph_mb": _ratio(c["tensor.graph_bytes"], c["tensor.backward_calls"]) / 1e6,
        "model.kv_bytes_copied": _ratio(c["model.kv_bytes"], n_ops),
        "data.supervised_share": _ratio(c["data.supervised_positions"], c["data.positions"]),
        "data.series_per_batch": _ratio(patchify_in_batches, c["data.batches"]),
        "checkpoint.save_ms": ms_per_call("checkpoint.save"),
        "checkpoint.mb": _ratio(c["checkpoint.bytes"], c["checkpoint.saves"]) / 1e6,
        "checkpoint.load_ms": ms_per_call("checkpoint.load"),
        "inference.prefill_ms": 1e3 * _ratio(total[("model.forward", "prefill")], n_ops),
        "inference.decode_step_ms": 1e3 * _ratio(total[("model.forward", "decode")],
                                                 calls[("model.forward", "decode")]),
        "inference.forward_calls_per_series": _ratio(
            calls[("model.forward", "prefill")] + calls[("model.forward", "decode")], n_ops),
        "inference.embed_ms": ms_per_call("inference.embed"),
        "inference.pad_share": _ratio(c["inference.pad_positions"],
                                      c["inference.context_positions"]),
        "metrics.eval_ms": ms_per_call("metrics.eval"),
        "bpe.encode_us_per_byte_short": 1e6 * _ratio(self_by_tag[("bpe.encode", "short")],
                                                     c["bpe.bytes_short"]),
        "bpe.encode_us_per_byte_long": 1e6 * _ratio(self_by_tag[("bpe.encode", "long")],
                                                    c["bpe.bytes_long"]),
        "bpe.train_merges": _ratio(c["bpe.train_merges"], c["bpe.train_calls"]),
        "bpe.tokens_per_byte": _ratio(c["bpe.tokens"], c["bpe.bytes"]),
        "bpe.decode_ms": ms_per_call("bpe.decode"),
        "bpe.vocab_io_ms": 2 * ms_per_call("bpe.vocab_io"),   # one save + one load
        "trace.unattributed_share": _ratio(sum(self_s[i] for i in primary),
                                           sum(spans[i].end - spans[i].start for i in primary)),
        "trace.overhead_share": overhead_share,
    })
    return {name: out[name] for name in PER_LAYER_UNITS}


def _under(spans, span, name: str) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False
