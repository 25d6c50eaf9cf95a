"""Command line interface.

Subcommands: tokenize (train/encode/decode), synth, train, forecast,
embed, probe, eval.  Every run takes --seed and prints its result as JSON
with --json, or as a table with --pretty.  Exit codes: 0 ok, 2 config
error, 3 data error (including a missing or unreadable input file), 4
numeric failure.

A command only does its work and returns its output paths and result;
``dispatch`` hashes the run, writes the manifest (``<out>.manifest.json``,
or ``out_dir/manifest.json`` for ``train``) and prints the result.  The
hash covers every parsed flag but --out, --json and --pretty.  A flag of
``type=InputPath`` names a file the command reads and counts by content;
``train`` counts its parsed run config in place of the --config path.
The --json line and the probe and eval reports write NaN metrics as null.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Optional

import numpy as np

from . import bpe, checkpoint, codec, config as cfgmod, data, inference, losses, metrics
from . import synth, training
from .config import InputPath
from .errors import ConfigError, DataError, NumericError
from .optim import Schedule


def _field(record: dict, key: str, path: str, convert=None, default=None):
    """record[key] passed through convert; a missing key (with no default)
    or a value that does not convert is a DataError naming file and key."""
    if key not in record:
        if default is not None:
            return default
        raise DataError(f"{path}: record without {key!r}")
    try:
        return convert(record[key]) if convert else record[key]
    except (OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: record with a malformed {key!r}") from exc


def _floats(ndim: int):
    def convert(value) -> np.ndarray:
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim != ndim or arr.size == 0:
            raise ValueError(f"expected non-empty {ndim}-D numbers")
        return arr
    return convert


# class ids index the columns of a head's [D, K] weight, K = max id + 1
MAX_CLASSES = 1 << 16


def _label(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < MAX_CLASSES:
        raise ValueError(f"a label must be a class id in [0, {MAX_CLASSES})")
    return value


def _rows(rows: list, path: str, key: str) -> np.ndarray:
    """Stack 1-D number rows; rows of more than one width are a DataError."""
    if len({len(r) for r in rows}) > 1:
        raise DataError(f"{path}: {key!r} rows differ in width")
    return np.stack(rows)


def _id(record: dict, path: str) -> str:
    return _field(record, "id", path, str)


def _by_id(path: str, key=_id) -> dict:
    """The records of a JSONL file by ``key(record, path)``, the record's id by
    default; a key on more than one record is a DataError naming file and key."""
    out = {}
    for record in codec.read_jsonl(path):
        k = key(record, path)
        if k in out:
            raise DataError(f"{path}: id {k!r} on more than one record")
        out[k] = record
    return out


def _strict(payload):
    """``payload`` with every NaN or infinity as None: NaN is not JSON."""
    return json.loads(json.dumps(payload), parse_constant=lambda _: None)


def _write_report(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_strict(payload), fh, indent=2, allow_nan=False)


def _echo(args, payload: dict) -> None:
    if args.json:
        print(json.dumps(_strict(payload), allow_nan=False))
    elif args.pretty:
        for key, value in payload.items():
            print(f"{key:>24}: {value}")


# -- tokenize ----------------------------------------------------------------

def cmd_tokenize_train(args) -> tuple[list[str], dict]:
    docs = []
    for path in args.input:
        with open(path, "rb") as fh:
            docs.append(fh.read())
    vocab = bpe.bpe_train(docs, args.vocab_size)
    bpe.save_vocab(vocab, args.out)
    return [args.out], {"vocab_size": vocab.size, "merges": len(vocab.merges), "out": args.out}


def cmd_tokenize_encode(args) -> tuple[list[str], dict]:
    vocab = bpe.load_vocab(args.vocab)
    with open(args.input, "rb") as fh:
        ids = bpe.encode(fh.read(), vocab)
    with open(args.out, "w") as fh:
        json.dump({"ids": ids}, fh)
    return [args.out], {"n_tokens": len(ids), "out": args.out}


def cmd_tokenize_decode(args) -> tuple[list[str], dict]:
    vocab = bpe.load_vocab(args.vocab)
    with open(args.input, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise DataError(f"{args.input}: not UTF-8 ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"{args.input}: invalid JSON") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{args.input}: expected a JSON object")
    ids = _field(doc, "ids", args.input, lambda v: [int(t) for t in v])
    with open(args.out, "wb") as fh:
        fh.write(bpe.decode(ids, vocab))
    return [args.out], {"n_tokens": len(ids), "out": args.out}


# -- synth ----------------------------------------------------------------------

def cmd_synth(args) -> tuple[list[str], dict]:
    rng = np.random.default_rng(args.seed)
    series_list = []
    for i in range(args.n):
        values = synth.sample_series(args.len, rng, force_kernel=args.force_kernel)
        series_list.append(codec.RawSeries(values, series_id=f"synth-{i:05d}"))
    codec.write_jsonl(args.out, map(codec.series_to_record, series_list))
    return [args.out], {"n": args.n, "len": args.len, "out": args.out}


# -- train -------------------------------------------------------------------------

def _text_stream_from(paths, vocab) -> data.TokenStream:
    docs = []
    for path in paths:
        with open(path, "rb") as fh:
            docs.append(fh.read())
    return data.TokenStream(data.pack_documents(docs, vocab))


def _build_sources(run: cfgmod.RunConfig) -> training.DataSources:
    if not run.data.vocab:
        raise ConfigError("[data] vocab path is required for training")
    vocab = bpe.load_vocab(run.data.vocab)
    text_stream = _text_stream_from(run.data.text, vocab) if run.data.text else None
    if run.data.series:
        file_series = list(codec.read_jsonl(run.data.series, codec.series_from_record))
        ts_source = training.mixed_ts_source(file_series, run.data.synth_length,
                                             run.data.synthetic_batch_prob)
    else:
        ts_source = training.synthetic_ts_source(run.data.synth_length)
    return training.DataSources(
        text_stream=text_stream,
        ts_source=ts_source,
        alignment_source=training.synthetic_alignment_source(run.data.align_length),
        vocab=vocab,
    )


def cmd_train(args) -> tuple[list[str], dict]:
    run = args.config  # parsed by dispatch
    sources = _build_sources(run)
    os.makedirs(run.data.out_dir, exist_ok=True)

    total = run.stage1.total_steps + (run.stage2.total_steps if run.stage2 else 0)
    schedule = Schedule(total_steps=total)

    if args.resume:
        trainer = training.Trainer.load(args.resume, sources)
        if trainer.config != run.model:
            raise ConfigError("checkpoint model config does not match the run config")
        code = cfgmod.code_digest()
        if trainer.saved_code_digest not in (None, code):
            print(f"warning: {args.resume} was saved by code {trainer.saved_code_digest} and "
                  f"resumes under code {code}; the run may differ from an uninterrupted one",
                  file=sys.stderr)
    else:
        trainer = training.Trainer(run.model, seed=args.seed)

    metrics_path = os.path.join(run.data.out_dir, "metrics.jsonl")
    sink = training.jsonl_sink(metrics_path, trainer.step)
    outputs = [metrics_path]
    try:
        if args.stage in ("1", "all") and trainer.step < run.stage1.total_steps:
            ckpt_path = os.path.join(run.data.out_dir, "stage1.ckpt")
            trainer.run_stage(run.stage1, sources, schedule, sink, ckpt_path)
            outputs.append(ckpt_path)
        if run.stage2 and args.stage in ("2", "all"):
            ckpt_path = os.path.join(run.data.out_dir, "stage2.ckpt")
            trainer.run_stage(run.stage2, sources, schedule, sink, ckpt_path)
            outputs.append(ckpt_path)
    finally:
        sink.close()
    return outputs, {"steps": trainer.step, "out_dir": run.data.out_dir}


# -- forecast / embed --------------------------------------------------------------

def _load_model(path: str):
    config, tensors, _ = checkpoint.load_checkpoint(path)
    return config, checkpoint.model_params(config, tensors)


def cmd_forecast(args) -> tuple[list[str], dict]:
    config, params = _load_model(args.ckpt)
    text_ids: list[int] = []
    if args.text:
        if not args.vocab:
            raise ConfigError("--text requires --vocab for tokenization")
        vocab = bpe.load_vocab(args.vocab)
        with open(args.text, "rb") as fh:
            text_ids = bpe.encode(fh.read(), vocab) + [vocab.specials["<|ts_begin|>"]]
    records = []
    for series in codec.read_jsonl(args.input, codec.series_from_record):
        results = inference.forecast_series(params, config, series, args.horizon, text_ids)
        for channel, result in enumerate(results):
            records.append({
                "id": series.series_id,
                "channel": channel,
                "quantiles": result.quantiles.tolist(),
                "median": result.median.tolist(),
            })
    codec.write_jsonl(args.out, records)
    return [args.out], {"n_series": len(records), "out": args.out}


def cmd_embed(args) -> tuple[list[str], dict]:
    config, params = _load_model(args.ckpt)
    records = []
    for series in codec.read_jsonl(args.input, codec.series_from_record):
        emb = inference.extract_embedding(params, config, series=series, repeat=args.repeat)
        records.append({"id": series.series_id, "embedding": emb.tolist()})
    codec.write_jsonl(args.out, records)
    return [args.out], {"n_series": len(records), "out": args.out}


# -- probe ---------------------------------------------------------------------------

def _join_by_id(embeddings_path: str, labels_path: str):
    embs = {i: _field(r, "embedding", embeddings_path, _floats(1))
            for i, r in _by_id(embeddings_path).items()}
    labels = {i: _field(r, "label", labels_path, _label) for i, r in _by_id(labels_path).items()}
    ids = sorted(set(embs) & set(labels))
    if not ids:
        raise DataError("no overlapping ids between embeddings and labels")
    x = _rows([embs[i] for i in ids], embeddings_path, "embedding")
    y = np.asarray([labels[i] for i in ids])
    return x, y


def cmd_probe(args) -> tuple[list[str], dict]:
    if (args.test_embeddings is None) != (args.test_labels is None):
        raise ConfigError("--test-embeddings and --test-labels must be given together")
    x, y = _join_by_id(args.embeddings, args.labels)
    n_classes = int(y.max()) + 1
    train = inference.train_linear_probe if args.head == "linear" else inference.train_mlp_head
    head = train(x, y, n_classes, epochs=args.epochs, seed=args.seed,
                 class_balanced=args.class_balanced)
    if args.test_embeddings is not None:
        x_eval, y_eval = _join_by_id(args.test_embeddings, args.test_labels)
        if x_eval.shape[1] != x.shape[1]:
            raise DataError(f"{args.test_embeddings}: embeddings of width {x_eval.shape[1]}, "
                            f"the training embeddings have width {x.shape[1]}")
    else:
        x_eval, y_eval = x, y
    preds = head.predict(x_eval)
    scores = head.scores(x_eval)
    auc_scores = scores[:, 1] if n_classes == 2 else scores
    payload = {
        "accuracy": metrics.accuracy(preds, y_eval),
        "macro_f1": metrics.macro_f1(preds, y_eval),
        "auc": metrics.auc(auc_scores, y_eval),
        "n": int(len(y_eval)),
    }
    _write_report(args.out, payload)
    return [args.out], payload


# -- eval -----------------------------------------------------------------------------

def cmd_eval_forecast(args) -> tuple[list[str], dict]:
    def key(record, path):
        return _id(record, path), _field(record, "channel", path, int, default=0)

    preds = _by_id(args.pred, key)
    tasks = []
    for task_key, record in _by_id(args.truth, key).items():
        if task_key not in preds:
            raise DataError(f"missing prediction for series {task_key}")
        pred = preds[task_key]
        quantiles = _field(pred, "quantiles", args.pred, _floats(2))
        levels = losses.quantile_levels(quantiles.shape[1])
        season = (args.season if args.season > 0 else
                  metrics.season_for_freq(_field(record, "freq", args.truth, str, default="")))
        tasks.append(metrics.ForecastTask(
            task_id=task_key[0],
            context=_field(record, "context", args.truth, _floats(1)),
            target=_field(record, "target", args.truth, _floats(1)),
            quantiles=quantiles,
            median=_field(pred, "median", args.pred, _floats(1)),
            levels=levels,
            season=season,
        ))
    if not tasks:
        raise DataError(f"{args.truth}: no records")
    report = metrics.evaluate_forecast_tasks(tasks)
    _write_report(args.out, dataclasses.asdict(report))
    return [args.out], {"geomean_mase_ratio": report.geomean_mase_ratio,
                        "geomean_wql_ratio": report.geomean_wql_ratio,
                        "n_tasks": len(report.per_task), "n_skipped": len(report.skipped)}


def cmd_eval_cls(args) -> tuple[list[str], dict]:
    preds = _by_id(args.pred)
    if len({"scores" in r for r in preds.values()}) > 1:
        raise DataError(f"{args.pred}: 'scores' on some records but not on others")
    y_true, y_pred, scores = [], [], []
    for rid, record in _by_id(args.truth).items():
        if rid not in preds:
            raise DataError(f"missing prediction for id {rid}")
        pred = preds[rid]
        y_true.append(_field(record, "label", args.truth, _label))
        if "scores" in pred:
            s = _field(pred, "scores", args.pred, _floats(1))
            scores.append(s)
            y_pred.append(int(np.argmax(s)))
        else:
            y_pred.append(_field(pred, "label", args.pred, _label))
    if not y_true:
        raise DataError(f"{args.truth}: no records")
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    payload = {
        "accuracy": metrics.accuracy(y_pred, y_true),
        "macro_f1": metrics.macro_f1(y_pred, y_true),
    }
    if scores:
        mat = _rows(scores, args.pred, "scores")
        payload["auc"] = metrics.auc(mat[:, 1] if mat.shape[1] == 2 else mat, y_true)
    else:
        payload["auc"] = None
    _write_report(args.out, payload)
    return [args.out], payload


# -- parser ---------------------------------------------------------------------------

def _common_flags(sub_parser: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps the top-level values when the flag is absent after
    # the subcommand (a subparser default would overwrite them)
    sub_parser.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub_parser.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    sub_parser.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="patchlm")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="machine-readable stdout")
    parser.add_argument("--pretty", action="store_true", help="human-readable tables")
    sub = parser.add_subparsers(dest="command", required=True)

    tok = sub.add_parser("tokenize").add_subparsers(dest="action", required=True)
    tok_train = tok.add_parser("train")
    tok_train.add_argument("--input", type=InputPath, nargs="+", required=True)
    tok_train.add_argument("--vocab-size", type=int, required=True)
    tok_train.add_argument("--out", required=True)
    _common_flags(tok_train)
    tok_train.set_defaults(fn=cmd_tokenize_train)
    tok_encode = tok.add_parser("encode")
    tok_encode.add_argument("--vocab", type=InputPath, required=True)
    tok_encode.add_argument("--input", type=InputPath, required=True)
    tok_encode.add_argument("--out", required=True)
    _common_flags(tok_encode)
    tok_encode.set_defaults(fn=cmd_tokenize_encode)
    tok_decode = tok.add_parser("decode")
    tok_decode.add_argument("--vocab", type=InputPath, required=True)
    tok_decode.add_argument("--input", type=InputPath, required=True)
    tok_decode.add_argument("--out", required=True)
    _common_flags(tok_decode)
    tok_decode.set_defaults(fn=cmd_tokenize_decode)

    syn = sub.add_parser("synth")
    syn_sub = syn.add_subparsers(dest="action", required=True)
    syn_gen = syn_sub.add_parser("generate")
    syn_gen.add_argument("--n", type=int, required=True)
    syn_gen.add_argument("--len", type=int, required=True)
    syn_gen.add_argument("--out", required=True)
    syn_gen.add_argument("--force-kernel", default=None)
    _common_flags(syn_gen)
    syn_gen.set_defaults(fn=cmd_synth)

    train = sub.add_parser("train")
    train.add_argument("--config", required=True)
    train.add_argument("--resume", type=InputPath, default=None)
    train.add_argument("--stage", choices=("1", "2", "all"), default="all")
    _common_flags(train)
    train.set_defaults(fn=cmd_train)

    fc = sub.add_parser("forecast")
    fc.add_argument("--ckpt", type=InputPath, required=True)
    fc.add_argument("--input", type=InputPath, required=True)
    fc.add_argument("--horizon", type=int, required=True)
    fc.add_argument("--text", type=InputPath, default=None)
    fc.add_argument("--vocab", type=InputPath, default=None)
    fc.add_argument("--out", required=True)
    _common_flags(fc)
    fc.set_defaults(fn=cmd_forecast)

    emb = sub.add_parser("embed")
    emb.add_argument("--ckpt", type=InputPath, required=True)
    emb.add_argument("--input", type=InputPath, required=True)
    emb.add_argument("--repeat", type=int, default=1)
    emb.add_argument("--out", required=True)
    _common_flags(emb)
    emb.set_defaults(fn=cmd_embed)

    probe = sub.add_parser("probe")
    probe.add_argument("--embeddings", type=InputPath, required=True)
    probe.add_argument("--labels", type=InputPath, required=True)
    probe.add_argument("--test-embeddings", type=InputPath, default=None)
    probe.add_argument("--test-labels", type=InputPath, default=None)
    probe.add_argument("--head", choices=("linear", "mlp"), default="linear")
    probe.add_argument("--epochs", type=int, default=200)
    probe.add_argument("--class-balanced", action="store_true")
    probe.add_argument("--out", required=True)
    _common_flags(probe)
    probe.set_defaults(fn=cmd_probe)

    ev = sub.add_parser("eval").add_subparsers(dest="action", required=True)
    ev_fc = ev.add_parser("forecast")
    ev_fc.add_argument("--pred", type=InputPath, required=True)
    ev_fc.add_argument("--truth", type=InputPath, required=True)
    ev_fc.add_argument("--season", type=int, default=0, help="0 = derive from freq tag")
    ev_fc.add_argument("--out", required=True)
    _common_flags(ev_fc)
    ev_fc.set_defaults(fn=cmd_eval_forecast)
    ev_cls = ev.add_parser("cls")
    ev_cls.add_argument("--pred", type=InputPath, required=True)
    ev_cls.add_argument("--truth", type=InputPath, required=True)
    ev_cls.add_argument("--out", required=True)
    _common_flags(ev_cls)
    ev_cls.set_defaults(fn=cmd_eval_cls)

    return parser


# where the output goes and how it is shown do not identify a run; the
# command name and the seed are hashed on their own
_NOT_HASHED = ("command", "action", "fn", "seed", "out", "json", "pretty")


def dispatch(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
    try:
        start = time.monotonic()
        if args.fn is cmd_train:
            # a training run is identified by its parsed config, not the
            # config file's name; its [data] paths are InputPaths
            args.config = cfgmod.load_run_config(args.config)
            manifest_path = os.path.join(args.config.data.out_dir, "manifest.json")
        else:
            manifest_path = args.out + ".manifest.json"
        flags = {k: v for k, v in vars(args).items() if k not in _NOT_HASHED}
        # hashed before the command runs: train --resume may overwrite its input
        config_hash, inputs = cfgmod.run_identity(command, flags, args.seed)
        outputs, payload = args.fn(args)
        cfgmod.write_manifest(manifest_path, command, config_hash, args.seed, inputs, outputs,
                              time.monotonic() - start)
        _echo(args, payload)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch())
