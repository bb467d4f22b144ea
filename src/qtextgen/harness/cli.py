"""Command-line interface.

Subcommands: synth-data, train, generate, evaluate, benchmark, report.
Exit codes: 0 success, 1 usage error (bad flags, bad config), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from ..corpus import BOS_ID, EOS_ID, save_dataset, synthesize_datasets
from ..metrics import GenerationSample, MetricsReport
from ..models import ARCHITECTURES, generate
from ..numerics import Rng, derive_seed
from .benchmark import BenchmarkResult, benchmark_matrix, cell_seed, evaluate_cell, write_tables
from .checkpoint import load_checkpoint, restore_model, save_checkpoint
from .config import RunConfig, load_config
from .train import train_on_dataset

__all__ = ["main", "entry"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qtextgen", description="Train and benchmark desk-scale text generators.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p, model_dataset=False, decoding=False):
        p.add_argument("--config", type=str, default=None, help="JSON run config (RunConfig schema)")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", type=str, default=None, help="output directory")
        if model_dataset:
            p.add_argument("--model", type=str, required=True, choices=sorted(ARCHITECTURES))
            p.add_argument("--dataset", type=str, required=True)
        if decoding:
            p.add_argument("--decode", type=str, choices=("greedy", "sample"), default=None)
            p.add_argument("--temp", type=float, default=None, help="sampling temperature")

    common(sub.add_parser("synth-data", help="write the five corpora and manifests"))
    common(sub.add_parser("train", help="train one model on one dataset"), model_dataset=True)
    p_gen = sub.add_parser("generate", help="decode from a trained checkpoint")
    common(p_gen, model_dataset=True, decoding=True)
    p_gen.add_argument("--ckpt", type=str, default=None, help="checkpoint path (default: <out>/<model>_<dataset>.ckpt.json)")
    p_gen.add_argument("--prompt", type=str, required=True, help="prompt text")
    p_gen.add_argument("--max-new", type=int, default=16, help="maximum new tokens")
    p_eval = sub.add_parser("evaluate", help="score a trained checkpoint on its validation split")
    common(p_eval, model_dataset=True, decoding=True)
    p_eval.add_argument("--ckpt", type=str, default=None)
    common(sub.add_parser("benchmark", help="run the full model x dataset matrix"), decoding=True)
    common(sub.add_parser("report", help="rebuild CSV tables from reports.json"))
    return parser


def _run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out_dir"] = args.out
    if getattr(args, "decode", None) is not None:
        updates["decode"] = args.decode
    if getattr(args, "temp", None) is not None:
        updates["temperature"] = args.temp
    return replace(cfg, **updates) if updates else cfg


def _dataset_for(cfg: RunConfig, name: str):
    datasets = synthesize_datasets(cfg.seed)
    if name not in datasets:
        raise _UsageError(f"unknown dataset {name!r}; available: {', '.join(datasets)}")
    return datasets[name]


def _ckpt_path(cfg: RunConfig, args) -> Path:
    if getattr(args, "ckpt", None):
        return Path(args.ckpt)
    return Path(cfg.out_dir) / f"{args.model}_{args.dataset}.ckpt.json"


def cmd_synth_data(args) -> int:
    cfg = _run_config(args)
    out = Path(cfg.out_dir) / "data"
    for dataset in synthesize_datasets(cfg.seed).values():
        text_path, manifest_path = save_dataset(dataset, out)
        print(f"wrote {text_path} and {manifest_path}")
    return 0


def cmd_train(args) -> int:
    cfg = _run_config(args)
    dataset = _dataset_for(cfg, args.dataset)
    model, log, _ = train_on_dataset(args.model, dataset, cfg, cell_seed(cfg.seed, args.dataset, args.model))
    ckpt = save_checkpoint(_ckpt_path(cfg, args), model, epoch=len(log.train_losses))
    log_path = Path(cfg.out_dir) / f"{args.model}_{args.dataset}.trainlog.json"
    log_path.write_text(json.dumps(log.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{log.stop_reason} after {len(log.train_losses)} epochs; "
          f"best validation loss {log.best_val_loss:.4f} at epoch {log.best_epoch}")
    print(f"wrote {ckpt} and {log_path}")
    return 0


def cmd_generate(args) -> int:
    cfg = _run_config(args)
    dataset = _dataset_for(cfg, args.dataset)
    model = restore_model(load_checkpoint(_ckpt_path(cfg, args)))
    prompt_ids = [BOS_ID, *dataset.vocab.encode(args.prompt)]
    rng = Rng(derive_seed(cfg.seed, "cli-decode", args.model, args.dataset))
    out_ids = generate(model, prompt_ids, max_new=args.max_new, mode=cfg.decode,
                       temperature=cfg.temperature, rng=rng, eos_id=EOS_ID)
    print(dataset.vocab.decode(out_ids))
    return 0


def cmd_evaluate(args) -> int:
    cfg = _run_config(args)
    dataset = _dataset_for(cfg, args.dataset)
    model = restore_model(load_checkpoint(_ckpt_path(cfg, args)))
    report = evaluate_cell(model, dataset, cfg, cell_seed(cfg.seed, args.dataset, args.model))
    path = Path(cfg.out_dir) / f"{args.model}_{args.dataset}.metrics.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_benchmark(args) -> int:
    cfg = _run_config(args)
    result = benchmark_matrix(cfg, progress=lambda msg: print(msg, file=sys.stderr))
    for path in result.files:
        print(f"wrote {path}")
    if result.errors:
        for cell, msg in sorted(result.errors.items()):
            print(f"cell {cell[1]} on {cell[0]} failed: {msg}", file=sys.stderr)
        return 2
    return 0


def cmd_report(args) -> int:
    cfg = _run_config(args)
    reports_path = Path(cfg.out_dir) / "reports.json"
    raw = json.loads(reports_path.read_text(encoding="utf-8"))
    reports = []
    for entry in raw:
        entry["samples"] = [GenerationSample(**s) for s in entry.get("samples", [])]
        entry["bleu"] = tuple(entry["bleu"])
        entry["distinct"] = tuple(entry["distinct"])
        reports.append(MetricsReport(**entry))
    result = BenchmarkResult(reports=reports)
    for path in write_tables(result, cfg):
        print(f"wrote {path}")
    print((Path(cfg.out_dir) / "results_overall.csv").read_text(encoding="utf-8"), end="")
    return 0


_COMMANDS = {
    "synth-data": cmd_synth_data,
    "train": cmd_train,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "benchmark": cmd_benchmark,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        handler = _COMMANDS[args.command]
    except _UsageError as err:
        parser.print_usage(sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        return handler(args)
    except (_UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # runtime failure
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
