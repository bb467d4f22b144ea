"""The model x dataset benchmark matrix and its table emission.

Cells run serially in a fixed order; each cell derives its own random stream
from the run seed, its dataset name and its architecture (``cell_seed``), so
its results do not depend on which other cells are configured or ran.  A cell
failure is recorded and the matrix continues.
Emitted files (per-dataset CSVs, the overall CSV, reports.json) are
deterministic byte-for-byte under a fixed (seed, config).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..corpus import Dataset, synthesize_datasets, train_val_split
from ..metrics import MetricsReport
from ..models import DISPLAY_NAMES, OVERALL_ORDER, PER_DATASET_ORDER, BaseModel
from ..numerics import Rng, derive_seed
from .config import RunConfig
from .evaluate import evaluate_model
from .files import write_text_atomic
from .train import TrainLog, train_on_dataset

PER_DATASET_COLUMNS = ("Model", "Perplexity", "BLEU-1", "BLEU-2", "Distinct-1", "Repetition Rate")
OVERALL_COLUMNS = ("Model", "Perplexity", "BLEU-1", "Distinct-1", "Repetition Rate")

__all__ = [
    "PER_DATASET_COLUMNS",
    "OVERALL_COLUMNS",
    "BenchmarkResult",
    "cell_seed",
    "evaluate_cell",
    "run_cell",
    "benchmark_matrix",
    "write_tables",
]


@dataclass
class BenchmarkResult:
    reports: list[MetricsReport] = field(default_factory=list)
    logs: dict = field(default_factory=dict)            # (dataset, arch) -> TrainLog
    errors: dict = field(default_factory=dict)          # (dataset, arch) -> message
    files: list[Path] = field(default_factory=list)


def cell_seed(seed: int, dataset: str, arch: str) -> int:
    """The seed of one matrix cell; the same whichever other cells run."""
    return derive_seed(seed, "cell", dataset, arch)


def evaluate_cell(model: BaseModel, dataset: Dataset, cfg: RunConfig, cell_seed: int) -> MetricsReport:
    """Score a cell's trained model on its validation split, sampling from the cell's decode stream."""
    _, val_set = train_val_split(dataset, cfg.train_fraction, seed=cfg.seed)
    decode_rng = Rng(derive_seed(cell_seed, "decode", model.arch, dataset.name))
    return evaluate_model(model, val_set, dataset, decode=cfg.decode, temperature=cfg.temperature, rng=decode_rng)


def run_cell(arch: str, dataset: Dataset, cfg: RunConfig, cell_seed: int):
    model, log, _ = train_on_dataset(arch, dataset, cfg, cell_seed)
    return model, log, evaluate_cell(model, dataset, cfg, cell_seed)


def benchmark_matrix(cfg: RunConfig, progress=None) -> BenchmarkResult:
    datasets = synthesize_datasets(cfg.seed)
    result = BenchmarkResult()
    for di, dataset_name in enumerate(cfg.datasets):
        dataset = datasets[dataset_name]
        for mi, arch in enumerate(cfg.models):
            cell_index = di * len(cfg.models) + mi
            if progress is not None:
                progress(f"[{cell_index + 1}/{len(cfg.datasets) * len(cfg.models)}] {arch} on {dataset_name}")
            try:
                _, log, report = run_cell(arch, dataset, cfg, cell_seed(cfg.seed, dataset_name, arch))
                result.reports.append(report)
                result.logs[(dataset_name, arch)] = log
            except Exception as err:  # cell failures must not kill the matrix
                result.errors[(dataset_name, arch)] = f"{type(err).__name__}: {err}"
    result.files = write_tables(result, cfg)
    return result


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _csv(rows) -> str:
    return "\n".join(",".join(row) for row in rows) + "\n"


def write_tables(result: BenchmarkResult, cfg: RunConfig) -> list[Path]:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_cell = {(r.dataset, r.model): r for r in result.reports}
    written: list[Path] = []

    for dataset_name in cfg.datasets:
        rows = [list(PER_DATASET_COLUMNS)]
        for arch in PER_DATASET_ORDER:
            if arch not in cfg.models:
                continue
            r = by_cell.get((dataset_name, DISPLAY_NAMES[arch]))
            if r is None:
                continue
            rows.append([r.model, _fmt(r.perplexity), _fmt(r.bleu[0]), _fmt(r.bleu[1]),
                         _fmt(r.distinct[0]), _fmt(r.repetition_rate)])
        written.append(write_text_atomic(out / f"results_{dataset_name}.csv", _csv(rows)))

    rows = [list(OVERALL_COLUMNS)]
    for arch in OVERALL_ORDER:
        if arch not in cfg.models:
            continue
        cells = [by_cell[(d, DISPLAY_NAMES[arch])] for d in cfg.datasets if (d, DISPLAY_NAMES[arch]) in by_cell]
        if not cells:
            continue
        k = len(cells)
        rows.append([
            DISPLAY_NAMES[arch],
            _fmt(sum(c.perplexity for c in cells) / k),
            _fmt(sum(c.bleu[0] for c in cells) / k),
            _fmt(sum(c.distinct[0] for c in cells) / k),
            _fmt(sum(c.repetition_rate for c in cells) / k),
        ])
    written.append(write_text_atomic(out / "results_overall.csv", _csv(rows)))

    ordered = sorted(result.reports, key=lambda r: (r.dataset, r.model))
    written.append(write_text_atomic(out / "reports.json",
                                     json.dumps([r.as_dict() for r in ordered], indent=2, sort_keys=True) + "\n"))

    ordered_logs = {
        f"{dataset}/{arch}": log.as_dict(include_times=False)
        for (dataset, arch), log in sorted(result.logs.items())
    }
    written.append(write_text_atomic(out / "train_logs.json",
                                     json.dumps(ordered_logs, indent=2, sort_keys=True) + "\n"))

    if result.errors:
        errors = {f"{d}/{a}": msg for (d, a), msg in sorted(result.errors.items())}
        written.append(write_text_atomic(out / "errors.json", json.dumps(errors, indent=2, sort_keys=True) + "\n"))
    return written
