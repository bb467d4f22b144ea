"""Training loop, benchmark matrix, checkpoints, and the CLI."""

from .benchmark import (
    OVERALL_COLUMNS,
    PER_DATASET_COLUMNS,
    BenchmarkResult,
    benchmark_matrix,
    cell_seed,
    evaluate_cell,
    run_cell,
    write_tables,
)
from .checkpoint import FORMAT_VERSION, load_checkpoint, restore_model, save_checkpoint
from .config import RunConfig, load_config
from .evaluate import evaluate_model, prompt_tokens
from .train import TrainLog, fit, model_config_for, train_on_dataset

__all__ = [
    "FORMAT_VERSION",
    "OVERALL_COLUMNS",
    "PER_DATASET_COLUMNS",
    "BenchmarkResult",
    "RunConfig",
    "TrainLog",
    "benchmark_matrix",
    "cell_seed",
    "evaluate_cell",
    "evaluate_model",
    "fit",
    "load_checkpoint",
    "load_config",
    "model_config_for",
    "prompt_tokens",
    "restore_model",
    "run_cell",
    "save_checkpoint",
    "train_on_dataset",
    "write_tables",
]
