"""Mini-batch training with validation-based early stopping.

Training and validation losses are the token-pooled mean NLL of
:func:`qtextgen.metrics.mean_nll`: every target counts once, so batch
composition does not reweight sequences.  ``mean_nll`` runs a minibatch (or
the validation set) as packs: each pack is one ``logits`` call on the flat
concatenation of up to ``PACK_POSITIONS`` positions, whose sequences stay
unpadded and never see one another, so each minibatch records a few forward
graphs rather than one per sequence.  The budget bounds the dense attention
scores of a pack, which grow with the square of its positions.  A single
sequence is a one-segment pack.  The best-validation parameter snapshot is
restored when training ends, whether it completed or stopped early.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

from ..corpus import Dataset, train_val_split
from ..metrics import mean_nll
from ..models import BaseModel, ModelConfig, build_model, default_config
from ..numerics import Adam, ComputationRecord, Rng, derive_seed
from .config import RunConfig

__all__ = ["TrainLog", "fit", "model_config_for", "train_on_dataset"]


@dataclass
class TrainLog:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    stop_reason: str = ""
    best_epoch: int = 0
    best_val_loss: float = math.inf

    def as_dict(self, include_times: bool = True) -> dict:
        d = asdict(self)
        if not include_times:
            d.pop("epoch_seconds")
        return d


def batch_loss(model: BaseModel, batch):
    """Token-pooled mean NLL over a batch of id sequences: (scalar tensor, target count)."""
    return mean_nll(model, batch)


def validation_loss(model: BaseModel, sequences) -> float:
    return mean_nll(model, sequences)[0].item()


def fit(model: BaseModel, train_seqs, val_seqs, cfg: RunConfig, rng: Rng) -> TrainLog:
    opt = Adam(model.parameters(), lr=cfg.lr_for(model.arch), beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps)
    log = TrainLog()
    best_arrays = None
    bad_epochs = 0
    order = list(range(len(train_seqs)))
    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        rng.shuffle(order)
        pooled_nll, pooled_tokens = 0.0, 0
        for b, start in enumerate(range(0, len(order), cfg.batch_size)):
            batch = [train_seqs[i] for i in order[start:start + cfg.batch_size]]
            with ComputationRecord() as rec:
                loss, tokens = batch_loss(model, batch)
                value = loss.item()
                if not math.isfinite(value):
                    raise RuntimeError(f"non-finite training loss at epoch {epoch}, batch {b}")
                rec.backward(loss)
            opt.step()
            opt.zero_grad()
            pooled_nll += value * tokens
            pooled_tokens += tokens
        log.train_losses.append(pooled_nll / pooled_tokens)
        val = validation_loss(model, val_seqs)
        log.val_losses.append(val)
        log.epoch_seconds.append(time.perf_counter() - started)
        if val < log.best_val_loss - cfg.min_delta:
            log.best_val_loss = val
            log.best_epoch = epoch
            best_arrays = model.state_arrays()
            bad_epochs = 0
        else:
            bad_epochs += 1
        if bad_epochs >= cfg.patience:
            log.stop_reason = f"early-stopped at epoch {epoch}"
            break
    else:
        log.stop_reason = "completed"
    if best_arrays is not None:
        model.load_state_arrays(best_arrays)
    return log


def model_config_for(arch: str, dataset: Dataset, cfg: RunConfig, seed: int) -> ModelConfig:
    longest = max(len(seq) for seq in dataset.sequences)
    overrides = dict(cfg.model_overrides.get(arch, {}))
    return default_config(
        arch,
        vocab_size=len(dataset.vocab),
        max_seq_len=max(longest, overrides.pop("max_seq_len", 0)),
        seed=seed,
        **overrides,
    )


def train_on_dataset(arch: str, dataset: Dataset, cfg: RunConfig, cell_seed: int | None = None):
    """Split, build, and fit one model on one dataset.

    Returns (model, train log, (train subset, validation subset)).
    """
    seed = cfg.seed if cell_seed is None else cell_seed
    train_set, val_set = train_val_split(dataset, cfg.train_fraction, seed=cfg.seed)
    model = build_model(model_config_for(arch, dataset, cfg, seed))
    rng = Rng(derive_seed(seed, "batches", arch, dataset.name))
    log = fit(model, train_set.sequences, val_set.sequences, cfg, rng)
    return model, log, (train_set, val_set)
