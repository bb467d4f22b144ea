"""The benchmark's three workloads: set-up, one round, output checks, metrics.

A round is a fixed list of calls into the program.  Every round of a run
repeats the same calls on the same inputs, so rounds must give identical
outputs, and ``attempted``/``failed`` are whole multiples of one round.

* ``cells``: ``train_on_dataset`` -> ``evaluate_model`` for all five
  architectures on all five corpora, then ``write_tables``.
* ``decode``: brief training on the two longest corpora, a checkpoint round
  trip, then greedy and sampled generation to ``max_seq_len`` (EOS disabled)
  from every validation prompt, and ``perplexity`` over the whole corpus.
* ``wide_cells``: the ``cells`` pipeline on two corpora with every model
  widened.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from speed import SpeedProbe
from tracing import Tracer

import qtextgen.harness.benchmark as hb
import qtextgen.harness.checkpoint as ckpt
import qtextgen.metrics as qmetrics
import qtextgen.models as qmodels
from qtextgen.corpus import BOS_ID, DATASET_NAMES, EOS_ID, synthesize_datasets, tokenize, train_val_split
from qtextgen.harness import RunConfig
from qtextgen.harness.evaluate import prompt_tokens
from qtextgen.harness.train import batch_loss, model_config_for
from qtextgen.models import ARCHITECTURES, build_model
from qtextgen.numerics import ComputationRecord, Rng, Tensor, derive_seed
from qtextgen.qsim import vqc_forward

ARCHS = ("transformer", "mlp", "qksan", "qasa", "qrwkv")
# Epochs per architecture: the hybrids' single epoch already dominates a round;
# the classical models get six so their rates rest on more than a second.
EPOCHS = {"transformer": 6, "mlp": 6, "qksan": 1, "qasa": 1, "qrwkv": 1}
WIDE_OVERRIDES = {"d_model": 64, "d_ff": 128, "circuit_layers": 4, "qrwkv_qubits": 6}
NO_EOS = -1          # an id no model emits: generation runs to max_seq_len
GRAD_EPS = 1e-5      # central finite-difference step along a unit direction
GRAD_BATCH = 2       # sequences in the gradient-check batch


@dataclass(frozen=True)
class Workload:
    kind: str                 # "cells" or "decode": which round function runs
    corpora: tuple
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    "cells": Workload("cells", DATASET_NAMES),
    "decode": Workload("decode", ("short_stories", "haiku")),
    "wide_cells": Workload("cells", ("haiku", "proverbs"), WIDE_OVERRIDES),
}


def cell_seed(seed: int, corpus: str, arch: str) -> int:
    """The seed ``benchmark_matrix`` gives this cell in the default 5 x 5 matrix."""
    return seed ^ (DATASET_NAMES.index(corpus) * len(ARCHITECTURES) + ARCHITECTURES.index(arch))


@dataclass
class Context:
    """Inputs of a run, all derived from the workload seed during set-up."""

    workload: Workload
    seed: int
    out_dir: Path
    datasets: dict
    splits: dict              # corpus -> (train subset, validation subset)
    cfgs: dict                # arch -> RunConfig
    synth_s: float

    @property
    def table_cfg(self) -> RunConfig:
        return replace(self.cfgs[ARCHS[0]], datasets=self.workload.corpora, models=ARCHS)

    def train_tokens(self) -> dict:
        """Non-pad target positions trained per round and architecture, from the inputs."""
        per_epoch = sum(len(s) - 1 for c in self.workload.corpora for s in self.splits[c][0].sequences)
        return {arch: EPOCHS[arch] * per_epoch for arch in ARCHS}

    def prompts(self, corpus: str) -> list:
        """(prompt words, reference words, prompt ids) per validation sample, as evaluate_model builds them."""
        val = self.splits[corpus][1]
        out = []
        for text in val.texts:
            words = tokenize(text)
            prompt = prompt_tokens(words)
            out.append((prompt, words, [BOS_ID, *val.vocab.encode_tokens(prompt)]))
        return out


def setup(name: str, seed: int, out_dir: Path) -> Context:
    workload = WORKLOADS[name]
    started = time.perf_counter()
    datasets = synthesize_datasets(seed)
    synth_s = time.perf_counter() - started
    base = RunConfig(seed=seed, out_dir=str(out_dir),
                     model_overrides={arch: dict(workload.overrides) for arch in ARCHS} if workload.overrides else {})
    splits = {c: train_val_split(datasets[c], base.train_fraction, seed=seed) for c in workload.corpora}
    # patience above epochs: early stopping never fires, so the work is fixed
    cfgs = {arch: replace(base, epochs=EPOCHS[arch], patience=EPOCHS[arch] + 1) for arch in ARCHS}
    return Context(workload, seed, out_dir, datasets, splits, cfgs, synth_s)


# -- rounds -------------------------------------------------------------------

class _Calls:
    """Records when each program call ran, per bucket, and counts the calls that returned."""

    def __init__(self, intervals: dict):
        self.intervals = intervals
        self.done = 0

    def __call__(self, bucket: str, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.intervals[bucket].append((start, time.perf_counter()))
        self.done += 1
        return out


class Tally:
    """Program calls attempted and failed; a raise fails the rest of its cell."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def cell(self, n_calls: int, body, intervals: dict):
        call = _Calls(intervals)
        self.attempted += n_calls
        try:
            return body(call)
        except Exception as err:  # counted as failed; the run goes on
            self.failed += n_calls - call.done
            self.errors.append(f"{type(err).__name__}: {err}")
            return None


@dataclass
class Round:
    span: tuple = (0.0, 0.0)                                             # perf_counter start, end
    intervals: dict = field(default_factory=lambda: defaultdict(list))   # bucket -> [(start, end)]
    wall: float = 0.0                                                    # reference seconds
    seconds: dict = field(default_factory=dict)                          # bucket -> reference seconds
    fingerprint: list = field(default_factory=list)                      # outputs that must repeat
    cells: list = field(default_factory=list)                            # artifacts for the checks (round 1)


def cells_round(ctx: Context, tally: Tally, keep: bool) -> Round:
    rnd = Round()
    result = hb.BenchmarkResult()
    for corpus in ctx.workload.corpora:
        dataset = ctx.datasets[corpus]
        for arch in ARCHS:
            cfg, seed = ctx.cfgs[arch], cell_seed(ctx.seed, corpus, arch)

            def body(call):
                # run_cell's two steps, timed apart
                model, log, (train_set, val_set) = call(f"train.{arch}", hb.train_on_dataset, arch, dataset, cfg, seed)
                rng = Rng(derive_seed(seed, "decode", arch, corpus))
                report = call(f"eval.{arch}", hb.evaluate_model, model, val_set, dataset,
                              decode=cfg.decode, temperature=cfg.temperature, rng=rng)
                return model, log, train_set, val_set, report

            out = tally.cell(2, body, rnd.intervals)
            if out is None:
                continue
            model, log, train_set, val_set, report = out
            result.reports.append(report)
            result.logs[(corpus, arch)] = log
            if keep:
                rnd.cells.append((corpus, arch, seed, model, train_set, val_set, report))
    tally.cell(1, lambda call: call("tables", hb.write_tables, result, ctx.table_cfg), rnd.intervals)
    for name in ("reports.json", "train_logs.json"):
        path = ctx.out_dir / name
        rnd.fingerprint.append(path.read_bytes() if path.exists() else None)
    return rnd


def decode_round(ctx: Context, tally: Tally, keep: bool) -> Round:
    """``qtextgen train`` then ``qtextgen generate`` per cell, with EOS disabled."""
    rnd = Round()
    for corpus in ctx.workload.corpora:
        dataset = ctx.datasets[corpus]
        prompts = ctx.prompts(corpus)
        for arch in ARCHS:
            cfg, seed = ctx.cfgs[arch], cell_seed(ctx.seed, corpus, arch)
            path = ctx.out_dir / f"{arch}_{corpus}.ckpt.json"

            def body(call):
                model, log, (train_set, _) = call(f"train.{arch}", hb.train_on_dataset, arch, dataset, cfg, seed)
                call("checkpoint", ckpt.save_checkpoint, path, model, epoch=len(log.train_losses))
                payload = call("checkpoint", ckpt.load_checkpoint, path)
                restored = call("checkpoint", ckpt.restore_model, payload)
                ppl = call(f"eval.{arch}", qmetrics.perplexity, restored, dataset.sequences)
                length = restored.config.max_seq_len
                greedy = [call(f"eval.{arch}", qmodels.generate, restored, ids, max_new=length - len(ids),
                               mode="greedy", eos_id=NO_EOS) for _, _, ids in prompts]
                sampled = [call(f"eval.{arch}", qmodels.generate, restored, ids, max_new=length - len(ids),
                                mode="sample", temperature=cfg.temperature, rng=sample_rng(ctx, arch, corpus),
                                eos_id=NO_EOS) for _, _, ids in prompts]
                return model, train_set, restored, ppl, greedy, sampled

            out = tally.cell(5 + 2 * len(prompts), body, rnd.intervals)
            if out is None:
                continue
            model, train_set, restored, ppl, greedy, sampled = out
            rnd.fingerprint.append((ppl, greedy, sampled))
            if keep:
                rnd.cells.append((corpus, arch, seed, model, train_set, restored, ppl, greedy, sampled))
    return rnd


def sample_rng(ctx: Context, arch: str, corpus: str) -> Rng:
    """The stream ``qtextgen generate`` samples from, fresh per invocation."""
    return Rng(derive_seed(ctx.seed, "cli-decode", arch, corpus))


def generation_positions(prompt_len: int, emitted: int, stopped_at_eos: bool) -> int:
    """Token positions one ``generate`` call runs: every step re-runs its whole prefix."""
    steps = emitted + (1 if stopped_at_eos else 0)
    return steps * prompt_len + steps * (steps - 1) // 2


def decode_generation_positions(ctx: Context) -> dict:
    """Positions one decode round generates through per architecture, from its inputs."""
    total = 0
    for corpus in ctx.workload.corpora:
        length = max(len(s) for s in ctx.datasets[corpus].sequences)
        total += sum(2 * generation_positions(len(ids), length - len(ids), False) for _, _, ids in ctx.prompts(corpus))
    return dict.fromkeys(ARCHS, total)


# -- output checks --------------------------------------------------------------

def _own_logits(model, seqs) -> list:
    return [model.logits(list(seq[:-1])).data for seq in seqs]


def _check_split(ctx: Context, corpus: str, train_set):
    checks.check_identical(train_set.sequences, ctx.splits[corpus][0].sequences, f"{corpus} train split")


def _check_padding(ctx: Context, corpus: str, model):
    batch = [list(s) for s in ctx.splits[corpus][0].sequences[: ctx.cfgs[ARCHS[0]].batch_size]]
    loss, _ = batch_loss(model, batch)
    checks.check_padding_invariance(loss.item(), _own_logits(model, batch), batch)


def check_cells(ctx: Context, rnd: Round) -> dict:
    """Checks of one cells round; returns the positions generation ran per architecture."""
    positions = dict.fromkeys(ARCHS, 0)
    for corpus, arch, seed, model, train_set, val_set, report in rnd.cells:
        cfg, dataset = ctx.cfgs[arch], ctx.datasets[corpus]
        _check_split(ctx, corpus, train_set)
        _check_padding(ctx, corpus, model)
        checks.check_perplexity(report.perplexity, _own_logits(model, val_set.sequences), val_set.sequences)
        checks.check_metric_bounds(report)
        # regenerate every sample: its text must match the report, and greedy
        # tokens must be the argmax of one forward pass over the whole output
        rng = Rng(derive_seed(seed, "decode", arch, corpus))
        for (prompt, _, prompt_ids), sample in zip(ctx.prompts(corpus), report.samples):
            max_new = max(0, dataset.max_words - len(prompt))
            ids = qmodels.generate(model, prompt_ids, max_new=max_new, mode=cfg.decode,
                                   temperature=cfg.temperature, rng=rng, eos_id=EOS_ID)
            checks.check_identical(" ".join(dataset.vocab.decode_tokens(ids)), sample.output,
                                   f"{arch}/{corpus} generated text")
            emitted = len(ids) - len(prompt_ids)
            stopped = emitted < max_new and len(ids) < model.config.max_seq_len
            positions[arch] += generation_positions(len(prompt_ids), emitted, stopped)
            if cfg.decode == "greedy":
                checks.check_greedy(model.logits(ids).data, ids, len(prompt_ids), stopped, EOS_ID)
    out = ctx.out_dir
    checks.check_tables((out / "results_overall.csv").read_text(encoding="utf-8"),
                        {c: (out / f"results_{c}.csv").read_text(encoding="utf-8") for c in ctx.workload.corpora})
    return positions


def check_decode(ctx: Context, rnd: Round):
    for corpus, arch, seed, model, train_set, restored, ppl, greedy, sampled in rnd.cells:
        dataset = ctx.datasets[corpus]
        length = restored.config.max_seq_len
        _check_split(ctx, corpus, train_set)
        _check_padding(ctx, corpus, model)
        checks.check_checkpoint(model.state_arrays(), restored.state_arrays())
        checks.check_perplexity(ppl, _own_logits(restored, dataset.sequences), dataset.sequences)
        prompts = ctx.prompts(corpus)
        scored = []
        for (prompt, words, prompt_ids), ids in zip(prompts, greedy):
            checks.check_length(ids, length, f"{arch}/{corpus} greedy")
            checks.check_greedy(restored.logits(ids).data, ids, len(prompt_ids), False, EOS_ID)
            scored.append(qmetrics.score_sample(prompt, words, dataset.vocab.decode_tokens(ids)))
        checks.check_metric_bounds(qmetrics.aggregate_report(arch, corpus, ppl, scored))
        for ids in sampled:
            checks.check_length(ids, length, f"{arch}/{corpus} sampled")
        first = prompts[0][2]
        again = qmodels.generate(restored, first, max_new=length - len(first), mode="sample",
                                 temperature=ctx.cfgs[arch].temperature, rng=sample_rng(ctx, arch, corpus),
                                 eos_id=NO_EOS)
        checks.check_identical(again, sampled[0], f"{arch}/{corpus} sampled generation")


def _tape_derivative(model, batch, direction: dict) -> float:
    params = model.parameters()
    for p in params.values():
        p.zero_grad()
    with ComputationRecord() as rec:
        loss, _ = batch_loss(model, batch)
        rec.backward(loss)
    tape = math.fsum(float((params[n].grad * d).sum()) for n, d in direction.items()
                     if params[n].grad is not None)
    for p in params.values():
        p.zero_grad()
    return tape


def _finite_difference(model, batch, direction: dict, eps: float) -> float:
    params = model.parameters()
    base = {n: params[n].data.copy() for n in direction}

    def loss_at(step):
        for n, d in direction.items():
            params[n].data[...] = base[n] + step * d
        return batch_loss(model, batch)[0].item()

    try:
        return (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)
    finally:
        for n in direction:
            params[n].data[...] = base[n]


def check_gradients(ctx: Context):
    """Tape vs central finite differences on a fresh model per architecture.

    A finite difference is only valid on one smooth piece of the loss (ReLU
    and log(relu(.) + eps) have kinks).  When tape and FD disagree, the FD
    is repeated at half the step: if the two FDs disagree as well, the step
    straddled a kink and the direction is redrawn (at most twice); if they
    agree, the tape gradient is wrong.
    """
    corpus = ctx.workload.corpora[0]
    batch = [list(s) for s in ctx.splits[corpus][0].sequences[:GRAD_BATCH]]
    gen = np.random.default_rng(ctx.seed)
    for arch in ARCHS:
        model = build_model(model_config_for(arch, ctx.datasets[corpus], ctx.cfgs[arch],
                                             cell_seed(ctx.seed, corpus, arch)))
        groups = {"all parameters": (list(model.params), checks.GRAD_RTOL)}
        circuit = [n for n in model.params if "theta" in n]
        if circuit:
            groups["circuit angles"] = (circuit, checks.GRAD_RTOL_SMOOTH)
        for label, (names, rtol) in groups.items():
            for attempt in range(3):
                direction = {n: gen.standard_normal(model.params[n].shape) for n in names}
                norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
                direction = {n: d / norm for n, d in direction.items()}
                tape = _tape_derivative(model, batch, direction)
                fd = _finite_difference(model, batch, direction, GRAD_EPS)
                try:
                    checks.check_gradient(tape, fd, rtol, f"{arch} gradient along {label}")
                    break
                except checks.CheckError:
                    fd_half = _finite_difference(model, batch, direction, GRAD_EPS / 2.0)
                    if attempt == 2 or abs(fd - fd_half) <= 1e-7 * max(1.0, abs(fd)):
                        raise


def check_statevectors(ctx: Context):
    """vqc_forward against dense unitaries on the QASA and QRWKV circuit specs."""
    corpus = ctx.workload.corpora[0]
    gen = np.random.default_rng(ctx.seed + 1)
    for arch in ("qasa", "qrwkv"):
        model = build_model(model_config_for(arch, ctx.datasets[corpus], ctx.cfgs[arch], 0))
        spec = model.spec if arch == "qasa" else model.layers[0].spec
        width = model.config.head_dim if arch == "qasa" else 2 ** spec.n_qubits
        for i in range(3):
            params = gen.uniform(-math.pi, math.pi, spec.n_params)
            x = gen.standard_normal(width)
            readout = vqc_forward(spec, Tensor(params), Tensor(x)).data
            checks.check_statevector(readout, spec, params, x, f"{arch} circuit, input {i}")


# -- measuring ------------------------------------------------------------------

def run_rounds(ctx: Context, seconds: float, tally: Tally) -> list:
    """Whole rounds until the next one would mostly overrun ``seconds`` (at least one)."""
    round_fn = cells_round if ctx.workload.kind == "cells" else decode_round
    rounds = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rnd = round_fn(ctx, tally, keep=not rounds)  # only the first round's artifacts are checked
        rnd.span = (t0, time.perf_counter())
        rounds.append(rnd)
        if rnd.span[1] - started + 0.5 * (rnd.span[1] - t0) >= seconds:
            return rounds


def to_reference(probe: SpeedProbe, rounds: list):
    """Round walls and call times in reference seconds (see speed.py)."""
    for rnd in rounds:
        rnd.wall = probe.reference_seconds(*rnd.span)
        rnd.seconds = {bucket: math.fsum(probe.reference_seconds(a, b) for a, b in spans)
                       for bucket, spans in rnd.intervals.items()}


def check_run(ctx: Context, rounds: list) -> tuple:
    """Every output check; returns (failure messages, positions generation ran per arch)."""
    failures = []
    first = rounds[0]

    def guarded(label, fn, *args):
        try:
            return fn(*args)
        except Exception as err:  # a check failure or a program fault inside a check
            failures.append(f"{label}: {type(err).__name__}: {err}")
            return None

    if ctx.workload.kind == "cells":
        # generation lengths come from regenerating round 1's samples
        generated = guarded("cells", check_cells, ctx, first) or dict.fromkeys(ARCHS, 0)
    else:
        generated = decode_generation_positions(ctx)
        guarded("decode", check_decode, ctx, first)
    guarded("gradient", check_gradients, ctx)
    guarded("statevector", check_statevectors, ctx)
    for i, rnd in enumerate(rounds[1:], start=2):
        guarded(f"round {i}", checks.check_identical, rnd.fingerprint, first.fingerprint,
                f"round {i} outputs against round 1")
    return failures, generated


def eval_positions(ctx: Context) -> int:
    """Target positions ``perplexity`` scores in one round, per architecture."""
    if ctx.workload.kind == "cells":
        seqs = [s for c in ctx.workload.corpora for s in ctx.splits[c][1].sequences]
    else:
        seqs = [s for c in ctx.workload.corpora for s in ctx.datasets[c].sequences]
    return sum(len(s) - 1 for s in seqs)


def end_to_end(ctx: Context, rounds: list, generated: dict) -> dict:
    import resource

    metrics = {
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    trained, scored = ctx.train_tokens(), eval_positions(ctx)
    for arch in ARCHS:
        metrics[f"train_tok_per_s.{arch}"] = (
            statistics.median(trained[arch] / r.seconds[f"train.{arch}"] for r in rounds), "tok/s")
    for arch in ARCHS:
        metrics[f"eval_tok_per_s.{arch}"] = (
            statistics.median((scored + generated[arch]) / r.seconds[f"eval.{arch}"] for r in rounds), "tok/s")
    return metrics


# Tape op kinds reported one by one: every kind the five models record.
OP_KINDS = ("add", "concat", "cos", "cross_entropy", "div", "embedding_lookup", "exp", "gelu",
            "interleave_columns", "layer_norm", "log", "masked_softmax_rows", "matmul", "mul", "neg",
            "reduce_sum", "relu", "reshape", "sigmoid", "sin", "stack_rows", "sub", "take", "transpose",
            "vqc_forward")


def per_layer(ctx: Context, tracer: Tracer, traced: list, plain: list) -> dict:
    """Per-layer metrics from the traced rounds, each a mean per round."""
    n = len(traced)
    sec, cnt = tracer.seconds, tracer.counts
    trained = ctx.train_tokens()
    m = {"corpus.synth_s": (ctx.synth_s, "s")}

    def ratio(a, b):
        return a / b if b else 0.0

    for op in OP_KINDS:
        m[f"numerics.nodes.{op}"] = (cnt[f"nodes.{op}"] / n, "count")
    for arch in ARCHS:
        m[f"numerics.nodes_per_token.{arch}"] = (ratio(cnt[f"nodes_arch.{arch}"] / n, trained[arch]), "count/tok")
    m["numerics.backward_s"] = (sec["numerics.backward_s"] / n, "s")
    for op in OP_KINDS:
        m[f"numerics.backward_s.{op}"] = (sec[f"backward.{op}"] / n, "s")
    m["numerics.adam_s"] = (sec["numerics.adam_s"] / n, "s")
    m["qsim.forward_calls"] = (cnt["qsim.forward_calls"] / n, "count")
    m["qsim.forward_rows"] = (cnt["qsim.forward_rows"] / n, "count")
    m["qsim.forward_s"] = (sec["qsim.forward_s"] / n, "s")
    m["qsim.adjoint_s"] = (sec["qsim.adjoint_s"] / n, "s")
    for arch in ARCHS:
        p = f"models.{arch}"
        m[f"{p}.positions"] = (cnt[f"positions.{arch}"] / n, "count")
        m[f"{p}.forward_s.train"] = (sec[f"{p}.forward_s.train"] / n, "s")
        m[f"{p}.forward_s.infer"] = (sec[f"{p}.forward_s.infer"] / n, "s")
        m[f"{p}.useful_ratio.train"] = (ratio(cnt[f"nonpad.batch_loss.{arch}"],
                                              cnt[f"positions.batch_loss.{arch}"]), "ratio")
        m[f"{p}.useful_ratio.decode"] = (ratio(cnt[f"emitted.{arch}"], cnt[f"positions.generate.{arch}"]), "ratio")
    m["metrics.perplexity_s"] = (sec["metrics.perplexity_s"] / n, "s")
    m["metrics.score_s"] = (sec["metrics.score_s"] / n, "s")
    for arch in ARCHS:
        m[f"harness.epoch_s.{arch}"] = (ratio(sec[f"harness.fit_s.{arch}"], cnt[f"epochs.{arch}"]), "s")
    for phase in ("batch_loss", "validation", "evaluate", "generate"):
        for arch in ARCHS:
            m[f"harness.{phase}_s.{arch}"] = (sec[f"harness.{phase}_s.{arch}"] / n, "s")
    m["harness.write_tables_s"] = (sec["harness.write_tables_s"] / n, "s")
    m["harness.checkpoint_save_s"] = (sec["harness.checkpoint_save_s"] / n, "s")
    m["harness.checkpoint_load_s"] = (sec["harness.checkpoint_load_s"] / n, "s")
    m["harness.checkpoint_bytes"] = (cnt["checkpoint_bytes"] / n, "bytes")
    m["trace.overhead_s"] = (statistics.median(r.wall for r in traced) - plain[0].wall, "s")
    return {name: (None if tracer.is_missing(name) else value, unit) for name, (value, unit) in m.items()}


def predicted_rows(ctx: Context, tracer: Tracer, n_rounds: int) -> int:
    """Statevector rows implied by the positions the hybrid models ran."""
    dataset = ctx.datasets[ctx.workload.corpora[0]]
    qasa = model_config_for("qasa", dataset, ctx.cfgs["qasa"], 0)
    qrwkv = model_config_for("qrwkv", dataset, ctx.cfgs["qrwkv"], 0)
    return (tracer.counts["positions.qasa"] * 3 * qasa.n_heads
            + tracer.counts["positions.qrwkv"] * qrwkv.n_blocks) // n_rounds


def run(ctx: Context, seconds: float, traced: bool, probe: SpeedProbe) -> dict:
    """Measure, check, and return the result object (without set-up time).

    ``probe`` has been running since set-up; it is stopped after the rounds.
    """
    tally = Tally()
    if traced:
        tracer = Tracer()
        try:
            plain = run_rounds(ctx, 0, tally)  # one untraced round: the overhead's baseline
            tracer.install()
            try:
                rounds = run_rounds(ctx, seconds, tally)
            finally:
                tracer.uninstall()
        finally:
            probe.stop()
        to_reference(probe, plain + rounds)
        tracer.write(ctx.out_dir / "trace")
        failures, _ = check_run(ctx, plain + rounds)
        metrics = per_layer(ctx, tracer, rounds, plain)
        if not any(tracer.is_missing(name) for name in ("qsim.forward_rows", "models.qasa.positions",
                                                        "models.qrwkv.positions")):
            try:
                checks.check_forward_rows(tracer.counts["qsim.forward_rows"] // len(rounds),
                                          predicted_rows(ctx, tracer, len(rounds)))
            except checks.CheckError as err:
                failures.append(f"trace: {err}")
        notes = {"missing_hooks": tracer.missing,
                 "unlisted_op_kinds": sorted({k[6:] for k in tracer.counts if k.startswith("nodes.")} - set(OP_KINDS))}
        rounds = plain + rounds
    else:
        try:
            rounds = run_rounds(ctx, seconds, tally)
        finally:
            probe.stop()
        to_reference(probe, rounds)
        failures, generated = check_run(ctx, rounds)
        metrics = end_to_end(ctx, rounds, generated)
        notes = {}
    notes.update(rounds=len(rounds), round_walls=[r.wall for r in rounds],
                 raw_round_walls=[r.span[1] - r.span[0] for r in rounds], failures=failures,
                 errors=tally.errors)
    return {"correct": not failures, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "notes": notes}
