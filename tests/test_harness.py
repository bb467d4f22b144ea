"""Training loop, early stopping, checkpoints, evaluation, benchmark plumbing."""

import json
import math
import os
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qtextgen.corpus import Subset, synthesize_datasets, train_val_split
from qtextgen.harness import (
    RunConfig,
    benchmark_matrix,
    cell_seed,
    evaluate_model,
    fit,
    load_checkpoint,
    load_config,
    model_config_for,
    prompt_tokens,
    restore_model,
    run_cell,
    save_checkpoint,
    train_on_dataset,
    write_tables,
)
from qtextgen.harness.benchmark import BenchmarkResult
from qtextgen.harness.train import batch_loss, validation_loss
from qtextgen.metrics import aggregate_report, perplexity, score_sample
from qtextgen.models import ARCHITECTURES, build_model, default_config
from qtextgen.numerics import ComputationRecord, Rng, cross_entropy


def _dataset(name="proverbs", seed=42):
    return synthesize_datasets(seed)[name]


def _quick_cfg(**kw):
    defaults = dict(epochs=2, batch_size=4, out_dir="unused")
    defaults.update(kw)
    return RunConfig(**defaults)


class TestFit:
    def test_single_epoch_logs_one_entry(self):
        ds = _dataset()
        cfg = _quick_cfg(epochs=1)
        model, log, _ = train_on_dataset("mlp", ds, cfg)
        assert len(log.train_losses) == 1
        assert len(log.val_losses) == 1
        assert log.stop_reason == "completed"

    def test_identical_seed_identical_trajectory(self):
        ds = _dataset()
        cfg = _quick_cfg(epochs=3)
        _, log_a, _ = train_on_dataset("mlp", ds, cfg)
        _, log_b, _ = train_on_dataset("mlp", ds, cfg)
        assert log_a.train_losses == log_b.train_losses
        assert log_a.val_losses == log_b.val_losses
        assert log_a.stop_reason == log_b.stop_reason

    def test_training_reduces_loss(self):
        ds = _dataset("simple_sentences")
        cfg = _quick_cfg(epochs=8)
        _, log, _ = train_on_dataset("mlp", ds, cfg)
        assert log.train_losses[-1] < log.train_losses[0]

    def test_retained_model_scores_best_logged_validation(self):
        ds = _dataset()
        cfg = _quick_cfg(epochs=6)
        model, log, (_, val) = train_on_dataset("mlp", ds, cfg)
        retained = math.log(perplexity(model, val.sequences))
        assert retained == pytest.approx(min(log.val_losses), abs=1e-9)
        assert log.best_val_loss == pytest.approx(min(log.val_losses), abs=1e-12)

    def test_every_forward_runs_one_unpadded_sequence(self):
        ds = _dataset("short_stories")
        cfg = _quick_cfg(epochs=2)
        train, val = train_val_split(ds, cfg.train_fraction, seed=cfg.seed)
        model = build_model(model_config_for("mlp", ds, cfg, seed=0))
        inputs = Counter()
        forward = model.logits

        def logits(ids):
            inputs[tuple(ids)] += 1
            return forward(ids)

        model.logits = logits
        log = fit(model, train.sequences, val.sequences, cfg, Rng(0))
        assert len(log.train_losses) == 2
        want = Counter()
        for seq in [*train.sequences, *val.sequences]:
            want[tuple(seq[:-1])] += 2
        assert inputs == want

    def test_validation_loss_is_log_perplexity(self):
        model, _, (_, val) = train_on_dataset("mlp", _dataset(), _quick_cfg(epochs=1))
        loss = validation_loss(model, val.sequences)
        assert loss == pytest.approx(math.log(perplexity(model, val.sequences)), rel=1e-14)

    def test_early_stopping_triggers_with_patience_one(self):
        ds = _dataset()
        # Adam steps of ~1e-12 cannot improve by min_delta: first epoch sets the best, the next stops
        cfg = _quick_cfg(epochs=30, patience=1, learning_rate=1e-12)
        _, log, _ = train_on_dataset("mlp", ds, cfg)
        assert log.stop_reason == "early-stopped at epoch 2"
        assert len(log.val_losses) == 2

    def test_one_repeated_sentence_memorized_to_floor(self):
        # a corpus of one sentence repeated: perplexity collapses toward 1
        ds = _dataset("simple_sentences")
        seq = ds.sequences[0]
        seqs = [seq] * 4
        cfg = _quick_cfg(epochs=200, patience=200)
        model = build_model(model_config_for("mlp", ds, cfg, seed=2))
        fit(model, seqs, seqs, cfg, Rng(1))
        assert perplexity(model, [seq]) < 1.1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_reports_context(self):
        ds = _dataset()
        model = build_model(model_config_for("mlp", ds, _quick_cfg(), seed=0))
        for p in model.parameters().values():
            p.data[...] = 1e308  # force overflow
        train, val = train_val_split(ds, 0.8)
        with pytest.raises(RuntimeError, match="epoch 1, batch 0"):
            fit(model, train.sequences, val.sequences, _quick_cfg(), Rng(0))


_VOCAB = 11


@lru_cache(maxsize=None)
def _small_model(arch):
    return build_model(default_config(arch, vocab_size=_VOCAB, max_seq_len=9, seed=5))


def _param_grads(model, loss):
    for t in model.params.values():
        t.zero_grad()
    with ComputationRecord() as rec:
        rec.backward(loss())
    return {name: np.zeros_like(t.data) if t.grad is None else t.grad for name, t in model.params.items()}


class TestBatchLoss:
    @given(arch=st.sampled_from(ARCHITECTURES),
           batch=st.lists(st.lists(st.integers(0, _VOCAB - 1), min_size=1, max_size=9), min_size=1, max_size=5))
    def test_equals_token_weighted_mean_of_sequence_losses(self, arch, batch):
        scored = [seq for seq in batch if len(seq) >= 2]
        assume(scored)
        model = _small_model(arch)
        n_total = sum(len(seq) - 1 for seq in scored)

        def reference():
            total = None
            for seq in scored:
                term = cross_entropy(model.logits(seq[:-1]), seq[1:]) * ((len(seq) - 1) / n_total)
                total = term if total is None else total + term
            return total

        loss, tokens = batch_loss(model, batch)
        assert tokens == n_total
        assert loss.item() == pytest.approx(reference().item(), rel=1e-12)
        got = _param_grads(model, lambda: batch_loss(model, batch)[0])
        want = _param_grads(model, reference)
        scale = max(float(np.abs(g).max()) for g in want.values())
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12 * scale, err_msg=name)

    def test_needs_one_scored_sequence(self):
        with pytest.raises(ValueError):
            batch_loss(_small_model("mlp"), [[3], [4]])


class TestEvaluate:
    def test_prompt_is_leading_quarter_min_one(self):
        assert prompt_tokens(["a"]) == ["a"]
        assert prompt_tokens(["a", "b", "c", "d"]) == ["a"]
        assert prompt_tokens(["a", "b", "c", "d", "e"]) == ["a", "b"]
        assert prompt_tokens(list("abcdefgh")) == ["a", "b"]

    def test_untrained_model_perplexity_near_vocab_size(self):
        ds = _dataset("simple_sentences")
        model = build_model(model_config_for("mlp", ds, _quick_cfg(), seed=3))
        # squash the output layer so logits are almost uniform
        model.w_2.data[...] *= 0.0
        model.b_2.data[...] = 0.0
        ppl = perplexity(model, ds.sequences)
        assert abs(ppl - len(ds.vocab)) / len(ds.vocab) < 0.05

    def test_report_shape_and_bounds(self):
        ds = _dataset()
        cfg = _quick_cfg(epochs=1)
        model, _, (_, val) = train_on_dataset("mlp", ds, cfg)
        report = evaluate_model(model, val, ds)
        assert report.model == "MLP"
        assert report.dataset == "proverbs"
        assert report.perplexity >= 1.0
        assert len(report.samples) == len(val.texts)
        for value in (*report.bleu, *report.distinct, report.repetition_rate):
            assert 0.0 <= value <= 1.0

    def test_outputs_respect_dataset_max_length(self):
        ds = _dataset()
        cfg = _quick_cfg(epochs=1)
        model, _, (_, val) = train_on_dataset("mlp", ds, cfg)
        report = evaluate_model(model, val, ds)
        for sample in report.samples:
            assert len(sample.output.split()) <= ds.max_words

    def test_sampling_decode_is_seed_deterministic(self):
        ds = _dataset()
        cfg = _quick_cfg(epochs=1)
        model, _, (_, val) = train_on_dataset("mlp", ds, cfg)
        a = evaluate_model(model, val, ds, decode="sample", temperature=0.8, rng=Rng(5))
        b = evaluate_model(model, val, ds, decode="sample", temperature=0.8, rng=Rng(5))
        assert [s.output for s in a.samples] == [s.output for s in b.samples]


class TestCheckpoint:
    def test_round_trip_restores_bits(self, tmp_path):
        ds = _dataset()
        cfg = _quick_cfg(epochs=1)
        model, log, _ = train_on_dataset("qasa", ds, cfg)
        path = save_checkpoint(tmp_path / "m.ckpt.json", model, epoch=3)
        payload = load_checkpoint(path)
        clone = restore_model(payload)
        assert payload["epoch"] == 3
        for name, p in model.params.items():
            np.testing.assert_array_equal(clone.params[name].data, p.data)
        ids = [1, 4, 2]
        np.testing.assert_array_equal(clone.logits(ids).data, model.logits(ids).data)

    def test_transposed_parameter_rejected(self):
        model = _small_model("mlp")
        arrays = model.state_arrays()
        arrays["w_2"] = arrays["w_2"].T
        with pytest.raises(ValueError, match="w_2"):
            build_model(model.config).load_state_arrays(arrays)

    def test_unknown_parameter_rejected(self):
        model = _small_model("mlp")
        arrays = {**model.state_arrays(), "not_a_param": np.zeros(3)}
        with pytest.raises(ValueError, match="not_a_param"):
            build_model(model.config).load_state_arrays(arrays)

    def test_version_gate(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)


class TestAtomicWrites:
    def test_failed_rename_leaves_checkpoint_and_tables(self, tmp_path, monkeypatch):
        model = _small_model("mlp")
        ckpt = save_checkpoint(tmp_path / "m.ckpt.json", model)
        cfg = _quick_cfg(out_dir=str(tmp_path), datasets=("proverbs",), models=("mlp",))
        report = aggregate_report("MLP", "proverbs", 12.5, [score_sample(["a"], ["b", "c"], ["b", "d"])])
        tables = write_tables(BenchmarkResult(reports=[report]), cfg)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        def fail(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(os, "replace", fail)
        model.params["w_2"].data[...] += 1.0
        with pytest.raises(OSError, match="simulated"):
            save_checkpoint(ckpt, model)
        with pytest.raises(OSError, match="simulated"):
            write_tables(BenchmarkResult(reports=[replace(report, perplexity=99.0)]), cfg)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
        assert {p.name for p in tables} <= set(before)


class TestRunConfig:
    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown datasets"):
            RunConfig(datasets=("nope",))

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown models"):
            RunConfig(models=("gpt",))

    def test_json_round_trip(self, tmp_path):
        cfg = RunConfig(epochs=3, seed=9, model_overrides={"mlp": {"d_ff": 32}})
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        loaded = load_config(path)
        assert loaded.epochs == 3 and loaded.seed == 9
        assert loaded.model_overrides == {"mlp": {"d_ff": 32}}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"epoch": 3}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(path)

    def test_overrides_reach_model_config(self):
        ds = _dataset()
        cfg = _quick_cfg(model_overrides={"mlp": {"d_ff": 24}})
        assert model_config_for("mlp", ds, cfg, seed=0).d_ff == 24

    @pytest.mark.parametrize("kw", [
        {"learning_rate": -1.0},
        {"learning_rate": 0.0},
        {"beta1": 1.5},
        {"beta1": -0.1},
        {"beta2": 1.0},
        {"adam_eps": 0.0},
    ])
    def test_bad_optimizer_values_rejected(self, kw):
        with pytest.raises(ValueError, match="must"):
            RunConfig(**kw)

    @pytest.mark.parametrize("key", ["d_modle", "arch", "vocab_size", "seed"])
    def test_bad_override_keys_rejected(self, key):
        with pytest.raises(ValueError, match=key):
            RunConfig(model_overrides={"mlp": {key: 8}})

    def test_max_seq_len_override_allowed(self):
        assert RunConfig(model_overrides={"qasa": {"max_seq_len": 30}}).model_overrides["qasa"]["max_seq_len"] == 30


class TestBenchmarkPlumbing:
    def test_cell_results_do_not_depend_on_other_cells(self, tmp_path):
        reports = []
        for models in (("mlp",), ("transformer", "mlp")):
            cfg = RunConfig(epochs=1, datasets=("proverbs",), models=models, out_dir=str(tmp_path / "_".join(models)))
            result = benchmark_matrix(cfg)
            reports.append([r.as_dict() for r in result.reports if r.model == "MLP"])
        assert len(reports[0]) == 1
        assert reports[0] == reports[1]

    def test_cell_seed_depends_on_dataset_and_arch_only(self):
        seeds = {cell_seed(42, d, a) for d in ("proverbs", "haiku") for a in ("mlp", "qasa")}
        assert len(seeds) == 4
        assert cell_seed(42, "proverbs", "mlp") == cell_seed(42, "proverbs", "mlp") != cell_seed(43, "proverbs", "mlp")

    def test_run_cell_produces_report_and_log(self):
        ds = _dataset()
        cfg = _quick_cfg(epochs=1)
        _, log, report = run_cell("mlp", ds, cfg, cell_seed=7)
        assert report.dataset == "proverbs"
        assert len(log.train_losses) == 1

    def test_write_tables_column_headers(self, tmp_path):
        ds = _dataset()
        cfg = _quick_cfg(epochs=1, out_dir=str(tmp_path), datasets=("proverbs",), models=("mlp", "transformer"))
        result = BenchmarkResult()
        for i, arch in enumerate(cfg.models):
            _, log, report = run_cell(arch, ds, cfg, cell_seed=i)
            result.reports.append(report)
            result.logs[("proverbs", arch)] = log
        files = write_tables(result, cfg)
        per_dataset = (tmp_path / "results_proverbs.csv").read_text().splitlines()
        assert per_dataset[0] == "Model,Perplexity,BLEU-1,BLEU-2,Distinct-1,Repetition Rate"
        overall = (tmp_path / "results_overall.csv").read_text().splitlines()
        assert overall[0] == "Model,Perplexity,BLEU-1,Distinct-1,Repetition Rate"
        assert (tmp_path / "reports.json").exists()
        assert (tmp_path / "train_logs.json").exists()
        names = {p.name for p in files}
        assert "results_overall.csv" in names
