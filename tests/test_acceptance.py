"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria (run `pytest tests/test_acceptance.py -v` to see one line each in
the terminal summary):

1. gradient suite across all five architectures (d=8, h=2, 3 tokens)
2. quantum oracle triangle (dense unitary, parameter shift, norm drift)
3. kernel-attention algebra (product form, PSD Gram matrix)
4. metric fixtures (BLEU, perplexity, repetition, distinct)
5. overfit oracle (memorize 5 sentences, regenerate them)
6. benchmark reproduction-in-form (tables, bounds, byte-identical reruns)
7. causality property (1000 suffix-perturbation trials)
8. corpus statistics (sample counts, lengths, vocabulary, references)
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from qtextgen.corpus import BOS_ID, EOS_ID, REFERENCE_SENTENCES, synthesize_datasets, tokenize
from qtextgen.harness import RunConfig, benchmark_matrix, fit, model_config_for
from qtextgen.harness.evaluate import prompt_tokens
from qtextgen.metrics import bleu_n, distinct_n, perplexity, repetition_rate
from qtextgen.models import ARCHITECTURES, build_model, default_config, generate
from qtextgen.numerics import ComputationRecord, Rng, Tensor, derive_seed, masked_softmax_rows
from qtextgen.qsim import amplitude_encode, param_shift_grad, run_circuit, vqc_forward
from oracles import dense_unitary, model_grad_check, random_circuit

TABLE_TARGETS = {
    "simple_sentences": (50, 5.2, 45, 7),
    "short_stories": (25, 12.8, 78, 18),
    "quantum_phrases": (30, 8.4, 62, 12),
    "haiku": (20, 17.0, 89, 17),
    "proverbs": (15, 6.8, 52, 9),
}


def test_criterion_1_gradient_suite(acceptance):
    """Every architecture's full-parameter gradients match finite differences."""
    started = time.time()
    worst = {}
    for arch in ARCHITECTURES:
        cfg = default_config(arch, vocab_size=11, max_seq_len=8, seed=2,
                             d_model=8, n_heads=2, d_ff=16, n_blocks=1, quantum_features=8)
        model = build_model(cfg)
        worst[arch] = model_grad_check(model, [1, 4, 6], [4, 6, 2])
    elapsed = time.time() - started
    passed = max(worst.values()) < 1e-4 and elapsed < 120.0
    acceptance("1 gradient suite", passed,
               f"max rel err {max(worst.values()):.2e}, {elapsed:.0f}s")
    assert max(worst.values()) < 1e-4, worst
    assert elapsed < 120.0


def test_criterion_2_quantum_oracle_triangle(acceptance):
    """50 random circuits: dense-unitary equality, shift-rule gradients, norm drift."""
    rng = np.random.default_rng(7)
    worst_amp, worst_grad, worst_norm = 0.0, 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        spec, n_params = random_circuit(rng, n, n_gates=int(rng.integers(6, 16)))
        params = rng.uniform(0, 2 * math.pi, n_params)
        x = rng.uniform(-1, 1, 2 ** n)
        state = run_circuit(spec, params, amplitude_encode(x, n)[None])[-1][0]
        expected = dense_unitary(spec, params) @ amplitude_encode(x, n)
        worst_amp = max(worst_amp, float(np.max(np.abs(state - expected))))
        worst_norm = max(worst_norm, abs(float(np.sum(np.abs(state) ** 2)) - 1.0))
        if n_params:
            k = int(rng.integers(n))
            pt, xt = Tensor(params), Tensor(x)
            with ComputationRecord() as rec:
                out = vqc_forward(spec, pt, xt)
                rec.backward(out[k])
            shift = param_shift_grad(spec, params, x, k)
            worst_grad = max(worst_grad, float(np.max(np.abs(pt.grad - shift))))
    passed = worst_amp < 1e-10 and worst_grad < 1e-8 and worst_norm < 1e-12
    acceptance("2 quantum oracle triangle", passed,
               f"amp {worst_amp:.1e}, grad {worst_grad:.1e}, norm {worst_norm:.1e}")
    assert worst_amp < 1e-10
    assert worst_grad < 1e-8
    assert worst_norm < 1e-12


def test_criterion_3_kernel_attention_algebra(acceptance):
    """Log-combined softmax equals the normalized product form; Gram PSD."""
    rng = np.random.default_rng(11)
    eps = 1e-6
    worst_eq, min_eig = 0.0, math.inf
    for trial in range(100):
        model = build_model(default_config("qksan", vocab_size=11, max_seq_len=8, seed=trial,
                                           d_model=8, n_heads=2, d_ff=16, n_blocks=1, quantum_features=6))
        head = model.blocks[0].heads[0]
        x = rng.normal(size=(4, 8))
        q = x @ head.w_q.data + head.b_q.data
        k = x @ head.w_k.data + head.b_k.data
        s = q @ k.T / math.sqrt(head.dh)
        sigma = math.exp(float(head.log_sigma.data))

        def phi(z):
            env = np.exp(-((z - head.mu.data) ** 2).sum(axis=1, keepdims=True) / (2 * sigma ** 2))
            return env * np.cos(z @ head.omega.data.T + head.b_phase.data)

        gamma = phi(q) @ phi(k).T
        a_log = masked_softmax_rows(Tensor(s + np.log(np.maximum(gamma, 0.0) + eps)), causal=True).data
        for i in range(4):
            row = np.exp(s[i, : i + 1] - s[i, : i + 1].max()) * (np.maximum(gamma[i, : i + 1], 0.0) + eps)
            prod = np.zeros(4)
            prod[: i + 1] = row / row.sum()
            worst_eq = max(worst_eq, float(np.max(np.abs(a_log[i] - prod))))
        gram = phi(q) @ phi(q).T
        min_eig = min(min_eig, float(np.linalg.eigvalsh(gram).min()))
    passed = worst_eq < 1e-10 and min_eig >= -1e-8
    acceptance("3 kernel-attention algebra", passed, f"eq {worst_eq:.1e}, min eig {min_eig:.1e}")
    assert worst_eq < 1e-10
    assert min_eig >= -1e-8


def test_criterion_4_metric_fixtures(acceptance):
    """Frozen metric values, including the vocabulary-45 uniform perplexity."""
    checks = []
    cand = "birds sings on the table".split()
    ref = "birds fly in the sky".split()
    checks.append(bleu_n(cand, ref, 1) == 0.4)
    pair = "actions speak louder than words".split()
    checks.append(bleu_n(pair, pair, 1) == 1.0)

    vocab_size = len(synthesize_datasets(42)["simple_sentences"].vocab)

    class Uniform:
        def logits(self, ids):
            return Tensor(np.zeros((len(ids), vocab_size)))

    ppl = perplexity(Uniform(), [(1, 5, 9, 2, 7)])
    checks.append(vocab_size == 45 and abs(ppl - 45.0) < 1e-9)
    checks.append(repetition_rate(["a", "a", "b"]) == 0.5)
    checks.append(distinct_n(["the", "the", "cat"], 1) == 2.0 / 3.0)
    acceptance("4 metric fixtures", all(checks), f"ppl(uniform)={ppl:.12f}")
    assert all(checks), checks


def test_criterion_5_overfit_oracle(acceptance):
    """Every architecture memorizes a 5-sample subset and regenerates it."""
    ds = synthesize_datasets(42)["simple_sentences"]
    subset_texts, subset_seqs = ds.texts[:5], list(ds.sequences[:5])
    cfg = RunConfig(epochs=200, patience=200, batch_size=8)
    results = {}
    for arch in ARCHITECTURES:
        started = time.time()
        model = build_model(model_config_for(arch, ds, cfg, seed=1))
        fit(model, subset_seqs, subset_seqs, cfg, Rng(derive_seed(1, "overfit", arch)))
        ppl = perplexity(model, subset_seqs)
        overlaps = []
        for text in subset_texts:
            words = tokenize(text)
            prompt = prompt_tokens(words)
            ids = [BOS_ID, *ds.vocab.encode_tokens(prompt)]
            out = generate(model, ids, max_new=ds.max_words - len(prompt), eos_id=EOS_ID)
            overlaps.append(bleu_n(ds.vocab.decode_tokens(out), words, 1))
        elapsed = time.time() - started
        results[arch] = (ppl, min(overlaps), elapsed)
    passed = all(p < 2.0 and o >= 0.6 and t < 300.0 for p, o, t in results.values())
    detail = ", ".join(f"{a}: ppl {p:.2f} overlap {o:.2f} {t:.0f}s" for a, (p, o, t) in results.items())
    acceptance("5 overfit oracle", passed, detail)
    for arch, (ppl, overlap, elapsed) in results.items():
        assert ppl < 2.0, (arch, ppl)
        assert overlap >= 0.6, (arch, overlap)
        assert elapsed < 300.0, (arch, elapsed)


@pytest.mark.slow
def test_criterion_6_benchmark_reproduction_in_form(acceptance, tmp_path):
    """Default benchmark: table schemas, metric bounds, byte-identical reruns."""
    started = time.time()
    cfg_a = RunConfig(seed=42, out_dir=str(tmp_path / "run_a"))
    result_a = benchmark_matrix(cfg_a)
    first_run = time.time() - started
    cfg_b = RunConfig(seed=42, out_dir=str(tmp_path / "run_b"))
    result_b = benchmark_matrix(cfg_b)

    problems = []
    if result_a.errors:
        problems.append(f"cell errors: {result_a.errors}")
    if len(result_a.reports) != 25:
        problems.append(f"{len(result_a.reports)} reports")
    for r in result_a.reports:
        if not (r.perplexity >= 1.0 and math.isfinite(r.perplexity)):
            problems.append(f"perplexity {r.perplexity} in {r.model}/{r.dataset}")
        for value in (*r.bleu, *r.distinct, r.repetition_rate):
            if not 0.0 <= value <= 1.0:
                problems.append(f"rate {value} in {r.model}/{r.dataset}")
    for name in cfg_a.datasets:
        header = (Path(cfg_a.out_dir) / f"results_{name}.csv").read_text().splitlines()[0]
        if header != "Model,Perplexity,BLEU-1,BLEU-2,Distinct-1,Repetition Rate":
            problems.append(f"{name} header {header}")
    overall_lines = (Path(cfg_a.out_dir) / "results_overall.csv").read_text().splitlines()
    if overall_lines[0] != "Model,Perplexity,BLEU-1,Distinct-1,Repetition Rate":
        problems.append(f"overall header {overall_lines[0]}")
    if [line.split(",")[0] for line in overall_lines[1:]] != ["Transformer", "MLP", "QKSAN", "QASA", "QRWKV"]:
        problems.append("overall row order")
    for path_a in result_a.files:
        path_b = Path(cfg_b.out_dir) / path_a.name
        if path_a.read_bytes() != path_b.read_bytes():
            problems.append(f"{path_a.name} differs between runs")
    if first_run >= 1800.0:
        problems.append(f"first run took {first_run:.0f}s")

    acceptance("6 benchmark reproduction-in-form", not problems,
               f"{first_run:.0f}s per run" + ("; " + "; ".join(problems) if problems else ""))
    assert not problems, problems


def test_criterion_7_causality_property(acceptance):
    """1000 randomized suffix perturbations never change prefix logits."""
    rng = Rng(99)
    models = {}
    for arch in ARCHITECTURES:
        models[arch] = build_model(default_config(arch, vocab_size=11, max_seq_len=10, seed=3,
                                                  d_model=8, n_heads=2, d_ff=16, n_blocks=1,
                                                  quantum_features=6))
    trials_per_arch = 200
    violations = 0
    for arch, model in models.items():
        for _ in range(trials_per_arch):
            length = 3 + rng.randrange(5)
            ids = [1 + rng.randrange(10) for _ in range(length)]
            cut = 1 + rng.randrange(length - 1)
            changed = list(ids)
            for j in range(cut, length):
                changed[j] = 1 + rng.randrange(10)
            a = model.logits(ids).data[:cut]
            b = model.logits(changed).data[:cut]
            if not np.array_equal(a, b):
                violations += 1
    acceptance("7 causality property", violations == 0,
               f"{len(models) * trials_per_arch} trials, {violations} violations")
    assert violations == 0


def test_criterion_8_corpus_statistics(acceptance):
    """Synthesized corpora match the published statistics and references."""
    datasets = synthesize_datasets(42)
    problems = []
    for name, (samples, avg, vocab, max_len) in TABLE_TARGETS.items():
        m = datasets[name].manifest
        if m["samples"] != samples:
            problems.append(f"{name} samples {m['samples']}")
        if m["max_length_words"] != max_len:
            problems.append(f"{name} max {m['max_length_words']}")
        if abs(m["avg_length_words"] - avg) > 0.05 * avg:
            problems.append(f"{name} avg {m['avg_length_words']}")
        if abs(m["vocab_size"] - vocab) > 0.05 * vocab:
            problems.append(f"{name} vocab {m['vocab_size']}")
    for name, ref in REFERENCE_SENTENCES.items():
        ref_tokens = tokenize(ref)
        contained = any(
            tokenize(text)[i:i + len(ref_tokens)] == ref_tokens
            for text in datasets[name].texts
            for i in range(len(tokenize(text)) - len(ref_tokens) + 1)
        )
        if not contained:
            problems.append(f"{name} missing reference")
    acceptance("8 corpus statistics", not problems, "; ".join(problems) or "all exact")
    assert not problems, problems
