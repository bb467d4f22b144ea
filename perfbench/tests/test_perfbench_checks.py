"""Each output check of the benchmark passes on real program output and fails
on a deliberately corrupted copy of it.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import math

import numpy as np
import pytest

import checks
import workloads
from qtextgen.harness import BenchmarkResult, RunConfig, load_checkpoint, restore_model, save_checkpoint, write_tables
from qtextgen.harness.train import batch_loss
from qtextgen.metrics import aggregate_report, perplexity, score_sample
from qtextgen.models import build_model, default_config, generate
from qtextgen.numerics import Tensor
from qtextgen.qsim import build_qasa_circuit, build_qrwkv_circuit, vqc_forward

SEQS = [[1, 5, 6, 7, 2], [1, 8, 9, 2], [1, 5, 9, 6, 7, 8, 2]]


@pytest.fixture(scope="module", params=["mlp", "qasa"])
def model(request):
    return build_model(default_config(request.param, vocab_size=12, max_seq_len=10, seed=3))


def own_logits(model, seqs):
    return [model.logits(s[:-1]).data for s in seqs]


def perturbed(logits_list, seq_index=1, row=1, delta=1e-3):
    out = [a.copy() for a in logits_list]
    out[seq_index][row, 4] += delta
    return out


def test_padding_invariance(model):
    loss, _ = batch_loss(model, SEQS)
    logits = own_logits(model, SEQS)
    checks.check_padding_invariance(loss.item(), logits, SEQS)
    with pytest.raises(checks.CheckError):
        checks.check_padding_invariance(loss.item(), perturbed(logits), SEQS)


def test_perplexity(model):
    ppl = perplexity(model, SEQS)
    logits = own_logits(model, SEQS)
    checks.check_perplexity(ppl, logits, SEQS)
    with pytest.raises(checks.CheckError):
        checks.check_perplexity(ppl, perturbed(logits), SEQS)
    with pytest.raises(checks.CheckError):
        checks.check_perplexity(0.99, logits, SEQS)


def test_greedy(model):
    prompt = [1, 5]
    ids = generate(model, prompt, max_new=8, mode="greedy", eos_id=-1)
    assert len(ids) == 10
    logits = model.logits(ids).data
    checks.check_greedy(logits, ids, len(prompt), False, 2)
    flipped = list(ids)
    flipped[4] = (int(np.argmax(logits[3])) + 1) % logits.shape[1]
    with pytest.raises(checks.CheckError):
        checks.check_greedy(logits, flipped, len(prompt), False, 2)
    bent = logits.copy()
    bent[3, (ids[4] + 1) % logits.shape[1]] = logits[3].max() + 1e-3
    with pytest.raises(checks.CheckError):
        checks.check_greedy(bent, ids, len(prompt), False, 2)
    # a stop at EOS is only right where EOS is the argmax
    with pytest.raises(checks.CheckError):
        checks.check_greedy(logits, ids, len(prompt), True, int(np.argmin(logits[-1])))


def test_sampled_repeat(model):
    from qtextgen.numerics import Rng

    a = generate(model, [1, 5], max_new=8, mode="sample", rng=Rng(11), eos_id=-1)
    b = generate(model, [1, 5], max_new=8, mode="sample", rng=Rng(11), eos_id=-1)
    checks.check_identical(a, b, "sampled")
    with pytest.raises(checks.CheckError):
        checks.check_identical(a, a[:-1] + [(a[-1] + 1) % 12], "sampled")


def test_checkpoint(model, tmp_path):
    path = save_checkpoint(tmp_path / "m.ckpt.json", model)
    restored = restore_model(load_checkpoint(path))
    trained = model.state_arrays()
    checks.check_checkpoint(trained, restored.state_arrays())
    name = next(iter(restored.params))
    restored.params[name].data.flat[0] = np.nextafter(restored.params[name].data.flat[0], np.inf)
    with pytest.raises(checks.CheckError):
        checks.check_checkpoint(trained, restored.state_arrays())


def test_gradient(model):
    gen = np.random.default_rng(0)
    direction = {n: gen.standard_normal(p.shape) for n, p in model.params.items()}
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    direction = {n: d / norm for n, d in direction.items()}
    tape = workloads._tape_derivative(model, SEQS, direction)
    fd = workloads._finite_difference(model, SEQS, direction, workloads.GRAD_EPS)
    checks.check_gradient(tape, fd, checks.GRAD_RTOL, "tape")
    with pytest.raises(checks.CheckError):
        checks.check_gradient(tape * 1.01, fd, checks.GRAD_RTOL, "scaled tape")


def test_circuit_gradient():
    qasa = build_model(default_config("qasa", vocab_size=12, max_seq_len=10, seed=3))
    names = [n for n in qasa.params if "theta" in n]
    gen = np.random.default_rng(1)
    direction = {n: gen.standard_normal(qasa.params[n].shape) for n in names}
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    direction = {n: d / norm for n, d in direction.items()}
    tape = workloads._tape_derivative(qasa, SEQS, direction)
    fd = workloads._finite_difference(qasa, SEQS, direction, workloads.GRAD_EPS)
    checks.check_gradient(tape, fd, checks.GRAD_RTOL_SMOOTH, "circuit")
    with pytest.raises(checks.CheckError):
        checks.check_gradient(tape * 1.01, fd, checks.GRAD_RTOL_SMOOTH, "scaled circuit")


@pytest.mark.parametrize("spec", [build_qasa_circuit(3, 2), build_qrwkv_circuit(4), build_qrwkv_circuit(6)],
                         ids=["qasa3", "qrwkv4", "qrwkv6"])
def test_statevector(spec):
    gen = np.random.default_rng(2)
    params = gen.uniform(-math.pi, math.pi, spec.n_params)
    x = gen.standard_normal(2 ** spec.n_qubits - 1)
    readout = vqc_forward(spec, Tensor(params), Tensor(x)).data
    checks.check_statevector(readout, spec, params, x, "spec")
    bad = readout.copy()
    bad[1] += 1e-9
    with pytest.raises(checks.CheckError):
        checks.check_statevector(bad, spec, params, x, "corrupted")


def _report(model_name, dataset, ppl, outputs):
    scored = [score_sample(["a"], ref.split(), out.split()) for ref, out in outputs]
    return aggregate_report(model_name, dataset, ppl, scored)


def test_metric_bounds():
    report = _report("MLP", "haiku", 9.0, [("a b c d", "a b b x"), ("c d e", "")])
    checks.check_metric_bounds(report)
    report.bleu = (report.bleu[0] + 1e-3,) + report.bleu[1:]
    with pytest.raises(checks.CheckError):
        checks.check_metric_bounds(report)
    report = _report("MLP", "haiku", 9.0, [("a b", "a b")])
    report.repetition_rate = 1.5
    with pytest.raises(checks.CheckError):
        checks.check_metric_bounds(report)


def test_tables(tmp_path):
    result = BenchmarkResult(reports=[
        _report("MLP", "haiku", 12.34567, [("a b c", "a b b")]),
        _report("MLP", "proverbs", 8.76543, [("a b c", "c a")]),
        _report("Transformer", "haiku", 7.5, [("a b c", "a")]),
        _report("Transformer", "proverbs", 6.25, [("a b c", "x y")]),
    ])
    cfg = RunConfig(out_dir=str(tmp_path), datasets=("haiku", "proverbs"), models=("transformer", "mlp"))
    write_tables(result, cfg)
    overall = (tmp_path / "results_overall.csv").read_text()
    per = {d: (tmp_path / f"results_{d}.csv").read_text() for d in cfg.datasets}
    checks.check_tables(overall, per)
    lines = per["haiku"].splitlines()
    cells = lines[1].split(",")
    cells[1] = f"{float(cells[1]) + 1e-3:.4f}"
    lines[1] = ",".join(cells)
    with pytest.raises(checks.CheckError):
        checks.check_tables(overall, {**per, "haiku": "\n".join(lines) + "\n"})


def test_forward_rows():
    checks.check_forward_rows(120, 120)
    with pytest.raises(checks.CheckError):
        checks.check_forward_rows(121, 120)
