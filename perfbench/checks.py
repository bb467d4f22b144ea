"""Output checks of the benchmark.

Every check is computed apart from the program (its own log-softmax, its own
dense unitaries, its own BLEU-1) or is a property the method must have
(causality, determinism, bit-exact checkpoints).  None compares against a
stored copy of earlier output.  Each check raises :class:`CheckError` with a
message naming what disagreed; the tests in ``tests/`` feed each one a
deliberately corrupted input.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter

import numpy as np

# Stated tolerances.  Logits of one prefix computed inside a longer or a
# shorter sequence may differ in the last bits (BLAS blocks by size), so the
# float comparisons allow a few ulps of a typical loss, not more.
LOSS_RTOL = 1e-10          # batch_loss / perplexity against the own pooled NLL
TIE_TOL = 1e-9             # greedy: the emitted logit may trail the row max by this
STATEVECTOR_ATOL = 1e-12   # vqc_forward against the dense-unitary product
GRAD_RTOL = 1e-3           # all-parameter direction (ReLU kinks may sit inside the FD step)
GRAD_RTOL_SMOOTH = 1e-6    # circuit-angle direction: the circuit is smooth
GRAD_ATOL = 1e-8
TABLE_TOL = 1e-4 + 1e-9    # two 4-decimal roundings: the mean of rounded cells, the rounded mean


class CheckError(AssertionError):
    """An output of the program disagreed with the benchmark's own computation."""


def _log_softmax_nll(logits: np.ndarray, targets) -> np.ndarray:
    """Per-row negative log-likelihood of ``targets`` by a max-shifted log-sum-exp."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.intp)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return log_z - shifted[np.arange(len(targets)), targets]


def pooled_nll(logits_per_seq, seqs) -> tuple[float, int]:
    """Sum of next-token NLLs over all sequences and the number of targets.

    ``logits_per_seq[i]`` holds the logits of ``seqs[i][:-1]`` computed on the
    unpadded sequence alone.
    """
    total, count = 0.0, 0
    for logits, seq in zip(logits_per_seq, seqs):
        targets = list(seq[1:])
        if np.shape(logits)[0] != len(targets):
            raise CheckError(f"logits have {np.shape(logits)[0]} rows for {len(targets)} targets")
        total += float(_log_softmax_nll(logits, targets).sum())
        count += len(targets)
    return total, count


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def check_padding_invariance(batch_loss_value: float, logits_per_seq, seqs):
    """The padded batch loss equals the token-weighted mean of unpadded NLLs."""
    total, count = pooled_nll(logits_per_seq, seqs)
    own = total / count
    if not _close(batch_loss_value, own, LOSS_RTOL):
        raise CheckError(f"batch_loss {batch_loss_value!r} != unpadded token-weighted NLL {own!r}")


def check_perplexity(ppl: float, logits_per_seq, seqs):
    """``perplexity`` equals exp of the own pooled NLL and is at least 1."""
    total, count = pooled_nll(logits_per_seq, seqs)
    own = math.exp(total / count)
    if not ppl >= 1.0:
        raise CheckError(f"perplexity {ppl!r} is below 1")
    if not _close(ppl, own, LOSS_RTOL):
        raise CheckError(f"perplexity {ppl!r} != exp(pooled NLL) {own!r}")


def check_gradient(tape: float, finite_difference: float, rtol: float, label: str):
    """A tape directional derivative agrees with a central finite difference."""
    if not (math.isfinite(tape) and math.isfinite(finite_difference)):
        raise CheckError(f"{label}: non-finite derivative (tape {tape!r}, FD {finite_difference!r})")
    if not _close(tape, finite_difference, rtol, GRAD_ATOL):
        raise CheckError(f"{label}: tape derivative {tape!r} != finite difference {finite_difference!r}")


def check_greedy(logits: np.ndarray, ids, prompt_len: int, stopped_at_eos: bool, eos_id: int):
    """Every emitted token is the argmax of the row before it, up to TIE_TOL.

    ``logits`` comes from one forward pass over the whole output ``ids``; row
    j scores the token at j + 1.  When generation stopped at EOS, the last
    row's argmax must be EOS.
    """
    logits = np.asarray(logits)
    if logits.shape[0] != len(ids):
        raise CheckError(f"forward pass has {logits.shape[0]} rows for {len(ids)} tokens")
    for i in range(prompt_len, len(ids)):
        row = logits[i - 1]
        if row[ids[i]] < row.max() - TIE_TOL:
            raise CheckError(f"position {i}: emitted {ids[i]} scores {row[ids[i]]!r}, "
                             f"argmax {int(row.argmax())} scores {row.max()!r}")
    if stopped_at_eos:
        row = logits[len(ids) - 1]
        if row[eos_id] < row.max() - TIE_TOL:
            raise CheckError(f"stopped at EOS, but the last row's argmax is {int(row.argmax())}")


def check_length(ids, expected: int, label: str):
    if len(ids) != expected:
        raise CheckError(f"{label}: output has {len(ids)} tokens, expected {expected}")


def check_identical(a, b, label: str):
    """Two runs of one deterministic computation gave the same result."""
    if a != b:
        raise CheckError(f"{label}: repeated computation differs")


def check_checkpoint(trained: dict, restored: dict):
    """Restored parameter arrays are bit-identical to the trained ones."""
    if set(trained) != set(restored):
        raise CheckError(f"parameter names differ: {sorted(set(trained) ^ set(restored))}")
    for name, arr in trained.items():
        other = restored[name]
        if arr.shape != other.shape or arr.dtype != other.dtype or arr.tobytes() != other.tobytes():
            raise CheckError(f"parameter {name!r} differs after restore")


def _unigram_precision(output: list[str], reference: list[str]) -> float:
    if not output:
        return 0.0
    ref = Counter(reference)
    return sum(min(n, ref[w]) for w, n in Counter(output).items()) / len(output)


def check_metric_bounds(report):
    """Scores lie in [0, 1]; BLEU-1 recomputed from the sample texts matches."""
    values = {"BLEU-%d" % (i + 1): b for i, b in enumerate(report.bleu)}
    values.update({"Distinct-%d" % (i + 1): d for i, d in enumerate(report.distinct)})
    values["repetition"] = report.repetition_rate
    for name, value in values.items():
        if not 0.0 <= value <= 1.0:
            raise CheckError(f"{report.model}/{report.dataset}: {name} = {value!r} outside [0, 1]")
    if not report.samples:
        raise CheckError(f"{report.model}/{report.dataset}: no samples")
    own = [_unigram_precision(s.output.split(), s.reference.split()) for s in report.samples]
    mean = math.fsum(own) / len(own)
    if not _close(report.bleu[0], mean, 1e-12, 1e-12):
        raise CheckError(f"{report.model}/{report.dataset}: BLEU-1 {report.bleu[0]!r} != recomputed {mean!r}")


def _rows(text: str) -> dict:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return {row[0]: dict(zip(header[1:], map(float, row[1:]))) for row in reader if row}


def check_tables(overall_csv: str, per_dataset_csvs: dict):
    """Each overall row is the mean of that model's per-dataset rows."""
    overall = _rows(overall_csv)
    per = {name: _rows(text) for name, text in per_dataset_csvs.items()}
    if not overall:
        raise CheckError("overall table is empty")
    for model, row in overall.items():
        for column, value in row.items():
            cells = [table[model][column] for table in per.values() if model in table]
            if len(cells) != len(per):
                raise CheckError(f"{model} is missing from a per-dataset table")
            mean = math.fsum(cells) / len(cells)
            if abs(value - mean) > TABLE_TOL:
                raise CheckError(f"overall {model} {column} = {value!r}, per-dataset mean {mean!r}")


def _rotation(kind: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if kind == "rz":
        return np.diag([complex(c, -s), complex(c, s)])
    raise CheckError(f"no dense form for gate kind {kind!r}")


def dense_unitary(spec, params) -> np.ndarray:
    """The circuit as one 2^n x 2^n matrix; qubit 0 is the most significant bit."""
    n = spec.n_qubits
    dim = 2 ** n
    total = np.eye(dim, dtype=np.complex128)
    for gate in spec.gates:
        if gate.kind == "cnot":
            mat = np.zeros((dim, dim))
            for b in range(dim):
                flip = (b >> (n - 1 - gate.control)) & 1
                mat[b ^ (flip << (n - 1 - gate.target)), b] = 1.0
        else:
            mat = np.array([[1.0 + 0j]])
            for q in range(n):
                mat = np.kron(mat, _rotation(gate.kind, params[gate.param_slot]) if q == gate.target else np.eye(2))
        total = mat @ total
    return total


def dense_readout(spec, params, x) -> np.ndarray:
    """Per-qubit <Z> after the circuit acts on the amplitude-encoded ``x``."""
    n = spec.n_qubits
    psi = np.zeros(2 ** n, dtype=np.complex128)
    psi[: len(x)] = np.asarray(x) / np.linalg.norm(x)
    probs = np.abs(dense_unitary(spec, params) @ psi) ** 2
    basis = np.arange(2 ** n)
    return np.array([float(probs @ (1.0 - 2.0 * ((basis >> (n - 1 - q)) & 1))) for q in range(n)])


def check_statevector(readout, spec, params, x, label: str):
    own = dense_readout(spec, params, x)
    err = float(np.max(np.abs(np.asarray(readout) - own)))
    if not err <= STATEVECTOR_ATOL:
        raise CheckError(f"{label}: vqc_forward differs from the dense unitary by {err:.3g}")


def check_forward_rows(observed: int, predicted: int):
    if observed != predicted:
        raise CheckError(f"qsim.forward_rows = {observed}, predicted from model positions {predicted}")
