"""Amplitude encoding, the batched circuit kernel, and the differentiable VQC.

Every circuit run works on a block of B input rows at once.  The amplitudes
are a (B, 2^n) array; each gate acts on all rows in one numpy expression over
the (B, 2, ..., 2) tensor of amplitudes, with the qubits before and after the
target merged into one axis each.  Rows never mix, so the result of a row does
not depend on the other rows of its block.  The amplitude dtype follows from
the gate matrices: RY and CNOT gates on a real encoding keep the state in
float64, and an RX or RZ gate makes it complex.

The gradient of the Z expectations is computed analytically by one adjoint
sweep (reverse pass over the gate list), batched in the same way, rather than
by shifting each parameter.  The parameter-shift rule is kept as an
independent, slower oracle.
"""

from __future__ import annotations

import numpy as np

from ..numerics.tensor import Tensor, record_op
from .circuit import ROTATION_KINDS, CircuitSpec, GateOp
from .gates import GENERATORS, cnot_permutation, rotation_matrices, z_signs

__all__ = [
    "amplitude_encode",
    "run_circuit",
    "vqc_forward",
    "param_shift_grad",
]

_ZERO_NORM = 1e-12


def amplitude_encode(x: np.ndarray, n_qubits: int) -> np.ndarray:
    """L2-normalize each row of ``x`` into its first x.shape[-1] basis amplitudes.

    ``x`` is one flat row (k,) or a block (B, k); the result is (2^n,) or
    (B, 2^n).  A row with norm below 1e-12 maps to the |0...0> basis state so
    the forward pass stays total (and flat, i.e. zero gradient, at that point).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"amplitude_encode expects a flat row or a (B, k) block, got shape {x.shape}")
    dim = 2 ** n_qubits
    if x.shape[-1] > dim:
        raise ValueError(f"cannot encode {x.shape[-1]} values into {n_qubits} qubits ({dim} amplitudes)")
    rows = x.reshape(-1, x.shape[-1])
    norms = np.linalg.norm(rows, axis=1)
    zero = norms < _ZERO_NORM
    amps = np.zeros((rows.shape[0], dim))
    amps[:, : rows.shape[1]] = rows / np.where(zero, 1.0, norms)[:, None]
    amps[zero] = 0.0
    amps[zero, 0] = 1.0
    return amps.reshape(x.shape[:-1] + (dim,))


def _apply(amps: np.ndarray, gate: GateOp, mat: np.ndarray | None, n: int) -> np.ndarray:
    """One gate on every row of a (B, 2^n) block; ``mat`` is (2, 2) or (B, 2, 2).

    With the target as axis 2 of the view, out[:, l, i, r] = sum_j mat[i, j] view[:, l, j, r].
    """
    if gate.kind == "cnot":
        return amps[:, cnot_permutation(n, gate.control, gate.target)]
    b = amps.shape[0]
    view = amps.reshape(b, 2 ** gate.target, 2, 2 ** (n - 1 - gate.target))
    m = mat.reshape(-1, 1, 2, 2)
    return (m[..., 0:1] * view[:, :, 0:1] + m[..., 1:2] * view[:, :, 1:2]).reshape(b, -1)


def _param_rows(spec: CircuitSpec, params: np.ndarray, n_rows: int) -> np.ndarray:
    """``params`` as (1, P) when shared by all rows, or (B, P) with one set per row."""
    if params.ndim not in (1, 2) or params.shape[-1] < spec.n_params:
        raise ValueError(f"circuit needs {spec.n_params} parameters, got {params.shape}")
    if params.ndim == 2 and params.shape[0] != n_rows:
        raise ValueError(f"{params.shape[0]} parameter rows for {n_rows} input rows")
    return np.atleast_2d(params)


def run_circuit(spec: CircuitSpec, params: np.ndarray, amps: np.ndarray) -> list[np.ndarray]:
    """Apply the gate list to every row of a (B, 2^n) block of amplitudes.

    ``params`` is (P,), shared by all rows, or (B, P), one set per row.
    Returns the blocks before each gate and after the last one, so the final
    states are ``run_circuit(...)[-1]``.
    """
    n = spec.n_qubits
    amps = np.asarray(amps)
    if amps.ndim != 2 or amps.shape[1] != 2 ** n:
        raise ValueError(f"expected a (B, {2 ** n}) amplitude block, got shape {amps.shape}")
    prows = _param_rows(spec, np.asarray(params, dtype=np.float64), amps.shape[0])
    states = [amps]
    for gate in spec.gates:
        mat = None if gate.param_slot is None else rotation_matrices(gate.kind, prows[:, gate.param_slot])
        states.append(_apply(states[-1], gate, mat, n))
    return states


def _z_readout(amps: np.ndarray, n: int) -> np.ndarray:
    """Per-qubit Z expectations of every row, (B, n); entries lie in [-1, 1]."""
    return np.real(np.conj(amps) * amps) @ z_signs(n).T


def vqc_forward(spec: CircuitSpec, params: Tensor, x: Tensor) -> Tensor:
    """Differentiable encode -> run -> measure, registered on the record.

    ``x`` is a (B, k) block, one circuit run per row, with a (B, n_qubits)
    readout; a flat (k,) row gives an (n_qubits,) readout.  ``params`` is
    (P,), shared by all rows, or (B, P), one set per row.

    Backward runs one adjoint sweep: with O = sum_k g_k Z_k (diagonal), the
    cotangent state lambda = O psi is pulled back through the daggered gates;
    each rotation R = exp(-i theta/2 P) contributes 2 Re(lambda^dag G psi),
    G = -i P / 2, to its angle's gradient (summed over rows for shared
    angles), and 2 Re(lambda_0) is the gradient w.r.t. the encoded
    (normalized) amplitudes.
    """
    n = spec.n_qubits
    xdata = np.asarray(x.data, dtype=np.float64)
    pdata = np.asarray(params.data, dtype=np.float64)
    encoded = amplitude_encode(xdata, n)
    rows = xdata.reshape(-1, xdata.shape[-1])
    states = run_circuit(spec, pdata, encoded.reshape(rows.shape[0], -1))
    out = Tensor(_z_readout(states[-1], n).reshape(xdata.shape[:-1] + (n,)), copy=False)

    def bw(g):
        prows = np.atleast_2d(pdata)
        lam = (g.reshape(-1, n) @ z_signs(n)) * states[-1]
        grad_rows = np.zeros((rows.shape[0], pdata.shape[-1]))
        for gate, after in zip(reversed(spec.gates), reversed(states[1:])):
            if gate.param_slot is None:
                lam = _apply(lam, gate, None, n)
                continue
            g_psi = _apply(after, gate, GENERATORS[gate.kind], n)
            grad_rows[:, gate.param_slot] += 2.0 * (lam.conj() * g_psi).real.sum(axis=1)
            lam = _apply(lam, gate, rotation_matrices(gate.kind, -prows[:, gate.param_slot]), n)
        grad_params = grad_rows if pdata.ndim == 2 else grad_rows.sum(axis=0)
        grad_amps = 2.0 * np.real(lam[:, : rows.shape[1]])
        r = np.linalg.norm(rows, axis=1, keepdims=True)
        zero = r[:, 0] < _ZERO_NORM
        r[zero] = 1.0
        grad_x = grad_amps / r - rows * np.sum(grad_amps * rows, axis=1, keepdims=True) / r ** 3
        grad_x[zero] = 0.0
        return grad_params, grad_x.reshape(xdata.shape)

    return record_op(out, (params, x), bw)


def param_shift_grad(spec: CircuitSpec, params: np.ndarray, x: np.ndarray, output_index: int) -> np.ndarray:
    """d<Z_k>/d(theta_j) via two shifted runs per parameter, all in one block.

    Exact for parameters that drive exactly one rotation gate; anything else
    (a slot shared across gates) is rejected.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1:
        raise ValueError(f"parameter-shift rule takes one flat parameter vector, got shape {params.shape}")
    usage = {}
    for gate in spec.gates:
        if gate.param_slot is not None:
            usage[gate.param_slot] = usage.get(gate.param_slot, 0) + 1
            if gate.kind not in ROTATION_KINDS:  # pragma: no cover - CircuitSpec forbids this
                raise ValueError(f"param slot {gate.param_slot} feeds a non-rotation gate")
    if any(count != 1 for count in usage.values()):
        raise ValueError("parameter-shift rule requires each slot to drive exactly one rotation")

    p = spec.n_params
    shifts = np.pi / 2.0 * np.eye(p, params.size)
    shifted = np.concatenate([params + shifts, params - shifts])
    amps = np.repeat(amplitude_encode(x, spec.n_qubits)[None], 2 * p, axis=0)
    z = _z_readout(run_circuit(spec, shifted, amps)[-1], spec.n_qubits)[:, output_index]
    return (z[:p] - z[p:]) / 2.0
