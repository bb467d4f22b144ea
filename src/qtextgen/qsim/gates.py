"""Gate matrices and index tables for a small qubit register.

Basis-index convention is big-endian: qubit 0 is the most significant bit of
the basis index, so |q0 q1 ... q(n-1)> maps to index q0*2^(n-1) + ... .
Only magnitude-squared observables are ever consumed, so global phase is
irrelevant throughout.
"""

from __future__ import annotations

from functools import cache

import numpy as np

MAX_QUBITS = 8  # desk-scale simulator: at most 256 amplitudes

__all__ = ["MAX_QUBITS", "GENERATORS", "rotation_matrices", "cnot_permutation", "z_signs"]

# dR(theta)/dtheta = G R(theta) with G = -i P / 2 for R = exp(-i theta/2 P);
# G is real for RY, so a real circuit stays real in the adjoint too
GENERATORS = {
    "rx": np.array([[0.0, -0.5j], [-0.5j, 0.0]]),
    "ry": np.array([[0.0, -0.5], [0.5, 0.0]]),
    "rz": np.array([[-0.5j, 0.0], [0.0, 0.5j]]),
}


def rotation_matrices(kind: str, theta: np.ndarray) -> np.ndarray:
    """exp(-i theta/2 P) for every angle of the flat ``theta``: shape (len(theta), 2, 2).

    RY matrices are real; RX and RZ matrices are complex.
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    if kind == "ry":
        entries = [[c, -s], [s, c]]
    elif kind == "rx":
        entries = [[c, -1j * s], [-1j * s, c]]
    else:  # rz
        zero = np.zeros_like(c)
        entries = [[c - 1j * s, zero], [zero, c + 1j * s]]
    return np.array(entries).transpose(2, 0, 1)


@cache
def cnot_permutation(n: int, control: int, target: int) -> np.ndarray:
    """Basis permutation of a CNOT: flip the target bit wherever the control bit is set."""
    idx = np.arange(2 ** n)
    perm = idx ^ (((idx >> (n - 1 - control)) & 1) << (n - 1 - target))
    perm.setflags(write=False)
    return perm


@cache
def z_signs(n_qubits: int) -> np.ndarray:
    """(n, 2^n) matrix of +-1: sign of qubit i's Z eigenvalue per basis index."""
    idx = np.arange(2 ** n_qubits)
    signs = np.empty((n_qubits, 2 ** n_qubits), dtype=np.float64)
    for i in range(n_qubits):
        bits = (idx >> (n_qubits - 1 - i)) & 1
        signs[i] = 1.0 - 2.0 * bits
    signs.setflags(write=False)
    return signs
