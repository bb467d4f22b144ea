"""Exact, batched statevector simulation of small variational quantum circuits."""

from .circuit import CircuitSpec, GateOp, build_qasa_circuit, build_qrwkv_circuit
from .gates import MAX_QUBITS
from .vqc import amplitude_encode, param_shift_grad, run_circuit, vqc_forward

__all__ = [
    "MAX_QUBITS",
    "CircuitSpec",
    "GateOp",
    "amplitude_encode",
    "build_qasa_circuit",
    "build_qrwkv_circuit",
    "param_shift_grad",
    "run_circuit",
    "vqc_forward",
]
