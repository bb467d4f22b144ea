"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["Adam"]


class Adam:
    """Standard Adam with bias correction; moment buffers owned per parameter.

    Gradients accumulate across backward calls until ``zero_grad``; stepping
    with a missing gradient is a contract violation, stepping with zero
    gradients leaves parameters untouched.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        items = params.items() if isinstance(params, dict) else params
        self.params: list[tuple[str, Tensor]] = [(name, t) for name, t in items]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {name: np.zeros_like(t.data) for name, t in self.params}
        self._v = {name: np.zeros_like(t.data) for name, t in self.params}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params:
            if p.grad is None:
                raise ValueError(f"parameter {name!r} has no gradient; run backward first")
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None
