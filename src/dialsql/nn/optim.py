"""Parameters, initialization, gradient clipping and Adam."""

from __future__ import annotations

import numpy as np

from .tensor import ContractError, Tensor, active_dtype

__all__ = ["Parameter", "init_uniform", "clip_global_norm", "Adam"]


class Parameter(Tensor):
    """A named, trainable tensor. Gradients are allocated eagerly."""

    __slots__ = ("name",)

    def __init__(self, name: str, values):
        super().__init__(values, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.shape})"


_INIT_SCALE = 0.1


def init_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform initialization on [-_INIT_SCALE, _INIT_SCALE]."""
    return rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=shape).astype(active_dtype())


def clip_global_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the pre-clip norm.
    """
    total = 0.0
    for p in params:
        if p.grad is None:
            raise ContractError(f"parameter {p.name} has no gradient")
        total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for p in params:
            p.grad *= factor
    return norm


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8        # Adam's decay rates and denominator floor


class Adam:
    """Adam with bias correction, matching the standard formulation."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.values) for p in params]
        self.v = [np.zeros_like(p.values) for p in params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = _BETA1, _BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                raise ContractError(f"parameter {p.name} has no gradient")
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + _EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
