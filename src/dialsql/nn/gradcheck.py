"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .tensor import ContractError, Tape, Tensor, get_precision

__all__ = ["grad_check", "GradCheckResult"]


class GradCheckResult:
    def __init__(self, max_rel_error: float, worst: tuple[str, tuple[int, ...]] | None):
        self.max_rel_error = max_rel_error
        self.worst = worst

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GradCheckResult(max_rel_error={self.max_rel_error:.3e}, worst={self.worst})"


_EPS = 1e-5        # the central-difference step
_ATOL = 1e-7       # an absolute gap this small counts as exact


def grad_check(loss_fn: Callable[[], Tensor], params: Iterable[Tensor],
               names: list[str] | None = None) -> GradCheckResult:
    """Compare tape gradients of ``loss_fn`` against central differences.

    ``loss_fn`` must be deterministic and must read the current values
    of ``params`` each call. A coordinate where analytic and numeric
    gradients agree within ``_ATOL`` counts as exact; central differences
    cannot resolve anything finer. Otherwise the relative error is
    |analytic - numeric| / max(|analytic|, |numeric|). Requires 64-bit
    precision; finite differences at 32 bits drown in roundoff.
    """
    if get_precision() != 64:
        raise ContractError("grad_check requires 64-bit precision")
    params = list(params)
    if names is None:
        names = [getattr(p, "name", f"param{k}") for k, p in enumerate(params)]

    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    analytic = [np.array(p.grad, copy=True) if p.grad is not None else np.zeros_like(p.values)
                for p in params]

    max_rel = 0.0
    worst = None
    for p, a, name in zip(params, analytic, names):
        flat = p.values.reshape(-1)
        a_flat = a.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + _EPS
            up = float(loss_fn().values)
            flat[k] = orig - _EPS
            down = float(loss_fn().values)
            flat[k] = orig
            numeric = (up - down) / (2.0 * _EPS)
            gap = abs(a_flat[k] - numeric)
            if gap <= _ATOL:
                continue
            rel = gap / max(abs(a_flat[k]), abs(numeric))
            if rel > max_rel:
                max_rel = rel
                worst = (name, np.unravel_index(k, p.values.shape))
    return GradCheckResult(max_rel, worst)
