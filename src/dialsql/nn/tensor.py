"""Dense tensors with reverse-mode automatic differentiation.

Every learned quantity in the parser flows through the operations here.
Operations record themselves on the active :class:`Tape` (when one is
open and an input requires a gradient) in execution order, so walking
the tape backwards is a valid reverse-topological traversal. Inference
runs without a tape: an operation then computes its value and nothing
else, building no backward closure.

An operation's backward is a vector-Jacobian product (vjp): it takes
the gradient of each output and returns one delta per input, in input
order. It reads only values, never gradients, and writes nothing: the
tape alone decides which entries run and adds each delta to the inputs
that require a gradient.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "TensorError",
    "DimensionError",
    "InvalidMaskError",
    "NumericError",
    "ContractError",
    "set_precision",
    "get_precision",
    "active_dtype",
    "softmax_masked",
]


class TensorError(Exception):
    """Base class for tensor-level failures."""


class DimensionError(TensorError):
    """Operand shapes are incompatible."""


class InvalidMaskError(TensorError):
    """A boolean mask leaves no admissible position."""


class NumericError(TensorError):
    """A non-finite value appeared where finiteness is required."""


class ContractError(TensorError):
    """An operation was called outside its contract."""


_PRECISIONS = {32: np.float32, 64: np.float64}
_precision_bits = 64
_dtype = np.dtype(np.float64)


def set_precision(bits: int) -> None:
    """Select the global float width (32 or 64) for new tensors.

    Gradient checks are only reliable at 64-bit; training may use 32.
    """
    global _precision_bits, _dtype
    if bits not in _PRECISIONS:
        raise ValueError(f"precision must be 32 or 64, got {bits}")
    _precision_bits = bits
    _dtype = np.dtype(_PRECISIONS[bits])


def get_precision() -> int:
    return _precision_bits


def active_dtype() -> type:
    return _PRECISIONS[_precision_bits]


class Tensor:
    """A dense array plus an optional gradient of the same shape."""

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        # Operation results already are arrays of the active dtype: no copy.
        if type(values) is not np.ndarray or values.dtype is not _dtype:
            values = np.asarray(values, dtype=_dtype)
        self.values = values
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def accumulate_grad(self, delta: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        self.grad += delta

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        else:
            self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


_tls = threading.local()
_open_tapes = 0                    # tapes open in any thread
_open_lock = threading.Lock()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def _active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of differentiable operations.

    Entries are (outputs, inputs, vjp). Construction order is a
    topological order, so :meth:`backward` replays entries reversed.
    ``vjp(*output_grads)`` returns one delta per input. A single-output
    entry always receives its output's gradient; an entry with several
    outputs receives None for each output no path to the loss reached.
    """

    def __init__(self):
        self._entries: list[tuple[tuple[Tensor, ...], tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        global _open_tapes
        _tape_stack().append(self)
        with _open_lock:
            _open_tapes += 1
        return self

    def __exit__(self, *exc) -> None:
        global _open_tapes
        stack = _tape_stack()
        assert stack and stack[-1] is self
        stack.pop()
        with _open_lock:
            _open_tapes -= 1

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, outputs: Sequence[Tensor], inputs: Sequence[Tensor],
               vjp: Callable) -> None:
        """Append one entry; its outputs now require gradients."""
        outputs = tuple(outputs)
        for out in outputs:
            out.requires_grad = True
        self._entries.append((outputs, tuple(inputs), vjp))

    def backward(self, loss: Tensor) -> None:
        """Populate gradients of every recorded requires_grad tensor.

        Entries none of whose outputs lie on a path to ``loss`` are
        skipped. Deltas are added in input order, so a tensor used twice
        sums its deltas in a fixed order. Tensors recorded on the tape
        but not on any path to ``loss`` end up with zero gradients.
        """
        if loss.shape != ():
            raise ContractError(f"loss must be a scalar, got shape {loss.shape}")
        loss.accumulate_grad(np.asarray(1.0, dtype=loss.values.dtype))
        for outputs, inputs, vjp in reversed(self._entries):
            grads = [out.grad for out in outputs]
            if all(g is None for g in grads):
                continue                    # no path from here to the loss
            for t, delta in zip(inputs, vjp(*grads)):
                if t.requires_grad:
                    t.accumulate_grad(delta)
        for _outputs, inputs, _vjp in self._entries:
            for t in inputs:
                if t.requires_grad and t.grad is None:
                    t.grad = np.zeros_like(t.values)


def _taping(*inputs: Tensor) -> "Tape | None":
    """The tape an operation on ``inputs`` records on, or None when no
    tape is open or no input requires a gradient. Operations call this
    before building their vjp, so the no-tape path builds none."""
    if not _open_tapes:
        return None
    tape = _active_tape()
    if tape is None:
        return None
    for t in inputs:
        if t.requires_grad:
            return tape
    return None


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    out = Tensor(a.values + b.values)
    tape = _taping(a, b)
    if tape is not None:
        tape.record((out,), (a, b), lambda g: (g, g))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")
    out = Tensor(a.values * b.values)
    tape = _taping(a, b)
    if tape is not None:
        tape.record((out,), (a, b), lambda g: (g * b.values, g * a.values))
    return out


def affine(a: Tensor, scale: float = 1.0, shift: float = 0.0) -> Tensor:
    """Elementwise ``scale * a + shift`` with float constants."""
    out = Tensor(scale * a.values + shift)
    tape = _taping(a)
    if tape is not None:
        tape.record((out,), (a,), lambda g: (scale * g,))
    return out


def neg(a: Tensor) -> Tensor:
    return affine(a, -1.0, 0.0)


def scale_by(a: Tensor, s: Tensor) -> Tensor:
    """Multiply an array by a scalar tensor; differentiable in both."""
    if s.shape != ():
        raise DimensionError(f"scale_by: scale must be scalar, got {s.shape}")
    out = Tensor(a.values * s.values)
    tape = _taping(a, s)
    if tape is not None:
        tape.record((out,), (a, s), lambda g: (g * s.values, np.sum(g * a.values)))
    return out


def div_by(a: Tensor, s: Tensor) -> Tensor:
    """Divide an array by a scalar tensor."""
    if s.shape != ():
        raise DimensionError(f"div_by: divisor must be scalar, got {s.shape}")
    out = Tensor(a.values / s.values)
    tape = _taping(a, s)
    if tape is not None:
        tape.record((out,), (a, s), lambda g: (
            g / s.values, -np.sum(g * a.values) / (s.values * s.values)))
    return out


# ---------------------------------------------------------------------------
# nonlinearities


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.values))
    tape = _taping(a)
    if tape is not None:
        tape.record((out,), (a,), lambda g: (g * (1.0 - out.values * out.values),))
    return out


def sigmoid(a: Tensor) -> Tensor:
    """Overflow-free: 1 / (1 + exp(-v)) for v >= 0, exp(v) / (1 + exp(v))
    below, both from e = exp(-|v|) <= 1."""
    v = a.values
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    out = Tensor(np.where(v >= 0, 1.0 / d, e / d))
    tape = _taping(a)
    if tape is not None:
        tape.record((out,), (a,), lambda g: (g * out.values * (1.0 - out.values),))
    return out


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.values))
    tape = _taping(a)
    if tape is not None:
        tape.record((out,), (a,), lambda g: (g / a.values,))
    return out


# ---------------------------------------------------------------------------
# reductions, indexing, shaping


def reduce_sum(a: Tensor) -> Tensor:
    out = Tensor(np.add.reduce(a.values, axis=None))     # np.sum without its wrapper
    tape = _taping(a)
    if tape is not None:
        tape.record((out,), (a,), lambda g: (np.full_like(a.values, g),))
    return out


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 1 or b.values.ndim != 1 or a.shape != b.shape:
        raise DimensionError(f"dot: need equal-length vectors, got {a.shape} and {b.shape}")
    return matmul(a, b)


def pick(a: Tensor, index: int) -> Tensor:
    """Select one entry of a vector as a scalar."""
    if a.values.ndim != 1:
        raise DimensionError(f"pick: need a vector, got shape {a.shape}")
    out = Tensor(a.values[index])
    tape = _taping(a)
    if tape is not None:
        tape.record((out,), (a,), _scatter(a, index))
    return out


def row(m: Tensor, index: int) -> Tensor:
    """Select one row of a matrix as a vector."""
    if m.values.ndim != 2:
        raise DimensionError(f"row: need a matrix, got shape {m.shape}")
    out = Tensor(m.values[index])
    tape = _taping(m)
    if tape is not None:
        tape.record((out,), (m,), _scatter(m, index))
    return out


def _scatter(m: Tensor, index: int) -> Callable:
    """vjp of ``m.values[index]``: the gradient put back at ``index``."""
    def vjp(g):
        delta = np.zeros_like(m.values)
        delta[index] = g
        return (delta,)
    return vjp


def take_rows(m: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of a matrix; repeated indices accumulate gradient."""
    if m.values.ndim != 2:
        raise DimensionError(f"take_rows: need a matrix, got shape {m.shape}")
    out = Tensor(m.values.take(indices, axis=0))    # fancy indexing at half the cost
    tape = _taping(m)
    if tape is not None:
        idx = np.asarray(indices, dtype=np.intp)

        def vjp(g):
            delta = np.zeros_like(m.values)
            np.add.at(delta, idx, g)
            return (delta,)

        tape.record((out,), (m,), vjp)
    return out


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate vectors into one vector."""
    parts = list(parts)
    if not parts:
        raise ContractError("concat: need at least one part")
    try:
        values = np.concatenate([p.values for p in parts])
    except ValueError as err:     # a part of another rank, or a scalar
        raise DimensionError(f"concat: need vectors, got shapes {[p.shape for p in parts]}") from err
    if values.ndim != 1:
        raise DimensionError(f"concat: need vectors, got shapes {[p.shape for p in parts]}")
    out = Tensor(values)
    tape = _taping(*parts)
    if tape is not None:
        def vjp(g):
            # Bounds from a running offset: cheaper than np.cumsum at these sizes.
            deltas, lo = [], 0
            for p in parts:
                hi = lo + p.size
                deltas.append(g[lo:hi])
                lo = hi
            return deltas

        tape.record((out,), parts, vjp)
    return out


def _join(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate matrices along ``axis``: 0 stacks their rows, 1 sets
    them side by side. The decoder assembles its attention memory with
    it in one tape entry."""
    parts = list(parts)
    if not parts:
        raise ContractError("_join: need at least one part")
    if any(p.values.ndim != 2 for p in parts):
        raise DimensionError(f"_join: need matrices, got shapes {[p.shape for p in parts]}")
    try:
        values = np.concatenate([p.values for p in parts], axis=axis)
    except ValueError as err:
        raise DimensionError(f"_join: shapes {[p.shape for p in parts]} do not "
                             f"line up along axis {axis}") from err
    out = Tensor(values)
    tape = _taping(*parts)
    if tape is not None:
        bounds = np.cumsum([p.shape[axis] for p in parts[:-1]])
        tape.record((out,), parts, lambda g: np.split(g, bounds, axis=axis))
    return out


def stack_scalars(parts: Sequence[Tensor]) -> Tensor:
    """Collect scalar tensors into one vector."""
    parts = list(parts)
    if not parts:
        raise ContractError("stack_scalars: need at least one part")
    for p in parts:
        if p.values.ndim != 0:
            raise DimensionError(f"stack_scalars: need scalars, got shape {p.shape}")
    out = Tensor(np.array([p.values for p in parts], dtype=active_dtype()))
    tape = _taping(*parts)
    if tape is not None:
        tape.record((out,), parts, _unstack)
    return out


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack equal-length vectors into a matrix, one per row."""
    rows = list(rows)
    if not rows:
        raise ContractError("stack_rows: need at least one row")
    width = rows[0].size
    for r in rows:
        if r.values.ndim != 1 or r.size != width:
            raise DimensionError("stack_rows: rows must be equal-length vectors")
    out = Tensor(np.array([r.values for r in rows]))    # np.stack, at a fifth of the cost
    tape = _taping(*rows)
    if tape is not None:
        tape.record((out,), rows, _unstack)
    return out


def _unstack(g: np.ndarray) -> np.ndarray:
    """vjp of the two stacking ops: iterating ``g`` yields ``g[k]``, part k's delta."""
    return g


def expand_by_counts(v: Tensor, counts: Sequence[int]) -> Tensor:
    """Repeat each entry of a vector ``counts[i]`` times."""
    if v.values.ndim != 1 or v.size != len(counts):
        raise DimensionError("expand_by_counts: counts must align with vector entries")
    counts = np.asarray(counts, dtype=np.intp)
    out = Tensor(np.repeat(v.values, counts))
    tape = _taping(v)
    if tape is not None:
        def vjp(g):
            if not g.size:
                return (np.zeros_like(v.values),)
            offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
            return (np.add.reduceat(g, offsets),)

        tape.record((out,), (v,), vjp)
    return out


def transpose(m: Tensor) -> Tensor:
    if m.values.ndim != 2:
        raise DimensionError(f"transpose: need a matrix, got shape {m.shape}")
    out = Tensor(m.values.T)
    tape = _taping(m)
    if tape is not None:
        tape.record((out,), (m,), lambda g: (g.T,))
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix/vector product covering 2d@2d, 2d@1d, 1d@2d and 1d@1d.

    Spelled ``ndarray.dot``: the same BLAS call as ``@``, bit for bit, but
    without the matmul ufunc's dispatch, which costs more than the product
    itself at this model's sizes.
    """
    an, bn = a.values.ndim, b.values.ndim
    if an not in (1, 2) or bn not in (1, 2):
        raise DimensionError(f"matmul: unsupported ranks {an} and {bn}")
    try:
        out_vals = a.values.dot(b.values)
    except ValueError as err:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}") from err
    out = Tensor(out_vals)
    tape = _taping(a, b)
    if tape is not None:
        def vjp(g):
            if an == 2 and bn == 2:
                return g.dot(b.values.T), a.values.T.dot(g)
            if an == 2:
                return np.outer(g, b.values), a.values.T.dot(g)
            if bn == 2:
                return b.values.dot(g), np.outer(a.values, g)
            return g * b.values, g * a.values

        tape.record((out,), (a, b), vjp)
    return out


# ---------------------------------------------------------------------------
# softmax


def softmax_masked(scores: Tensor, mask: Sequence[bool] | np.ndarray) -> Tensor:
    """Shift-stabilized softmax over the unmasked positions.

    Masked positions get probability exactly 0. Raises
    :class:`InvalidMaskError` when no position is admissible.
    """
    if scores.values.ndim != 1:
        raise DimensionError(f"softmax_masked: need a vector, got shape {scores.shape}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != scores.shape:
        raise DimensionError(f"softmax_masked: mask shape {mask.shape} vs scores {scores.shape}")
    if not mask.any():
        raise InvalidMaskError("softmax_masked: mask admits no position")
    if not np.isfinite(scores.values[mask]).all():
        raise NumericError("softmax_masked: non-finite score at an unmasked position")

    shifted = scores.values - scores.values[mask].max()
    weights = np.where(mask, np.exp(np.where(mask, shifted, 0.0)), 0.0)
    return _softmax_result(scores, weights / weights.sum())


def softmax(scores: Tensor) -> Tensor:
    """Softmax with all positions admissible.

    Equal bit for bit to :func:`softmax_masked` under an all-true mask,
    without building or applying the mask.
    """
    if scores.values.ndim != 1:
        raise DimensionError(f"softmax: need a vector, got shape {scores.shape}")
    if not scores.size:
        raise InvalidMaskError("softmax: no position to normalize over")
    v = scores.values
    if not np.logical_and.reduce(np.isfinite(v)):
        raise NumericError("softmax: non-finite score")
    weights = np.exp(v - np.maximum.reduce(v))
    return _softmax_result(scores, weights / np.add.reduce(weights))


def _softmax_result(scores: Tensor, probs: np.ndarray) -> Tensor:
    out = Tensor(probs)
    tape = _taping(scores)
    if tape is not None:
        tape.record((out,), (scores,), lambda g: (out.values * (g - np.dot(out.values, g)),))
    return out
