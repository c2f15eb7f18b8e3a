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
that require a gradient. A delta is None when no path from the input
reaches the loss through the entry, an array of the input's shape, or,
for a matrix input, a tuple of factors ``(u1, v1, u2, v2, ...)``
standing for the sum of outer products ``Σ u_k v_kᵀ``; a factor pair
may also be two matrices with one row per pair, standing for ``UᵀV``.
The tape adds an array at once: a tensor's first array delta is adopted
as an owned copy and later ones are added to it. It keeps the factors
of a tensor pending and adds them as one product ``UᵀV`` of the stacked
factors when the gradient is first read: by the vjp of the entry that
produced the tensor, or at the end of :meth:`Tape.backward` for the
leaves. A weight matrix that every decoder step multiplies (the LSTM
cell's, the attention matrices, the output projections) thus gets one
matrix product per backward instead of one outer product per step.

Fused operations record a whole decoder composite as one entry:
:func:`link_scores` (a schema frontier's scorer), :func:`output_layer`
(a decoder call's output layer: the products its steps share, then
each frontier's scorer and subtree products and mixture), :func:`mixture`
(generation softmax, masked copy softmax, sigmoid gate, mix) and
:func:`nll` (a turn's summed negative log-likelihood). :func:`attention`
(bilinear scores, softmax, optional gate rescaling, context) is one
attention as one entry; the LSTM module's decoder recurrence runs its
halves, ``_attention_weights`` and ``_attention_back``, at each step.
:func:`output_layer` runs the halves of :func:`rows_matmul`
(``_rows_matmul_values``, ``_rows_matmul_back``) and of :func:`mixture`
(``_mixture_values``, ``_mixture_back``) the same way. The array helpers
``_softmax_values``, ``_masked_softmax_values`` and ``_sigmoid_values``
compute their parts.
A plain softmax is the one-part :func:`mixture` without copy inputs.
:func:`mixture` and :func:`nll` also take matrices with one row per
decoder step, :func:`rows_matmul` multiplies each row of a matrix by a
weight matrix and :func:`partition` hands out blocks of rows. Every
row-wise result equals the one-row (vector) case bit for bit: products
run one row at a time (``_rows_dot``) and reductions run along each row.
Each job has one op: :func:`take_rows` with an int index picks one row,
:func:`matmul` of two vectors is their dot product, and
:func:`scale_by` multiplies by a scalar. The parser calls every public
op but :func:`mul` and :func:`reduce_sum`, the tests' loss algebra (no
other op sums a matrix against weights), and :func:`transpose`,
:func:`attention`, :func:`rows_matmul` and :func:`partition`, from which
the tests compose their references (:func:`output_layer`'s is a
composition of :func:`rows_matmul`, :func:`partition` and
:func:`mixture`, with :func:`stack`, :func:`concat`, :func:`tanh` and
:func:`add`).
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
    ``vjp(*output_grads)`` returns one delta per input: an array,
    factors ``(u1, v1, ...)`` (see the module docstring), or None for an
    input no path to the loss reaches through the entry. A single-output
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
        sums its deltas in a fixed order; factored deltas are summed by
        one product when the tensor's gradient is first read. Tensors
        recorded on the tape but not on any path to ``loss`` end up with
        zero gradients.
        """
        if loss.shape != ():
            raise ContractError(f"loss must be a scalar, got shape {loss.shape}")
        one = np.ones((), dtype=loss.values.dtype)
        loss.grad = one if loss.grad is None else loss.grad + one
        pending: dict[Tensor, list] = {}    # tensor -> its factors [u1, v1, u2, v2, ...]
        skipped = []
        for outputs, inputs, vjp in reversed(self._entries):
            for out in outputs:         # every later reader of out has run
                factors = pending.pop(out, None)
                if factors is not None:
                    _add_factors(out, factors)
            grads = [out.grad for out in outputs]
            if all(g is None for g in grads):
                skipped.append(inputs)      # no path from here to the loss
                continue
            for t, delta in zip(inputs, vjp(*grads)):
                if not t.requires_grad:
                    continue
                if delta is None:           # no path from this input to the loss
                    skipped.append((t,))
                elif type(delta) is tuple:
                    factors = pending.get(t)
                    if factors is None:
                        pending[t] = list(delta)
                    else:
                        factors.extend(delta)
                elif t.grad is None:
                    # Adopt an owned copy: deltas may be views of another
                    # tensor's gradient (``add`` passes one array to both
                    # inputs; ``concat`` and ``stack`` hand out slices),
                    # and a later ``+=`` must not write through.
                    t.grad = np.array(delta, dtype=t.values.dtype)
                else:
                    t.grad += delta
        for t, factors in pending.items():
            _add_factors(t, factors)
        # Every input of an entry that ran got a delta or None, so only
        # those and the inputs of skipped entries can still lack a gradient.
        for inputs in skipped:
            for t in inputs:
                if t.requires_grad and t.grad is None:
                    t.grad = np.zeros_like(t.values)


def _factors_product(factors) -> np.ndarray:
    """``Σ u_k v_kᵀ`` of ``factors`` given as ``[u1, v1, u2, v2, ...]``,
    as one product of the stacked factors. A pair of matrices
    contributes each of its rows as a pair."""
    us, vs = factors[0::2], factors[1::2]
    if any(u.ndim == 2 for u in us):
        us = np.concatenate([u.reshape(-1, u.shape[-1]) for u in us])
        vs = np.concatenate([v.reshape(-1, v.shape[-1]) for v in vs])
    else:
        us, vs = np.array(us), np.array(vs)
    return us.T.dot(vs)


def _add_factors(t: Tensor, factors: list) -> None:
    """Add the product of ``factors`` to ``t``'s gradient."""
    delta = _factors_product(factors)
    if t.grad is None:
        t.grad = delta.astype(t.values.dtype, copy=False)
    else:
        t.grad += delta


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
    """``a + b``; a scalar ``b`` is added to every entry of ``a``."""
    if b.shape != ():
        _require_same_shape(a, b, "add")
    out = Tensor(a.values + b.values)
    tape = _taping(a, b)
    if tape is not None:
        if b.shape == a.shape:
            tape.record((out,), (a, b), lambda g: (g, g))
        else:       # b's delta: a's entries' deltas summed last to first, one by one
            tape.record((out,), (a, b), lambda g: (g, np.add.accumulate(g.ravel()[::-1])[-1]))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")
    out = Tensor(a.values * b.values)
    tape = _taping(a, b)
    if tape is not None:
        tape.record((out,), (a, b), lambda g: (g * b.values, g * a.values))
    return out


def scale_by(a: Tensor, s: Tensor) -> Tensor:
    """Multiply an array by a scalar tensor; differentiable in both."""
    if s.shape != ():
        raise DimensionError(f"scale_by: scale must be scalar, got {s.shape}")
    out = Tensor(a.values * s.values)
    tape = _taping(a, s)
    if tape is not None:
        tape.record((out,), (a, s), lambda g: (g * s.values, np.sum(g * a.values)))
    return out


# ---------------------------------------------------------------------------
# nonlinearities


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.values))
    tape = _taping(a)
    if tape is not None:
        tape.record((out,), (a,), lambda g: (g * (1.0 - out.values * out.values),))
    return out


def _sigmoid_values(v: np.ndarray) -> np.ndarray:
    """Overflow-free: 1 / (1 + exp(-v)) for v >= 0, exp(v) / (1 + exp(v))
    below, both from e = exp(-|v|) <= 1."""
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


# ---------------------------------------------------------------------------
# reductions, indexing, shaping


def reduce_sum(a: Tensor) -> Tensor:
    out = Tensor(np.add.reduce(a.values, axis=None))     # np.sum without its wrapper
    tape = _taping(a)
    if tape is not None:
        tape.record((out,), (a,), lambda g: (np.full_like(a.values, g),))
    return out


def take_rows(m: Tensor, indices: Sequence[int] | int) -> Tensor:
    """Gather rows of a matrix; repeated indices accumulate gradient. An
    int index gives that one row as a vector."""
    if m.values.ndim != 2:
        raise DimensionError(f"take_rows: need a matrix, got shape {m.shape}")
    # One row is a view, at a quarter of take's cost; take gathers a list
    # at half the cost of fancy indexing.
    out = Tensor(m.values[indices] if type(indices) is int else m.values.take(indices, axis=0))
    tape = _taping(m)
    if tape is not None:
        idx = np.asarray(indices, dtype=np.intp)

        def vjp(g):
            delta = np.zeros_like(m.values)
            np.add.at(delta, idx, g)
            return (delta,)

        tape.record((out,), (m,), vjp)
    return out


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join vectors end to end, or matrices along ``axis``: 0 stacks
    their rows, 1 sets them side by side."""
    parts = list(parts)
    if not parts:
        raise ContractError("concat: need at least one part")
    try:
        values = np.concatenate([p.values for p in parts], axis=axis)
    except ValueError as err:     # scalars, mixed ranks, or no such axis (an AxisError)
        raise DimensionError(f"concat: shapes {[p.shape for p in parts]} do not "
                             f"line up along axis {axis}") from err
    if values.ndim > 2:
        raise DimensionError(f"concat: need vectors or matrices, got shape {parts[0].shape}")
    out = Tensor(values)
    tape = _taping(*parts)
    if tape is not None:
        tape.record((out,), parts, lambda g: _split(g, parts, axis))
    return out


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape scalars into a vector, or vectors into a matrix."""
    parts = list(parts)
    if not parts:
        raise ContractError("stack: need at least one part")
    try:
        values = np.array([p.values for p in parts])    # np.stack, at a fifth of the cost
    except ValueError as err:     # parts of unequal shapes
        raise DimensionError(f"stack: need equal shapes, got {[p.shape for p in parts]}") from err
    if values.ndim > 2:
        raise DimensionError(f"stack: need scalars or vectors, got shape {parts[0].shape}")
    out = Tensor(values)
    tape = _taping(*parts)
    if tape is not None:
        tape.record((out,), parts, lambda g: g)    # g[k] is part k's delta
    return out


def expand_by_counts(v: Tensor, counts: Sequence[int]) -> Tensor:
    """Repeat each entry of a vector ``counts[i]`` times."""
    if v.values.ndim != 1 or v.size != len(counts):
        raise DimensionError("expand_by_counts: counts must align with vector entries")
    counts = np.asarray(counts, dtype=np.intp)
    out = Tensor(np.repeat(v.values, counts))
    tape = _taping(v)
    if tape is not None:
        # reduceat would hand a zero-count entry the element at its
        # offset, so only entries with segments take part.
        nonempty = counts > 0
        starts = (np.cumsum(counts) - counts)[nonempty]

        def vjp(g):
            delta = np.zeros_like(v.values)
            delta[nonempty] = np.add.reduceat(g, starts)
            return (delta,)

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


def partition(m: Tensor, blocks: Sequence[Sequence[int] | int]) -> list[Tensor]:
    """Disjoint blocks of the rows of a matrix (entries of a vector) as
    one tape entry: a list of indices gathers those rows, an int index
    gives that one row as a vector, as in :func:`take_rows`. No row is
    in two blocks, so the vjp places each block's gradient without
    adding; a row in none gets a zero gradient."""
    rows = m.values
    if rows.ndim not in (1, 2):
        raise DimensionError(f"partition: need a vector or a matrix, got shape {m.shape}")
    picked = [i for b in blocks for i in ((b,) if type(b) is int else b)]
    if len(set(picked)) != len(picked) or not all(0 <= i < len(rows) for i in picked):
        raise ContractError(f"partition: blocks {list(blocks)} for {len(rows)} rows")
    outs = [Tensor(rows[b] if type(b) is int else rows.take(b, axis=0)) for b in blocks]
    tape = _taping(m)
    if tape is not None:
        def vjp(*grads):
            delta = np.zeros_like(rows)
            for b, g in zip(blocks, grads):
                if g is not None:
                    delta[b] = g
            return (delta,)

        tape.record(outs, (m,), vjp)
    return outs


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
                return (g, b.values), a.values.T.dot(g)
            if bn == 2:
                return b.values.dot(g), (a.values, g)
            return g * b.values, g * a.values

        tape.record((out,), (a, b), vjp)
    return out


def link_scores(exact: Tensor, partial: Tensor, w_exact: Tensor, w_partial: Tensor,
                tokens: Tensor, names: Tensor) -> Tensor:
    """``exact · w_exact + partial · w_partial + tokens · namesᵀ`` as one
    tape entry: two feature matrices scaled by scalar weights, plus the
    product of a matrix with one row per feature row (the question
    tokens' embeddings) and the transposed view of one with a row per
    feature column (the schema names'). Values and deltas equal, bit for
    bit, those of the same expression composed of :func:`scale_by`,
    :func:`add`, :func:`matmul` and :func:`transpose`.
    """
    ev, pv, tv, nv = exact.values, partial.values, tokens.values, names.values
    if w_exact.shape != () or w_partial.shape != ():
        raise DimensionError(f"link_scores: weights must be scalars, got {w_exact.shape} "
                             f"and {w_partial.shape}")
    if tv.ndim != 2 or nv.ndim != 2 or tv.shape[1] != nv.shape[1] \
            or not ev.shape == pv.shape == (tv.shape[0], nv.shape[0]):
        raise DimensionError(f"link_scores: features {exact.shape} and {partial.shape} "
                             f"for the product of {tokens.shape} and {names.shape} transposed")
    we, wp = w_exact.values, w_partial.values
    out = Tensor(ev * we + pv * wp + tv.dot(nv.T))
    inputs = (exact, partial, w_exact, w_partial, tokens, names)
    tape = _taping(*inputs)
    if tape is not None:
        tape.record((out,), inputs, lambda g: (
            g * we if exact.requires_grad else None, g * wp if partial.requires_grad else None,
            np.add.reduce(g * ev, axis=None), np.add.reduce(g * pv, axis=None),
            g.dot(nv), tv.T.dot(g).T))
    return out


def _rows_dot(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``m`` times a vector, or times each row of a matrix; a stack of
    matrices ``m[k]`` multiplies the rows ``rows[..., k, :]``.

    Each row's result equals ``m.dot(row)`` (``m[k].dot(row)``) bit for
    bit: the rows go through one matrix-vector product each (the stacked
    ``matmul`` against ``m``'s transposed view), as one GEMM over several
    rows would block the sums differently.
    """
    if rows.ndim == 1:
        return m.dot(rows)
    if m.ndim < 3:
        return np.matmul(rows[:, None, :], m.T)[:, 0]
    return np.matmul(rows[..., None, :], np.swapaxes(m, 1, 2))[..., 0, :]


def rows_matmul(x: Tensor, m: Tensor, transpose: bool = False) -> Tensor:
    """Each row of ``x`` times ``m``, or with ``transpose`` times ``mᵀ``
    (``m`` times each row); a vector ``x`` is the one-row case. A vector
    ``m`` gives each row's dot product with it.

    Each row's result equals :func:`matmul` on that row alone bit for bit
    (``matmul(row, m)``, or ``matmul(m, row)`` with ``transpose``): see
    ``_rows_dot``. ``m``'s delta is one factor pair, so a weight that
    several turns multiply still gets one matrix product per backward.
    The factors list the rows last to first: the tape then sums them in
    the order it sums those of one :func:`matmul` per row recorded in
    row order, so the gradients equal that unrolled form's bit for bit.
    """
    xv, mv = x.values, m.values
    if xv.ndim not in (1, 2) or mv.ndim not in (1, 2) or (transpose and mv.ndim != 2):
        raise DimensionError(f"rows_matmul: unsupported shapes {x.shape} and {m.shape}"
                             + " (transposed)" * transpose)
    a = mv if transpose else mv.T        # each row's result is a · row
    if xv.shape[-1] != a.shape[-1]:
        raise DimensionError(f"rows_matmul: incompatible shapes {x.shape} and {m.shape}"
                             + " (transposed)" * transpose)
    out = Tensor(_rows_matmul_values(xv, mv, transpose))
    tape = _taping(x, m)
    if tape is not None:
        tape.record((out,), (x, m), lambda g: _rows_matmul_back(xv, mv, transpose, g))
    return out


def _rows_matmul_values(x: np.ndarray, m: np.ndarray, transpose: bool) -> np.ndarray:
    """:func:`rows_matmul`'s value: ``a · row`` for each row of ``x``,
    with ``a = m`` under ``transpose`` and ``mᵀ`` otherwise."""
    a = m if transpose else m.T
    return a.dot(x) if x.ndim == 1 else _rows_dot(a, x)


def _rows_matmul_back(x: np.ndarray, m: np.ndarray, transpose: bool, g: np.ndarray) -> tuple:
    """:func:`rows_matmul`'s deltas of ``x`` and ``m`` from the gradient
    ``g`` of its value."""
    if m.ndim == 1:
        if x.ndim == 1:
            return g * m, g * x
        # Each row's delta g[r] x[r], summed last row first.
        return (g, m), np.add.accumulate((x.T * g).T[::-1], axis=0)[-1]
    a = m if transpose else m.T
    if x.ndim == 1:
        return a.T.dot(g), ((g, x) if transpose else (x, g))
    g_up, x_up = g[::-1], x[::-1]
    return _rows_dot(a.T, g), ((g_up, x_up) if transpose else (x_up, g_up))


# ---------------------------------------------------------------------------
# softmax arithmetic of the fused operations


def _softmax_values(v: np.ndarray) -> np.ndarray:
    """Shift-stabilized softmax of a score vector, or of each row of a
    matrix, all positions admissible."""
    if v.ndim not in (1, 2):
        raise DimensionError(f"softmax: need a vector or rows, got shape {v.shape}")
    if not v.shape[-1]:
        raise InvalidMaskError("softmax: no position to normalize over")
    if not np.logical_and.reduce(np.isfinite(v), axis=None):
        raise NumericError("softmax: non-finite score")
    if v.ndim == 1:
        weights = np.exp(v - np.maximum.reduce(v))
        return weights / np.add.reduce(weights)
    # Each row reduced along itself: the same sums as one row alone.
    weights = np.exp(v - np.maximum.reduce(v, axis=1, keepdims=True))
    return weights / np.add.reduce(weights, axis=1, keepdims=True)


def _masked_softmax_values(v: np.ndarray, mask) -> np.ndarray:
    """Shift-stabilized softmax over the positions ``mask`` admits, of a
    score vector or of each row of a matrix; the others get probability
    exactly 0. :func:`mixture` takes its copy distribution from it."""
    if v.ndim not in (1, 2):
        raise DimensionError(f"masked softmax: need a vector or rows, got shape {v.shape}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != v.shape[-1:]:
        raise DimensionError(f"masked softmax: mask shape {mask.shape} vs scores {v.shape}")
    admitted = v[..., mask]
    if not admitted.shape[-1]:
        raise InvalidMaskError("masked softmax: mask admits no position")
    if not np.logical_and.reduce(np.isfinite(admitted), axis=None):
        raise NumericError("masked softmax: non-finite score at an unmasked position")
    shifted = v - np.maximum.reduce(admitted, axis=-1, keepdims=True)
    weights = np.where(mask, np.exp(np.where(mask, shifted, 0.0)), 0.0)
    return weights / np.add.reduce(weights, axis=-1, keepdims=True)


def _softmax_vjp(probs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Scores delta of a (masked) softmax with output ``probs``, a
    vector or one distribution per row."""
    if probs.ndim == 1:
        return probs * (g - np.dot(probs, g))
    # Each row's dot product alone, as np.dot forms it for one row.
    return probs * (g - np.matmul(probs[:, None, :], g[:, :, None])[:, 0])


# ---------------------------------------------------------------------------
# fused decoder-step operations


def attention(memory: Tensor, w_e: Tensor, h: Tensor,
              coeffs: Tensor | None = None) -> tuple[Tensor, Tensor]:
    """Bilinear attention as one tape entry; returns (weights, context).

    ``scores = memory · (w_e · h)`` and ``weights = softmax(scores)``.
    Per-row ``coeffs``, when given, rescale the weights, which are then
    renormalized. The context is ``memoryᵀ · weights``, read through a
    transposed view of the memory. Either output may be left off the
    loss's path.
    """
    m = memory.values
    if m.ndim != 2 or h.values.ndim != 1 or w_e.shape != (m.shape[1], h.shape[0]):
        raise DimensionError(f"attention: memory {memory.shape}, matrix {w_e.shape} "
                             f"and query {h.shape} do not line up")
    if coeffs is not None and coeffs.shape != (m.shape[0],):
        raise DimensionError(f"attention: {coeffs.shape} coefficients for "
                             f"{m.shape[0]} memory rows")
    u = w_e.values.dot(h.values)
    cv = None if coeffs is None else coeffs.values
    base, weights, weighted, total = _attention_weights(m, u, cv)
    out_a = Tensor(weights)
    out_c = Tensor(m.T.dot(weights))

    inputs = (memory, w_e, h) if coeffs is None else (memory, w_e, h, coeffs)
    tape = _taping(*inputs)
    if tape is not None:
        w, hv = w_e.values, h.values
        tape.record((out_a, out_c), inputs, lambda ga, gc: _attention_back(
            m, w, hv, u, base, weights, ga, gc, cv, weighted, total))
    return out_a, out_c


def _attention_weights(m: np.ndarray, u: np.ndarray, coeffs: np.ndarray | None) -> tuple:
    """:func:`attention`'s weights over the rows of ``m`` for the query
    ``u = w_e·h``: the softmax ``base`` of the scores ``m·u``, the
    ``weights``, and with coefficients ``weighted = base·coeffs`` and
    its sum ``total`` (both None without)."""
    base = _softmax_values(m.dot(u))
    if coeffs is None:
        return base, base, None, None
    weighted = base * coeffs
    total = np.add.reduce(weighted)
    return base, weighted / total, weighted, total


def _attention_back(m, w_e, h, u, base, weights, ga, gc, coeffs=None, weighted=None,
                    total=None) -> tuple:
    """The deltas of :func:`attention`'s inputs (memory, matrix, query,
    then the coefficients when given), from the gradients ``ga`` and
    ``gc`` of its weights and context, at most one of them None, and the
    arrays of its forward: ``u = w_e·h``, the softmax ``base`` and the
    ``weights``, and with coefficients ``weighted = base·coeffs`` and
    its sum ``total``. :func:`~dialsql.nn.lstm.lstm_cell` runs each
    step's attentions back through it too."""
    if gc is None:
        da = ga
    else:
        da = m.dot(gc) if ga is None else ga + m.dot(gc)
    dbase = da
    if coeffs is not None:
        # The quotient rule as d(w / S) plus the sum's broadcast
        # delta; (da - da·a) / S loses digits to cancellation.
        dweighted = da / total + (-np.add.reduce(da * weighted, axis=None) / (total * total))
        dbase = dweighted * coeffs
    ds = _softmax_vjp(base, dbase)
    du = m.T.dot(ds)
    dm = (ds, u) if gc is None else (ds, u, weights, gc)
    if coeffs is None:
        return dm, (du, h), w_e.T.dot(du)
    return dm, (du, h), w_e.T.dot(du), dweighted * base


def mixture(logits: Sequence[Tensor], copy_scores: Tensor | None = None,
            copy_mask=None, copy_agg: np.ndarray | None = None,
            gate: Tensor | None = None) -> tuple[Tensor, Tensor, Tensor | None, Tensor | None]:
    """The decoder's output distribution as one tape entry.

    Returns ``(probs, gen_probs, copy_probs, p_copy)``. ``gen_probs`` is
    the softmax over the concatenated ``logits`` parts (productions,
    then subtrees). Without copy inputs it is also ``probs``, and the
    copy outputs are None: ``mixture([scores])[0]`` is the softmax of
    ``scores``. With them, a softmax over ``copy_scores``
    restricted to ``copy_mask`` is summed onto the support by the 0/1
    matrix ``copy_agg`` into ``copy_probs``; ``p_copy = sigmoid(gate)``
    and ``probs = p_copy · copy_probs + (1 - p_copy) · gen_probs``.

    Vectors and a scalar gate are one step. Matrices with one row per
    step and one gate per step give one distribution per row, each
    equal bit for bit to its step alone; the mask and the aggregation
    are shared by every row.
    """
    parts = list(logits)
    if not parts:
        raise ContractError("mixture: need at least one logits part")
    try:
        v = parts[0].values if len(parts) == 1 else np.concatenate([p.values for p in parts], -1)
    except ValueError as err:       # scalars, mixed ranks or unequal numbers of rows
        raise DimensionError(f"mixture: need logit vectors or equal numbers of rows, "
                             f"got shapes {[p.shape for p in parts]}") from err
    gen = _softmax_values(v)        # v is a vector or has rows
    out_gen = Tensor(gen)
    axis = v.ndim - 1

    if copy_scores is None:
        if not (copy_mask is None and copy_agg is None and gate is None):
            raise ContractError("mixture: copy inputs need copy scores")
        tape = _taping(*parts)
        if tape is not None:
            tape.record((out_gen,), parts, lambda g: _split(_softmax_vjp(gen, g), parts, axis))
        return out_gen, out_gen, None, None

    if copy_mask is None or copy_agg is None or gate is None:
        raise ContractError("mixture: copy scores need a mask, an aggregation and a gate")
    if gate.shape != v.shape[:-1]:
        raise DimensionError(f"mixture: gate {gate.shape} for logits {v.shape}")
    p = _sigmoid_values(gate.values)
    q = -1.0 * p + 1.0
    pos, copy, probs = _mixture_values(gen, copy_scores.values, copy_mask, copy_agg, p, q)
    out_probs, out_copy, out_p = Tensor(probs), Tensor(copy), Tensor(p)
    inputs = (*parts, copy_scores, gate)
    tape = _taping(*inputs)
    if tape is not None:
        def vjp(*grads):
            dv, dscores, dgate = _mixture_back(gen, pos, copy, p, q, copy_agg, *grads)
            return (*_split(dv, parts, axis), dscores, dgate)

        tape.record((out_probs, out_gen, out_copy, out_p), inputs, vjp)
    return out_probs, out_gen, out_copy, out_p


def _mixture_values(gen: np.ndarray, scores: np.ndarray, mask, agg: np.ndarray,
                    p, q) -> tuple:
    """:func:`mixture`'s copy half, given the generation softmax ``gen``
    and the gate's sigmoid ``p`` and ``q = 1 - p``: returns the masked
    copy softmax ``pos`` of ``scores``, the copy distribution
    ``agg · pos`` and the mixed probabilities."""
    if agg.shape != (gen.shape[-1], scores.shape[-1]) or scores.shape[:-1] != gen.shape[:-1]:
        raise DimensionError(f"mixture: aggregation {agg.shape} and copy scores "
                             f"{scores.shape} for logits {gen.shape}")
    pos = _masked_softmax_values(scores, mask)
    copy = _rows_dot(agg, pos)
    # One gate per row of the distributions.
    return pos, copy, copy * p[..., None] + gen * q[..., None]


def _mixture_back(gen, pos, copy, p, q, agg, g, g_gen, g_copy, g_p) -> tuple:
    """The deltas of :func:`mixture`'s joined logits, copy scores and
    gate, from the gradients of its four outputs (any of them None), the
    gate's ``p`` and ``q`` and the arrays :func:`_mixture_values`
    returned."""
    if g is None:
        g = np.zeros_like(copy)
    dgen = g * q[..., None]
    dcopy = g * p[..., None]
    dp = np.add.reduce(g * copy, axis=-1) - np.add.reduce(g * gen, axis=-1)
    if g_gen is not None:
        dgen += g_gen
    if g_copy is not None:
        dcopy += g_copy
    if g_p is not None:
        dp += g_p
    dpos = dcopy.dot(agg)
    return _softmax_vjp(gen, dgen), _softmax_vjp(pos, dpos), dp * p * (1.0 - p)


def output_layer(hs: Sequence[Tensor], contexts: Sequence[Tensor], weights: Sequence[Tensor],
                 groups: Sequence[tuple], w_o: Tensor | None = None, w_t: Tensor | None = None,
                 copy: tuple[Tensor, Tensor, Tensor, Tensor] | None = None) -> list[tuple]:
    """The decoder's output layer over the steps of one call as one tape
    entry; returns each group's ``(probs, gen_probs, copy_probs,
    p_copy)``, as :func:`mixture` returns them.

    Step ``k`` has the hidden state ``hs[k]``, the attention context
    ``contexts[k]`` and the question-attention weights ``weights[k]``.
    A group ``(steps, scorer, linked, subtrees, copy_mask, copy_agg)``
    holds the steps that expand one frontier; the groups' steps number
    every step once. First the products that the steps share are formed
    once over all of them, each only when a group reads it: the
    projection ``tanh([h; c]·w_o)``, the subtree query ``h·w_t`` and,
    from ``copy = (w_l, states, w_c, b_c)``, the copy scores
    ``(h·w_l)·statesᵀ`` and the gate ``h·w_c + b_c``, with its sigmoid.
    A weight that no group reads may be None. Then each group
    scores its steps: a ``linked`` group by ``weights·scorer`` (the
    scorer a matrix with one row per question token), the others by
    ``projection·scorerᵀ`` (one scorer row per production); ``subtrees``,
    when given, adds the logits ``(h·w_t)·subtreesᵀ``; and the group's
    rows go through :func:`mixture`, with its copy inputs when
    ``copy_mask`` is given. A group of one step gets vectors and scalars,
    one of several one row per step.

    Values and gradients equal, bit for bit, those of the composition of
    :func:`stack`, :func:`concat`, :func:`rows_matmul`, :func:`tanh`,
    :func:`add`, :func:`partition` and :func:`mixture` that scores the
    same steps (the stacked rows ``every`` of all steps, the shared
    products over them, then each group's rows). The vjp replays that
    composition's backward: its deltas are listed, and summed, in the
    order its entries' backwards add them, so a one-step call hands
    ``hs[0]`` the gate product's delta first, and a call of several
    steps adds that product's factors to the stacked rows' gradient last.
    """
    n = len(hs)
    if not groups or len(contexts) != n or len(weights) != n:
        raise ContractError(f"output_layer: {n} hidden states, {len(contexts)} contexts and "
                            f"{len(weights)} attention weights in {len(groups)} groups")
    whole = len(groups) == 1            # its rows are the shared products' rows
    blocks = []
    generated = treed = copied = False
    for steps, _, linked, subtrees, mask, _ in groups:
        blocks.append(steps[0] if len(steps) == 1 else steps)
        generated = generated or not linked
        treed = treed or subtrees is not None
        copied = copied or mask is not None
    if not (blocks == [0] if n == 1
            else sorted(k for g in groups for k in g[0]) == list(range(n))):
        raise ContractError(f"output_layer: groups of steps {[list(g[0]) for g in groups]} "
                            f"for {n} steps")
    every = blocks[0] if whole else range(n)
    one = n == 1
    shared = generated or treed or copied
    if (generated and w_o is None) or (treed and w_t is None) or (copied and copy is None):
        raise ContractError("output_layer: a group needs a weight that is not given")
    if copied:
        w_l, states, w_c, b_c = copy
        if b_c.shape != ():
            raise DimensionError(f"output_layer: gate bias shape {b_c.shape}, need a scalar")

    def group_rows(values, block):
        if whole:
            return values
        return values[block] if type(block) is int else values.take(block, axis=0)

    try:
        if shared:
            hv = _step_values(hs, every)
        if generated:
            joined = np.concatenate([hv, _step_values(contexts, every)], hv.ndim - 1)
            proj = np.tanh(_rows_matmul_values(joined, w_o.values, False))
        if treed:
            tree = _rows_matmul_values(hv, w_t.values, False)
        if copied:
            latent = _rows_matmul_values(hv, w_l.values, False)
            scores = _rows_matmul_values(latent, states.values, True)
            gates = _rows_matmul_values(hv, w_c.values, False) + b_c.values
            # The gate's sigmoid p and 1 - p, for every step at once.
            p_copy = _sigmoid_values(gates)
            p_gen = -1.0 * p_copy + 1.0
        kept, results = [], []
        for (steps, scorer, linked, subtrees, mask, agg), b in zip(groups, blocks):
            x = _step_values(weights, b) if linked else group_rows(proj, b)
            v = _rows_matmul_values(x, scorer.values, not linked)
            width = v.shape[-1]
            t = None
            if subtrees is not None:
                t = group_rows(tree, b)
                v = np.concatenate([v, _rows_matmul_values(t, subtrees.values, True)], -1)
            gen = _softmax_values(v)
            if mask is None:
                out = Tensor(gen)
                results.append((out, out, None, None))
                kept.append((x, t, width, gen, None))
            else:
                p, q = group_rows(p_copy, b), group_rows(p_gen, b)
                pos, mixed, probs = _mixture_values(gen, group_rows(scores, b), mask, agg, p, q)
                results.append((Tensor(probs), Tensor(gen), Tensor(mixed), Tensor(p)))
                kept.append((x, t, width, gen, (pos, mixed, p, q)))
    except ValueError as err:       # shapes that do not line up
        raise DimensionError(f"output_layer: {err}") from err

    if not _open_tapes:
        return results
    # The inputs in the order the composition's backward reaches them:
    # each group's entries, last group first, then the shared products'.
    inputs, slots = [], []
    for (steps, scorer, linked, subtrees, mask, agg), b in zip(groups, blocks):
        mine = [] if subtrees is None else [subtrees]
        if not linked:
            mine.append(scorer)
        elif type(b) is int:
            mine += (weights[b], scorer)
        else:
            mine += (scorer, *(weights[k] for k in b))
        slots.append(mine)
    for mine in reversed(slots):
        inputs += mine
    h_one = [hs[every]] if one else []
    if copied:
        inputs += (b_c, *h_one, w_c, states, *h_one, w_l)
    if treed:
        inputs += (*h_one, w_t)
    if generated:
        inputs += (w_o, hs[every], contexts[every]) if one \
            else (w_o, *(contexts[k] for k in every))
    if shared and not one:
        inputs += (hs[k] for k in every)
    tape = _taping(*inputs)
    if tape is None:
        return results
    outputs = [t for r in results for t in (r if r[2] is not None else r[:1])]

    def vjp(*grads):
        deltas = []
        d_proj = d_tree = d_scores = d_gates = None
        at = len(grads)

        def place(acc, values, b, d):       # partition's vjp, one block at a time
            if whole:
                return d
            if acc is None:
                acc = np.zeros_like(values)
            acc[b] = d
            return acc

        for g in range(len(groups) - 1, -1, -1):
            steps, scorer, linked, subtrees, mask, agg = groups[g]
            x, t, width, gen, arrays = kept[g]
            b = blocks[g]
            at -= 1 if arrays is None else 4
            mine = grads[at:at + (1 if arrays is None else 4)]
            if all(d is None for d in mine):         # no path to the loss
                deltas += [None] * len(slots[g])
                continue
            if arrays is None:
                dv = _softmax_vjp(gen, mine[0])
            else:
                dv, dscores, dgate = _mixture_back(gen, *arrays, agg, *mine)
                d_scores = place(d_scores, scores, b, dscores)
                d_gates = place(d_gates, gates, b, dgate)
            if subtrees is not None:
                dt, dsub = _rows_matmul_back(t, subtrees.values, True, dv[..., width:])
                deltas.append(dsub)
                d_tree = place(d_tree, tree, b, dt)
                dv = dv[..., :width]
            dx, dscorer = _rows_matmul_back(x, scorer.values, not linked, dv)
            if not linked:
                deltas.append(dscorer)
                d_proj = place(d_proj, proj, b, dx)
            elif type(b) is int:
                deltas += (dx, dscorer)
            else:
                deltas += (dscorer, *dx)

        # The stacked rows' array deltas in order, then their factors.
        h_arrays, h_factors = [], None
        if copied:
            if d_gates is None:
                deltas += [None] * (4 + 2 * one)
            else:
                d_bias = d_gates if one else np.add.accumulate(d_gates.ravel()[::-1])[-1]
                dh_gate, dw_c = _rows_matmul_back(hv, w_c.values, False, d_gates)
                d_latent, d_states = _rows_matmul_back(latent, states.values, True, d_scores)
                dh_latent, dw_l = _rows_matmul_back(hv, w_l.values, False, d_latent)
                if one:
                    deltas += (d_bias, dh_gate, dw_c, d_states, dh_latent, dw_l)
                else:
                    h_factors = dh_gate
                    h_arrays.append(dh_latent)
                    deltas += (d_bias, dw_c, d_states, dw_l)
        if treed:
            if d_tree is None:
                deltas += [None] * (1 + one)
            else:
                dh_tree, dw_t = _rows_matmul_back(hv, w_t.values, False, d_tree)
                if one:
                    deltas += (dh_tree, dw_t)
                else:
                    h_arrays.append(dh_tree)
                    deltas.append(dw_t)
        if generated:
            if d_proj is None:
                deltas += [None] * (3 if one else 1 + n)
            else:
                d_joined, dw_o = _rows_matmul_back(joined, w_o.values, False,
                                                   d_proj * (1.0 - proj * proj))
                size = hv.shape[-1]
                if one:
                    deltas += (dw_o, d_joined[:size], d_joined[size:])
                else:
                    h_arrays.append(d_joined[:, :size])
                    deltas.append(dw_o)
                    deltas.extend(d_joined[:, size:])
        if shared and not one:
            if not h_arrays:
                deltas += [None] * n
            else:
                dh = np.array(h_arrays[0], dtype=hv.dtype)
                for d in h_arrays[1:]:
                    dh += d
                if h_factors is not None:
                    dh += _factors_product(h_factors)
                deltas.extend(dh)
        return deltas

    tape.record(outputs, inputs, vjp)
    return results


def _step_values(items: Sequence[Tensor], block) -> np.ndarray:
    """The values of ``items[block]`` for an int ``block``, or those of
    the items of ``block`` stacked one row each, as :func:`stack` stacks
    them."""
    if type(block) is int:
        return items[block].values
    return np.array([items[k].values for k in block])


def _split(g: np.ndarray, parts: list[Tensor], axis: int = 0) -> list[np.ndarray]:
    """Slices of ``g`` along ``axis``, one per concatenated part. Bounds
    come from a running offset: cheaper than np.cumsum at these sizes."""
    if len(parts) == 1:
        return [g]
    deltas, lo = [], 0
    for p in parts:
        hi = lo + p.shape[axis]
        deltas.append(g[lo:hi] if axis == 0 else g[:, lo:hi])
        lo = hi
    return deltas


def nll(probs: Sequence[Tensor], targets: Sequence, order: Sequence[int] | None = None) -> Tensor:
    """Summed negative log-likelihood ``-Σ log p[target]`` as one tape
    entry.

    A part of ``probs`` is one distribution (a vector, whose target is
    one index) or several (a matrix with one distribution per row, whose
    target is one index per row). The terms are numbered part by part
    and row by row, and added left to right in the order ``order``
    lists their numbers; without it, in numbered order.
    """
    probs = list(probs)
    targets = list(targets)
    if not probs or len(probs) != len(targets):
        raise ContractError(f"nll: {len(probs)} distributions for {len(targets)} targets")
    at, picked, size = [], [], 0        # each term's place among all entries, and value
    for p, t in zip(probs, targets):
        v = p.values
        if v.ndim == 1:
            if not 0 <= t < len(v):
                raise ContractError(f"nll: target {t} of {len(v)} candidates")
            at.append(size + t)
            picked.append(v[t])
        elif v.ndim == 2 and len(t) == len(v):
            width = v.shape[1]
            for row, k in enumerate(t):
                if not 0 <= k < width:
                    raise ContractError(f"nll: target {k} of {width} candidates")
                at.append(size + row * width + k)
                picked.append(v[row, k])
        else:
            raise DimensionError(f"nll: {p.shape} probabilities for targets {t}")
        size += v.size
    chosen = np.array(picked)           # in numbered order
    terms = 0.0 - np.log(chosen)
    if order is not None:
        if sorted(order) != list(range(len(at))):
            raise ContractError(f"nll: order {list(order)} for {len(at)} terms")
        terms = terms[order]
    out = Tensor(np.add.accumulate(terms)[-1])
    tape = _taping(*probs)
    if tape is not None:
        def vjp(g):
            delta = np.zeros(size, dtype=chosen.dtype)
            delta[at] = -g / chosen
            deltas, lo = [], 0
            for p in probs:
                deltas.append(delta[lo:lo + p.values.size].reshape(p.values.shape))
                lo += p.values.size
            return deltas

        tape.record((out,), probs, vjp)
    return out
