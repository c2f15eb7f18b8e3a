"""LSTM cells and fused sequence passes on top of the tensor tape.

Two operations share one step kernel, :func:`_step`, so a step computes
the same values bit for bit in both, and one backward, :func:`_bptt`:

- :func:`lstm_cell` is one step and one tape entry. Its vjp runs
  :func:`_bptt` over a one-step pass from the given states; either of
  ``dh'`` and ``dc'`` may be missing and then counts as zero.
- :func:`lstm_sequence` runs a whole encoder pass from zero states, one
  or two directions over the rows of an input matrix, as one tape
  entry. Each direction's weight gradients are one ``dZᵀX`` and one
  ``dZᵀH_prev`` product over all steps.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import ContractError, DimensionError, Tensor, _taping

__all__ = ["LSTMCellParams", "lstm_cell", "lstm_sequence"]

# The order in which direction k of a sequence pass reads the rows; the
# same slice maps its reading-order states back to row order.
_READING_ORDER = (slice(None), slice(None, None, -1))


class LSTMCellParams:
    """Weights of one LSTM direction.

    Gate blocks are stacked in i, f, g, o order along the first axis of
    ``w_ih``/``w_hh`` and of ``b``.
    """

    def __init__(self, w_ih: Tensor, w_hh: Tensor, b: Tensor):
        hidden4 = w_ih.shape[0]
        if hidden4 % 4 != 0:
            raise DimensionError(f"gate weight rows must be 4*hidden, got {hidden4}")
        if w_hh.shape != (hidden4, hidden4 // 4) or b.shape != (hidden4,):
            raise DimensionError("inconsistent LSTM parameter shapes")
        self.w_ih = w_ih
        self.w_hh = w_hh
        self.b = b
        self.hidden_size = hidden4 // 4
        self.input_size = w_ih.shape[1]

    def tensors(self) -> list[Tensor]:
        return [self.w_ih, self.w_hh, self.b]


def _step(params: LSTMCellParams, x: np.ndarray, h: np.ndarray,
          c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One LSTM step on arrays; returns (h', c', sig, g).

    ``sig`` holds the i, f and o gates at their blocks of the stacked
    pre-activation (the g block's entries go unused) and ``g`` the
    candidate cell input.
    """
    hs = params.hidden_size
    z = params.w_ih.values.dot(x)
    z += params.w_hh.values.dot(h)
    z += params.b.values
    # One exp for the three sigmoid gates, computed in place:
    # sig = 1 / (1 + exp(-z)).
    sig = np.negative(z)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    g = np.tanh(z[2 * hs:3 * hs])
    c_new = sig[hs:2 * hs] * c
    c_new += sig[:hs] * g
    h_new = np.tanh(c_new)
    h_new *= sig[3 * hs:]
    return h_new, c_new, sig, g


def lstm_cell(params: LSTMCellParams, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step; returns (h', c')."""
    hs = params.hidden_size
    if x.values.shape != (params.input_size,):
        raise DimensionError(f"lstm_cell: input shape {x.shape}, expected ({params.input_size},)")
    if h.values.shape != (hs,) or c.values.shape != (hs,):
        raise DimensionError("lstm_cell: state shapes do not match hidden size")

    h_new, c_new, sig, g = _step(params, x.values, h.values, c.values)
    out_h = Tensor(h_new)
    out_c = Tensor(c_new)

    inputs = (params.w_ih, params.w_hh, params.b, x, h, c)
    tape = _taping(*inputs)
    if tape is not None:
        def vjp(dh, dc):
            # An output no path to the loss reached has no gradient.
            d_hidden = np.zeros((1, hs), dtype=h_new.dtype) if dh is None else dh[None]
            dz, dh_prev, dc_prev = _bptt(params, (c_new[None], sig[None], g[None]),
                                         c.values, d_hidden, dc_end=dc)
            dz = dz[0]
            return (dz[:, None] * x.values, dz[:, None] * h.values, dz,
                    params.w_ih.values.T.dot(dz), dh_prev, dc_prev)

        tape.record((out_h, out_c), inputs, vjp)
    return out_h, out_c


def lstm_sequence(cells: Sequence[LSTMCellParams], xs: Tensor,
                  tail: Tensor | None = None) -> tuple[Tensor, list[Tensor]]:
    """Run one pass per cell over the rows of ``xs``, from zero states.

    ``cells`` is a forward cell, optionally followed by a backward cell
    that reads the rows last to first. Each step's input is one row of
    ``xs`` followed by ``tail``, when given, at every step.

    Returns the state matrix, one row per position holding each
    direction's hidden state there side by side ([forward; backward]),
    and each direction's end hidden state: the forward state at the last
    row and the backward state at the first. One tape entry records the
    whole pass.
    """
    if not 1 <= len(cells) <= 2:
        raise ContractError(f"lstm_sequence: need one or two cells, got {len(cells)}")
    if xs.values.ndim != 2:
        raise DimensionError(f"lstm_sequence: need a matrix, got shape {xs.shape}")
    if not xs.shape[0]:
        raise ContractError("lstm_sequence: empty sequence")
    x = xs.values
    if tail is not None:
        if tail.values.ndim != 1:
            raise DimensionError(f"lstm_sequence: tail must be a vector, got shape {tail.shape}")
        x = np.concatenate([x, np.broadcast_to(tail.values, (len(x), tail.size))], axis=1)
    for cell in cells:
        if cell.input_size != x.shape[1]:
            raise DimensionError(f"lstm_sequence: step input has {x.shape[1]} entries, "
                                 f"the cell expects {cell.input_size}")

    inputs = [t for cell in cells for t in cell.tensors()] + [xs]
    if tail is not None:
        inputs.append(tail)
    tape = _taping(*inputs)
    passes, blocks, ends = [], [], []
    for cell, order in zip(cells, _READING_ORDER):
        hidden, kept = _unroll(cell, x[order], keep=tape is not None)   # in reading order
        passes.append((hidden, kept))
        blocks.append(hidden[order])
        ends.append(Tensor(hidden[-1]))
    states = Tensor(blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1))

    if tape is not None:
        def vjp(d_states, *d_ends):
            deltas = []
            dx = np.zeros_like(x)
            col = 0
            for cell, order, (hidden, kept), d_end in zip(cells, _READING_ORDER, passes, d_ends):
                hs = cell.hidden_size
                dh = (np.zeros_like(hidden) if d_states is None
                      else d_states[order, col:col + hs])
                col += hs
                dz, _, _ = _bptt(cell, kept, np.zeros(hs, dtype=x.dtype), dh, d_end)
                h_prev = np.concatenate([np.zeros_like(hidden[:1]), hidden[:-1]])
                deltas += [dz.T.dot(x[order]), dz.T.dot(h_prev), np.add.reduce(dz, axis=0)]
                dx += dz.dot(cell.w_ih.values)[order]
            width = xs.shape[1]
            deltas.append(dx[:, :width])
            if tail is not None:
                deltas.append(np.add.reduce(dx[:, width:], axis=0))
            return deltas

        tape.record([states, *ends], inputs, vjp)
    return states, ends


def _unroll(cell: LSTMCellParams, rows: np.ndarray,
            keep: bool) -> tuple[np.ndarray, tuple | None]:
    """One direction over ``rows``: the hidden state after each row, and,
    when ``keep``, the cell states, gates and candidates the vjp needs."""
    h = c = np.zeros(cell.hidden_size, dtype=rows.dtype)     # _step writes into neither
    hidden, cells, sigs, gs = [], [], [], []
    for row in rows:
        h, c, sig, g = _step(cell, row, h, c)
        hidden.append(h)
        if keep:
            cells.append(c)
            sigs.append(sig)
            gs.append(g)
    kept = (np.array(cells), np.array(sigs), np.array(gs)) if keep else None
    return np.array(hidden), kept


def _bptt(cell: LSTMCellParams, kept: tuple, c0: np.ndarray, d_hidden: np.ndarray,
          d_end: np.ndarray | None = None,
          dc_end: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagation through one pass; returns ``(dz, dh0, dc0)``.

    ``kept`` is what :func:`_unroll` kept and ``c0`` the cell state the
    pass started from. ``d_hidden`` is the gradient of each step's hidden
    state through the state matrix; ``d_end`` and ``dc_end`` are those of
    the last step's hidden and cell states through the end states.
    ``dz`` holds the gradient of the gate pre-activations, one row per
    step, and ``dh0`` and ``dc0`` those of the initial states.
    """
    c, sig, g = kept
    steps, hs = c.shape
    i, f, o = sig[:, :hs], sig[:, hs:2 * hs], sig[:, 3 * hs:]
    tc = np.tanh(c)
    c_prev = np.concatenate([c0[None], c[:-1]])
    # Step-local factors: dz's i, f and g blocks are dc times by_dc,
    # its o block is dh times by_dh, and dh adds dh * dc_by_dh to dc.
    by_dc = np.concatenate([g * i * (1 - i), c_prev * f * (1 - f), i * (1 - g * g)],
                           axis=1).reshape(steps, 3, hs)
    by_dh = tc * o * (1 - o)
    dc_by_dh = o * (1 - tc * tc)
    w_hh_t = cell.w_hh.values.T
    dz = np.empty((steps, 4 * hs), dtype=c.dtype)
    carry = np.zeros(hs, dtype=c.dtype) if d_end is None else d_end
    dc = np.zeros(hs, dtype=c.dtype) if dc_end is None else dc_end
    for t in range(steps - 1, -1, -1):
        dh = d_hidden[t] + carry
        dc = dc + dh * dc_by_dh[t]
        row = dz[t]
        np.multiply(by_dc[t], dc, out=row[:3 * hs].reshape(3, hs))
        np.multiply(dh, by_dh[t], out=row[3 * hs:])
        carry = w_hh_t.dot(row)
        dc = dc * f[t]
    return dz, carry, dc
