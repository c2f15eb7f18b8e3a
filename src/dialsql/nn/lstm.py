"""LSTM cells and fused sequence passes on top of the tensor tape.

Two operations share one step kernel, :func:`_step`, so a step computes
the same values bit for bit in both. Their backwards share one
derivation: :func:`_gate_factors` holds a step's local derivatives and
:func:`_back_step` applies the chain rule through one step.

- :func:`lstm_cell` is one step and one tape entry. Its vjp is one
  :func:`_back_step`; either of ``dh'`` and ``dc'`` may be missing and
  then counts as zero. The weight deltas are returned as factors
  (``dz`` with the step's input, and with its previous hidden state),
  so the tape forms the decoder cell's weight gradients as one
  ``dZᵀX`` and one ``dZᵀH`` product per backward.
- :func:`lstm_sequence` runs a whole encoder pass from zero states, one
  or two directions over the rows of an input matrix, as one tape
  entry. :func:`_bptt` runs :func:`_back_step` over the pass, and each
  direction's weight gradients are one ``dZᵀX`` and one ``dZᵀH_prev``
  product over all steps.
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
            zero = np.zeros(hs, dtype=h_new.dtype)
            dz = np.empty(4 * hs, dtype=h_new.dtype)
            dc_prev = _back_step(zero if dh is None else dh, zero if dc is None else dc,
                                 *_gate_factors(sig, g, c_new, c.values), dz)
            return ((dz, x.values), (dz, h.values), dz, params.w_ih.values.T.dot(dz),
                    params.w_hh.values.T.dot(dz), dc_prev)

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
                dz = _bptt(cell, kept, dh, d_end)
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


def _gate_factors(sig: np.ndarray, g: np.ndarray, c: np.ndarray,
                  c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A step's local derivatives, from what :func:`_step` returned and
    the cell state it started from; returns ``(by_dc, by_dh, dc_by_dh, f)``.

    The gradient of the gate pre-activations has i, f and g blocks
    ``dc * by_dc`` (``by_dc`` holds one row per block) and an o block
    ``dh * by_dh``, where ``dc`` already includes ``dh * dc_by_dh``; the
    gradient of the previous cell state is ``dc * f``. The arrays hold
    one step, or one row per step of a pass.
    """
    hs = c.shape[-1]
    i, f, o = sig[..., :hs], sig[..., hs:2 * hs], sig[..., 3 * hs:]
    tc = np.tanh(c)
    by_dc = np.empty(c.shape[:-1] + (3, hs), dtype=c.dtype)
    np.multiply(g * i, 1 - i, out=by_dc[..., 0, :])
    np.multiply(c_prev * f, 1 - f, out=by_dc[..., 1, :])
    np.multiply(i, 1 - g * g, out=by_dc[..., 2, :])
    return by_dc, tc * o * (1 - o), o * (1 - tc * tc), f


def _back_step(dh: np.ndarray, dc: np.ndarray, by_dc: np.ndarray, by_dh: np.ndarray,
               dc_by_dh: np.ndarray, f: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """The chain rule through one step, given the gradients ``dh`` and
    ``dc`` of its hidden and cell states and its :func:`_gate_factors`.
    Writes the gate pre-activations' gradient into ``dz`` and returns
    that of the previous cell state."""
    hs = dh.shape[0]
    dc = dc + dh * dc_by_dh
    np.multiply(by_dc, dc, out=dz[:3 * hs].reshape(3, hs))
    np.multiply(dh, by_dh, out=dz[3 * hs:])
    return dc * f


def _bptt(cell: LSTMCellParams, kept: tuple, d_hidden: np.ndarray,
          d_end: np.ndarray | None = None) -> np.ndarray:
    """Backpropagation through one pass from zero states; returns the
    gradient of the gate pre-activations, one row per step.

    ``kept`` is what :func:`_unroll` kept. ``d_hidden`` is the gradient
    of each step's hidden state through the state matrix and ``d_end``
    that of the last step's hidden state through the end state.
    """
    c, sig, g = kept
    steps, hs = c.shape
    c_prev = np.concatenate([np.zeros_like(c[:1]), c[:-1]])
    by_dc, by_dh, dc_by_dh, f = _gate_factors(sig, g, c, c_prev)
    w_hh_t = cell.w_hh.values.T
    dz = np.empty((steps, 4 * hs), dtype=c.dtype)
    carry = np.zeros(hs, dtype=c.dtype) if d_end is None else d_end
    dc = np.zeros(hs, dtype=c.dtype)
    for t in range(steps - 1, -1, -1):
        dc = _back_step(d_hidden[t] + carry, dc, by_dc[t], by_dh[t], dc_by_dh[t], f[t], dz[t])
        carry = w_hh_t.dot(dz[t])
    return dz
