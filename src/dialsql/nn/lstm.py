"""LSTM cells and sequence encoders on top of the tensor tape.

The cell step is fused: one tape entry covers the full gate algebra,
with a hand-derived vjp. This keeps tapes short for long dialogues
without changing any gradient. Like every tape entry, the vjp returns
one delta per input (``w_ih, w_hh, b, x, h, c``) and the tape adds
them; it is the only entry with two outputs, so either of ``dh'`` and
``dc'`` may be missing and then counts as zero.
"""

from __future__ import annotations

import numpy as np

from .tensor import DimensionError, Tensor, _taping

__all__ = ["LSTMCellParams", "lstm_cell", "run_lstm", "run_bilstm"]


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


def lstm_cell(params: LSTMCellParams, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step; returns (h', c')."""
    hs = params.hidden_size
    if x.values.shape != (params.input_size,):
        raise DimensionError(f"lstm_cell: input shape {x.shape}, expected ({params.input_size},)")
    if h.values.shape != (hs,) or c.values.shape != (hs,):
        raise DimensionError("lstm_cell: state shapes do not match hidden size")

    z = params.w_ih.values.dot(x.values)
    z += params.w_hh.values.dot(h.values)
    z += params.b.values
    # One exp for the three sigmoid gates (the g block's entries go
    # unused), computed in place: sig = 1 / (1 + exp(-z)).
    sig = np.negative(z)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    i, f, o = sig[:hs], sig[hs:2 * hs], sig[3 * hs:]
    g = np.tanh(z[2 * hs:3 * hs])
    c_new = f * c.values
    c_new += i * g
    h_new = np.tanh(c_new)
    h_new *= o

    out_h = Tensor(h_new)
    out_c = Tensor(c_new)

    inputs = (params.w_ih, params.w_hh, params.b, x, h, c)
    tape = _taping(*inputs)
    if tape is not None:
        def vjp(dh, dc_in):
            # An output no path to the loss reached has no gradient.
            if dh is None:
                dh = np.zeros_like(out_h.values)
            if dc_in is None:
                dc_in = np.zeros_like(out_c.values)
            t = np.tanh(c_new)
            do = dh * t
            dc = dc_in + dh * o * (1.0 - t * t)
            di = dc * g
            df = dc * c.values
            dg = dc * i
            dc_prev = dc * f
            dzi = di * i * (1.0 - i)
            dzf = df * f * (1.0 - f)
            dzg = dg * (1.0 - g * g)
            dzo = do * o * (1.0 - o)
            dz = np.concatenate([dzi, dzf, dzg, dzo])
            return (np.outer(dz, x.values), np.outer(dz, h.values), dz,
                    params.w_ih.values.T.dot(dz), params.w_hh.values.T.dot(dz), dc_prev)

        tape.record((out_h, out_c), inputs, vjp)
    return out_h, out_c


def run_lstm(params: LSTMCellParams, xs: list[Tensor]) -> list[Tensor]:
    """Run a sequence through one direction from zero states; returns
    hidden states. A caller that needs the final cell state threads
    (h, c) through :func:`lstm_cell` itself."""
    hs = params.hidden_size
    h = Tensor(np.zeros(hs))
    c = Tensor(np.zeros(hs))
    states = []
    for x in xs:
        h, c = lstm_cell(params, x, h, c)
        states.append(h)
    return states


def run_bilstm(fwd: LSTMCellParams, bwd: LSTMCellParams,
               xs: list[Tensor]) -> tuple[list[Tensor], list[Tensor]]:
    """Run both directions over the sequence from zero states.

    Returns (forward_states, backward_states), both indexed by input
    position, so ``backward_states[0]`` has consumed the whole sequence.
    """
    forward = run_lstm(fwd, xs)
    backward = list(reversed(run_lstm(bwd, list(reversed(xs)))))
    return forward, backward
