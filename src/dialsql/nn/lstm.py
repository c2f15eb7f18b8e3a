"""LSTM cells, fused sequence passes and a recorded decoder recurrence
on top of the tensor tape.

Three operations share one step kernel, :func:`_step`, so a step
computes the same values bit for bit in each. Their backwards share one
derivation: :func:`_gate_factors` holds a step's local derivatives and
:func:`_back_step` applies the chain rule through one step.

- :func:`lstm_cell` is one step and one tape entry. Its vjp is one
  :func:`_back_step`; either of ``dh'`` and ``dc'`` may be missing and
  then counts as zero. The weight deltas are returned as factors
  (``dz`` with the step's input, and with its previous hidden state),
  so the tape forms the decoder cell's weight gradients as one
  ``dZᵀX`` and one ``dZᵀH`` product per backward.
- :func:`lstm_sequence` runs a batch of encoder passes from zero states,
  one or two directions over each of several matrices of rows, as one
  tape entry. The sequences are padded to the longest and stepped side
  by side, one row of every array per sequence. Every product of a
  weight matrix with a row is one matrix-vector product per row
  (:func:`_rows_dot`), never one GEMM over the rows, so each sequence's
  states equal those of a pass over it alone bit for bit. :func:`_bptt`
  runs :func:`_back_step` over the batch, and each direction's weight
  gradients are one ``dZᵀX`` and one ``dZᵀH_prev`` product over the
  valid steps of all sequences.
- :func:`record_input_feeding` records a decoder turn whose steps (an
  :func:`lstm_cell` step, then attention over one or more memories,
  whose contexts feed the next step's input) ran with the tape paused,
  as one tape entry whose outputs are each step's hidden state and
  first attention's weights and context. It recomputes the turn's
  gates with :func:`_step` and :func:`_gate_factors`, and the weights
  with the tensor module's ``_attention_weights``, on one row per step;
  its vjp runs :func:`_back_step` and ``_attention_back`` (the halves
  of :func:`attention`) step by step, adding each delta in the order
  the per-step entries would have, so the gradients equal theirs bit
  for bit.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np

from .tensor import (
    ContractError,
    DimensionError,
    Tensor,
    _attention_back,
    _attention_weights,
    _rows_dot,
    _taping,
)

__all__ = ["LSTMCellParams", "lstm_cell", "lstm_sequence", "record_input_feeding"]


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


def _step(params: LSTMCellParams, zx: np.ndarray, h: np.ndarray,
          c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One LSTM step on arrays; returns (h', c', sig, g).

    ``zx`` is the input's projection ``W_ih·x``; the arrays are vectors,
    or matrices with one row per sequence. ``sig`` holds the i, f and o
    gates at their blocks of the stacked pre-activation (the g block's
    entries go unused) and ``g`` the candidate cell input.
    """
    hs = params.hidden_size
    # W_hh·h + W_ih·x equals W_ih·x + W_hh·h bit for bit: addition commutes.
    z = _rows_dot(params.w_hh.values, h)
    z += zx
    z += params.b.values
    # One exp for the three sigmoid gates, computed in place:
    # sig = 1 / (1 + exp(-z)).
    sig = np.negative(z)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    g = np.tanh(z[..., 2 * hs:3 * hs])
    c_new = sig[..., hs:2 * hs] * c
    c_new += sig[..., :hs] * g
    h_new = np.tanh(c_new)
    h_new *= sig[..., 3 * hs:]
    return h_new, c_new, sig, g


def lstm_cell(params: LSTMCellParams, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step; returns (h', c')."""
    hs = params.hidden_size
    if x.values.shape != (params.input_size,):
        raise DimensionError(f"lstm_cell: input shape {x.shape}, expected ({params.input_size},)")
    if h.values.shape != (hs,) or c.values.shape != (hs,):
        raise DimensionError("lstm_cell: state shapes do not match hidden size")

    h_new, c_new, sig, g = _step(params, params.w_ih.values.dot(x.values), h.values, c.values)
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


def lstm_sequence(cells: Sequence[LSTMCellParams], seqs: Sequence[Tensor],
                  tails: Sequence[Tensor] | None = None) -> list[tuple[Tensor, list[Tensor]]]:
    """Run one pass per cell over the rows of each matrix in ``seqs``,
    from zero states.

    ``cells`` is a forward cell, optionally followed by a backward cell
    that reads each sequence's rows last to first. With ``tails``, one
    vector per sequence, each step's input is one row followed by its
    sequence's tail.

    Returns, per sequence, its state matrix, one row per position holding
    each direction's hidden state there side by side ([forward;
    backward]), and each direction's end hidden state: the forward state
    at the last row and the backward state at the first. The values do
    not depend on which other sequences share the call. One tape entry
    records the whole batch.
    """
    if not 1 <= len(cells) <= 2:
        raise ContractError(f"lstm_sequence: need one or two cells, got {len(cells)}")
    if not seqs:
        raise ContractError("lstm_sequence: no sequences")
    if tails is not None and len(tails) != len(seqs):
        raise ContractError(f"lstm_sequence: {len(tails)} tails for {len(seqs)} sequences")
    for xs in seqs:
        if xs.values.ndim != 2:
            raise DimensionError(f"lstm_sequence: need a matrix, got shape {xs.shape}")
        if not xs.shape[0]:
            raise ContractError("lstm_sequence: empty sequence")
    lengths = [xs.shape[0] for xs in seqs]
    # Every sequence's rows, in order.
    x = seqs[0].values if len(seqs) == 1 else np.concatenate([xs.values for xs in seqs])
    width = x.shape[1]
    if tails is not None:
        if any(t.values.ndim != 1 for t in tails):
            raise DimensionError("lstm_sequence: a tail must be a vector, got shapes "
                                 f"{[t.shape for t in tails]}")
        try:
            tail_rows = np.repeat(np.array([t.values for t in tails]), lengths, axis=0)
            x = np.concatenate([x, tail_rows], axis=1)
        except ValueError as err:       # tails of unequal lengths
            raise DimensionError("lstm_sequence: tails of unequal lengths") from err
    for cell in cells:
        if cell.input_size != x.shape[1]:
            raise DimensionError(f"lstm_sequence: step input has {x.shape[1]} entries, "
                                 f"the cell expects {cell.input_size}")

    layout = _layout(tuple(lengths))
    inputs = [w for cell in cells for w in cell.tensors()] + list(seqs)
    if tails is not None:
        inputs += tails
    tape = _taping(*inputs)
    runs, blocks = [], []
    for k, cell in enumerate(cells):
        hidden, kept = _unroll(cell, layout.to_steps(_rows_dot(cell.w_ih.values, x), k),
                               keep=tape is not None)
        runs.append((hidden, kept))
        blocks.append(layout.to_rows(hidden, k))
    states = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
    starts = layout.starts
    # Each direction's end state: forward at a sequence's last row,
    # backward at its first.
    end_rows = (layout.lasts, starts)[:len(cells)]
    out = [(Tensor(states[a:a + m]),
            [Tensor(block[rows[r]]) for block, rows in zip(blocks, end_rows)])
           for r, (a, m) in enumerate(zip(starts, lengths))]

    if tape is not None:
        cols = list(accumulate((cell.hidden_size for cell in cells), initial=0))

        def vjp(*grads):
            per_seq = len(cells) + 1
            d_states = np.zeros_like(states)
            for r, (a, m) in enumerate(zip(starts, lengths)):
                if grads[r * per_seq] is not None:
                    d_states[a:a + m] = grads[r * per_seq]
                for k, rows in enumerate(end_rows):
                    g = grads[r * per_seq + 1 + k]
                    if g is not None:
                        d_states[rows[r], cols[k]:cols[k + 1]] += g
            deltas = []
            dx = np.zeros_like(x)
            for k, (cell, (hidden, kept)) in enumerate(zip(cells, runs)):
                d_hidden = layout.to_steps(d_states[:, cols[k]:cols[k + 1]], k)
                dz = layout.to_rows(_bptt(cell, kept, d_hidden), k)
                h_prev = np.concatenate([np.zeros_like(hidden[:1]), hidden[:-1]])
                h_prev = layout.to_rows(h_prev, k)
                deltas += [dz.T.dot(x), dz.T.dot(h_prev), np.add.reduce(dz, axis=0)]
                dx += dz.dot(cell.w_ih.values)
            deltas += [dx[a:a + m, :width] for a, m in zip(starts, lengths)]
            if tails is not None:
                deltas += [np.add.reduce(dx[a:a + m, width:], axis=0)
                           for a, m in zip(starts, lengths)]
            return deltas

        tape.record([t for states_r, ends_r in out for t in (states_r, *ends_r)], inputs, vjp)
    return out


def record_input_feeding(cell: LSTMCellParams, inputs: Sequence[Tensor],
                         states: Sequence[Sequence[Tensor]], weights: Sequence[Tensor],
                         attended: Sequence[tuple[Tensor, Tensor, Tensor | None] | None]) -> None:
    """Record ``T`` steps of an input-feeding attention LSTM, which ran
    with the tape paused (see ``Tape.paused``), as one tape entry.

    ``states[0]`` is the start state and ``states[t]`` the state after
    step ``t``, each ``(h, c, ctx_1, ..., ctx_K)``: the hidden and cell
    states and one context per entry of ``attended``. Step ``t`` ran
    :func:`lstm_cell` on ``[inputs[t-1]; ctx_1; ...; ctx_K]`` of state
    ``t-1`` and its ``h`` and ``c``, then, for each entry ``(memory,
    w_e, coeffs)`` of ``attended``, ``ops.attention(memory, w_e, h,
    coeffs)`` on its new ``h``, whose context is ``ctx_k`` of state
    ``t``; ``weights[t-1]`` are the first attention's weights. A None
    entry attends nothing: its context stays the start state's. The
    start state's cell state and contexts are constants.

    The entry's outputs are each step's ``h``, then the ``weights``,
    then the first attention's contexts. The cell states and the other
    contexts only feed later steps, so they get no gradient.

    The vjp runs backpropagation through time, step by step, and
    repeats the arithmetic of those per-step entries in the order the
    tape would apply them, so every gradient equals theirs bit for bit:
    the weight, memory and matrix deltas are factors listed last step
    first, and ``b``, the coefficients and the inputs are listed once
    per step, last step first. A step's ``h`` that no gradient reaches
    counts as zero. The turn's gates and ``w_e·h`` are recomputed for
    all steps at once, row-exact.
    """
    steps = len(inputs)
    if not steps or len(states) != steps + 1 or len(weights) != steps:
        raise ContractError(f"record_input_feeding: {len(inputs)} inputs, {len(states)} "
                            f"states and {len(weights)} weights")
    if not attended or attended[0] is None or any(len(s) != 2 + len(attended) for s in states):
        raise ContractError("record_input_feeding: each state needs h, c and one context "
                            "per attention, and the first attention attends")
    h0, c0, *feeds0 = states[0]
    if c0.requires_grad or any(f.requires_grad for f in feeds0):
        raise ContractError("record_input_feeding: the start cell state and contexts "
                            "must be constants")
    live = [k for k, spec in enumerate(attended) if spec is not None]
    att_inputs = [[memory, w_e] + ([] if coeffs is None else [coeffs] * steps)
                  for memory, w_e, coeffs in (attended[k] for k in live)]
    all_inputs = [cell.w_ih, cell.w_hh] + [cell.b] * steps
    all_inputs += [t for group in att_inputs for t in group] + [h0] + list(inputs)[::-1]
    tape = _taping(*all_inputs)
    if tape is None:
        return

    # The forward's arrays, one row per step: H and C hold the start
    # state's row first, and row t of X is step t's input.
    hs = cell.hidden_size
    H = np.array([s[0].values for s in states])
    C = np.array([s[1].values for s in states])
    X = np.concatenate([np.array([x.values for x in inputs])]
                       + [np.array([s[2 + k].values for s in states[:-1]])
                          for k in range(len(attended))], axis=1)
    bounds = list(accumulate([inputs[0].values.shape[0]]
                             + [f.values.shape[0] for f in feeds0]))
    _, _, sig, g = _step(cell, _rows_dot(cell.w_ih.values, X), H[:-1], C[:-1])
    by_dc, by_dh, dc_by_dh, f = _gate_factors(sig, g, C[1:], C[:-1])
    fwd = []        # per attention: what its vjp reads, one row per step
    for k in live:
        memory, w_e, coeffs = attended[k]
        m, cv = memory.values, None if coeffs is None else coeffs.values
        u = _rows_dot(w_e.values, H[1:])
        if k == 0 and cv is None:       # the forward's weights are the softmax
            a = np.array([t.values for t in weights])
            fwd.append((m, w_e.values, u, cv, a, a, None, None))
        else:
            fwd.append((m, w_e.values, u, cv) + _attention_weights(m, u, cv))

    def vjp(*grads):
        g_h, g_a, g_ctx = grads[:steps], grads[steps:2 * steps], grads[2 * steps:]
        zero = np.zeros(hs, dtype=H.dtype)
        dz_all = np.empty((steps, 4 * hs), dtype=H.dtype)
        w_ih_t, w_hh_t = cell.w_ih.values.T, cell.w_hh.values.T
        back = [([], [], []) for _ in live]     # memory and matrix factors, coefficient deltas
        d_inputs = []
        carry = dc = dx = None                  # from the step after t
        for t in range(steps - 1, -1, -1):
            # h_t's gradient: the loss's, then the next step's cell, then
            # each attention on h_t, last recorded first.
            dh = g_h[t]
            if carry is not None:
                dh = carry if dh is None else dh + carry
            for j in range(len(live) - 1, -1, -1):
                m, w, u, cv, base, wts, weighted, total = fwd[j]
                ga, gc = (g_a[t], g_ctx[t]) if j == 0 else (None, None)
                if dx is not None:
                    k = live[j]
                    part = dx[bounds[k]:bounds[k + 1]]
                    gc = part if gc is None else gc + part
                if ga is None and gc is None:
                    continue            # an attention no path to the loss reached
                d_m, d_w, d_h, *d_coeffs = _attention_back(
                    m, w, H[t + 1], u[t], base[t], wts[t], ga, gc,
                    *(() if cv is None else (cv, weighted[t], total[t])))
                m_factors, w_factors, coeff_deltas = back[j]
                m_factors += d_m
                w_factors += d_w
                coeff_deltas += d_coeffs
                dh = d_h if dh is None else dh + d_h
            dz = dz_all[t]
            dc = _back_step(zero if dh is None else dh, zero if dc is None else dc,
                            by_dc[t], by_dh[t], dc_by_dh[t], f[t], dz)
            carry = w_hh_t.dot(dz)
            dx = w_ih_t.dot(dz)
            d_inputs.append(dx[:bounds[0]])
        # Last step first; step t's previous hidden state is row t-1 of H.
        dz_up = dz_all[::-1]
        out = [(dz_up, X[::-1]), (dz_up, H[-2::-1]), *dz_up]
        for (m_factors, w_factors, coeff_deltas), group in zip(back, att_inputs):
            out += [tuple(m_factors) or None, tuple(w_factors) or None]
            if len(group) > 2:
                out += coeff_deltas + [None] * (steps - len(coeff_deltas))
        out.append(carry)
        return out + d_inputs

    tape.record([s[0] for s in states[1:]] + list(weights) + [s[2] for s in states[1:]],
                all_inputs, vjp)


class _Layout:
    """Where the rows of a pass's sequences, stacked in order, sit in its
    step-major arrays.

    Step t of direction k reads one row per sequence, in order: direction
    0 from each sequence's first row, direction 1 from its last. A single
    sequence needs no padding, and its step-major arrays have no sequence
    axis. Otherwise a sequence that has ended reads a zero row, so the
    padding follows every sequence's own steps in both directions, and
    no state of a sequence depends on it.
    """

    def __init__(self, lengths: tuple[int, ...]):
        n, total = len(lengths), sum(lengths)
        size = np.array(lengths)
        begin = np.cumsum(size) - size
        self.starts = begin.tolist()
        self.lasts = (begin + size - 1).tolist()
        if n == 1:
            # Reversing the rows is its own inverse.
            self.reads = self.places = (slice(None), slice(None, None, -1))
            return
        seq = np.repeat(np.arange(n), size)         # each row's sequence
        at = np.arange(total) - begin[seq]          # and its position there
        self.reads, self.places = [], []
        for step in (at, size[seq] - 1 - at):       # the step that reads each row
            place = step * n + seq                  # its flat step-major index
            read = np.full(max(lengths) * n, total)     # total: the zero row
            read[place] = np.arange(total)
            self.places.append(place)
            self.reads.append(read.reshape(-1, n))

    def to_steps(self, rows: np.ndarray, k: int) -> np.ndarray:
        """Rows in stacked order -> direction ``k``'s step-major array."""
        read = self.reads[k]
        if type(read) is slice:
            return rows[read]
        zero = np.zeros((1,) + rows.shape[1:], rows.dtype)
        return np.concatenate([rows, zero]).take(read, axis=0)

    def to_rows(self, steps: np.ndarray, k: int) -> np.ndarray:
        """Direction ``k``'s step-major array -> its sequences' rows, in
        stacked order; padded steps are dropped."""
        place = self.places[k]
        if type(place) is slice:
            return steps[place]
        return steps.reshape((-1,) + steps.shape[-1:]).take(place, axis=0)


# Layouts recur (a schema's names, a turn checked again and again), and
# building one costs more than a short pass.
_layout = lru_cache(maxsize=256)(_Layout)


def _unroll(cell: LSTMCellParams, proj: np.ndarray,
            keep: bool) -> tuple[np.ndarray, tuple | None]:
    """One direction over a batch, given the input projections ``proj``
    step-major in reading order (see :class:`_Layout`): the hidden state
    after each step, and, when ``keep``, the cell states, gates and
    candidates the vjp needs, laid out alike."""
    # _step writes into neither.
    h = c = np.zeros(proj.shape[1:-1] + (cell.hidden_size,), dtype=proj.dtype)
    hidden, cells, sigs, gs = [], [], [], []
    for zx in proj:
        h, c, sig, g = _step(cell, zx, h, c)
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
    one step, or leading axes of steps and sequences.
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
    ``dc`` of its hidden and cell states and its :func:`_gate_factors`,
    for one sequence or one row per sequence. Writes the gate
    pre-activations' gradient into ``dz`` (contiguous) and returns that
    of the previous cell state."""
    hs = dh.shape[-1]
    dc = dc + dh * dc_by_dh
    blocks = dz.reshape(dz.shape[:-1] + (4, hs))
    np.multiply(by_dc, dc[..., None, :], out=blocks[..., :3, :])
    np.multiply(dh, by_dh, out=blocks[..., 3, :])
    return dc * f


def _bptt(cell: LSTMCellParams, kept: tuple, d_hidden: np.ndarray) -> np.ndarray:
    """Backpropagation through one direction of a batch from zero states;
    returns the gradient of the gate pre-activations, step-major like
    ``kept``, what :func:`_unroll` kept.

    ``d_hidden`` is the gradient of each step's hidden state from outside
    the pass. A padded step gets none, so its gradients are zero and the
    sequence's own steps start from zero, as in a pass over it alone.
    """
    c, sig, g = kept
    c_prev = np.concatenate([np.zeros_like(c[:1]), c[:-1]])
    by_dc, by_dh, dc_by_dh, f = _gate_factors(sig, g, c, c_prev)
    w_hh_t = cell.w_hh.values.T
    dz = np.empty(c.shape[:-1] + (4 * c.shape[-1],), dtype=c.dtype)
    carry = dc = np.zeros_like(c[0])
    for t in range(len(c) - 1, -1, -1):
        dc = _back_step(d_hidden[t] + carry, dc, by_dc[t], by_dh[t], dc_by_dh[t], f[t], dz[t])
        carry = _rows_dot(w_hh_t, dz[t])
    return dz
