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
  tape entry, in one packed, direction-stacked pass. The sequences are
  ranked longest first, so the ones still running at step ``t`` are the
  first ranks, and each step runs on their rows alone: a packed array
  holds only real steps, ``sum(lengths)`` rows, step after step
  (:class:`_Packing`). The two directions' weights stack along a
  leading axis and each packed row holds both directions' entries, so
  one :func:`_step` advances both. Every product of a weight matrix
  with a row is one matrix-vector product per row (:func:`_rows_dot`,
  the stacked ``matmul`` against the weights' transposed view), never
  one GEMM over the rows, so each sequence's states equal those of a
  pass over it alone bit for bit. :func:`_bptt` forms
  :func:`_gate_factors` once over the packed arrays and runs
  :func:`_back_step` step by step, last step first; a sequence joins
  with zero carries at its own last step. Each direction's weight
  gradients are one ``dZᵀX`` and one ``dZᵀH_prev`` product over the
  rows of all sequences.
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


def _step(w_hh: np.ndarray, b: np.ndarray, zx: np.ndarray, h: np.ndarray,
          c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One LSTM step on arrays; returns (h', c', sig, g).

    ``zx`` is the input's projection ``W_ih·x``; the arrays are vectors,
    or matrices with one row per sequence. With a stack of weights, one
    per direction (``w_hh`` of shape ``(D, 4H, H)``, ``b`` of ``(D,
    4H)``), each array has one row per direction: ``(D, ·)`` for one
    sequence, ``(n, D, ·)`` for ``n``. ``sig`` holds the i, f and o
    gates at their blocks of the stacked pre-activation (the g block's
    entries go unused) and ``g`` the candidate cell input.
    """
    hs = h.shape[-1]
    # W_hh·h + W_ih·x equals W_ih·x + W_hh·h bit for bit: addition commutes.
    z = _rows_dot(w_hh, h)
    z += zx
    z += b
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

    h_new, c_new, sig, g = _step(params.w_hh.values, params.b.values,
                                 params.w_ih.values.dot(x.values), h.values, c.values)
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
    of the same hidden size that reads each sequence's rows last to
    first. With ``tails``, one vector per sequence, each step's input is
    one row followed by its sequence's tail.

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

    directions = len(cells)
    hs = cells[0].hidden_size
    if cells[-1].hidden_size != hs:
        raise DimensionError("lstm_sequence: the two cells' hidden sizes differ")
    pack = _packing(tuple(lengths), directions)
    inputs = [w for cell in cells for w in cell.tensors()] + list(seqs)
    if tails is not None:
        inputs += tails
    tape = _taping(*inputs)
    if directions == 1:
        cell = cells[0]
        w_ih, w_hh, b = cell.w_ih.values, cell.w_hh.values, cell.b.values
    else:   # the weights stack along a leading direction axis
        w_ih, w_hh, b = (np.array([w.values for w in ws])
                         for ws in zip(*(cell.tensors() for cell in cells)))
    proj = _rows_dot(w_ih, x if pack.sources is None else x.take(pack.sources, axis=0))
    # _step writes into neither.
    h = c = np.zeros(proj[pack.steps[0][0]].shape[:-1] + (hs,), dtype=proj.dtype)
    live = len(seqs)
    hidden, kept = [], []
    for at, m in pack.steps:
        if m < live:
            h, c, live = h[:m], c[:m], m
        h, c, sig, g = _step(w_hh, b, proj[at], h, c)
        hidden.append(h)
        if tape is not None:
            kept.append((c, sig, g))
    join = np.concatenate if len(seqs) > 1 else np.array     # one sequence steps vectors
    H = join(hidden)
    states = (H if pack.rows is None else
              H.reshape(-1, hs).take(pack.rows, axis=0).reshape(-1, directions * hs))
    blocks = [states] if directions == 1 else [states[:, :hs], states[:, hs:]]
    starts = pack.starts
    # Each direction's end state: forward at a sequence's last row,
    # backward at its first.
    end_rows = (pack.lasts, starts)[:directions]
    out = [(Tensor(states[a:a + m]),
            [Tensor(block[rows[r]]) for block, rows in zip(blocks, end_rows)])
           for r, (a, m) in enumerate(zip(starts, lengths))]

    if tape is not None:
        C, SIG, G = (join(parts) for parts in zip(*kept))

        def vjp(*grads):
            per_seq = directions + 1
            d_states = np.zeros_like(states)
            for r, (a, m) in enumerate(zip(starts, lengths)):
                if grads[r * per_seq] is not None:
                    d_states[a:a + m] = grads[r * per_seq]
                for k, rows in enumerate(end_rows):
                    g = grads[r * per_seq + 1 + k]
                    if g is not None:
                        d_states[rows[r], k * hs:(k + 1) * hs] += g
            d_hidden = (d_states if pack.reads is None else
                        d_states.reshape(-1, hs).take(pack.reads, axis=0))
            zero = np.zeros((1,) + H.shape[1:], dtype=H.dtype)
            c_prev = np.concatenate([zero, C]).take(pack.prev, axis=0)
            dz = _bptt(w_hh, pack, c_prev, C, SIG, G, d_hidden)
            # Back to each direction's rows, in stacked order.
            dz = dz.reshape(-1, 4 * hs).take(pack.rows_by_direction, axis=0)
            h_prev = np.concatenate([zero, H]).take(pack.prev, axis=0)
            h_prev = h_prev.reshape(-1, hs).take(pack.rows_by_direction, axis=0)
            deltas = []
            dx = np.zeros_like(x)
            for k, cell in enumerate(cells):
                dz_t = dz[k].T
                if k and len(seqs) == 1:
                    # One sequence read backwards: BLAS gets dzᵀ in C order,
                    # whose kernel rounds these two products as it always has.
                    dz_t = dz_t.copy()
                deltas += [dz_t.dot(x), dz_t.dot(h_prev[k]), np.add.reduce(dz[k], axis=0)]
                dx += dz[k].dot(cell.w_ih.values)
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
    _, _, sig, g = _step(cell.w_hh.values, cell.b.values, _rows_dot(cell.w_ih.values, X),
                         H[:-1], C[:-1])
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


class _Packing:
    """Where the rows of a pass's sequences, stacked in order, sit in its
    packed arrays (see the module docstring).

    A packed array holds step 0's rows, then step 1's, and so on: one row
    per running sequence, longest first (ties keep their order), with
    one entry per direction when there are two. One sequence is stepped
    as vectors, without a sequence axis.
    """

    def __init__(self, lengths: tuple[int, ...], directions: int):
        n, total = len(lengths), sum(lengths)
        size = np.array(lengths)
        begin = np.cumsum(size) - size
        self.starts = begin.tolist()
        self.lasts = (begin + size - 1).tolist()
        # Ranks and running counts in plain Python: the lists are short,
        # and each NumPy routine's first call adds to resident memory.
        # sorted() is stable, so ties keep their order.
        rank = np.empty(n, dtype=np.intp)
        rank[sorted(range(n), key=lambda r: -lengths[r])] = np.arange(n)
        live = np.array([sum(m > t for m in lengths) for t in range(max(lengths))])
        offset = np.cumsum(live) - live
        #: per step, its packed rows (a slice, or the one row's index)
        #: and how many sequences still run
        self.steps = [(slice(a, a + m) if n > 1 else a, m)
                      for a, m in zip(offset.tolist(), live.tolist())]
        #: per packed row, the row one step earlier, counting a leading
        #: zero row (the start state) as row 0
        self.prev = np.zeros(total, dtype=np.intp)
        step = np.repeat(np.arange(len(live)), live)[live[0]:]
        self.prev[live[0]:] = 1 + np.arange(live[0], total) - live[step - 1]

        # A stacked row's entries, and a packed row's, are numbered
        # row * directions + direction. Direction 0 reads a sequence
        # first row to last, direction 1 last to first.
        seq = np.repeat(np.arange(n), size)         # each stacked row's sequence
        at = np.arange(total) - begin[seq]          # and its position there
        packed = np.stack([offset[s] + rank[seq] for s in (at, size[seq] - 1 - at)[:directions]],
                          axis=1) * directions + np.arange(directions)
        #: per direction and stacked row, its packed entry
        self.rows_by_direction = packed.T
        #: per stacked row its packed entries (``rows``), per packed row
        #: its stacked entries (``reads``) and rows (``sources``); None
        #: where the two orders agree: one direction, and one sequence or
        #: all of length 1
        self.rows = self.reads = self.sources = None
        if directions > 1 or total > n > 1:
            reads = np.empty_like(packed)
            reads.flat[packed] = np.arange(packed.size)
            self.rows, self.reads, self.sources = packed, reads, reads // directions
            if directions == 1:     # the arrays have no direction axis
                self.rows, self.reads, self.sources = packed[:, 0], reads[:, 0], reads[:, 0]


# Packings recur (a schema's names, a turn checked again and again), and
# building one costs more than a short pass.
_packing = lru_cache(maxsize=256)(_Packing)


def _gate_factors(sig: np.ndarray, g: np.ndarray, c: np.ndarray,
                  c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A step's local derivatives, from what :func:`_step` returned and
    the cell state it started from; returns ``(by_dc, by_dh, dc_by_dh, f)``.

    The gradient of the gate pre-activations has i, f and g blocks
    ``dc * by_dc`` (``by_dc`` holds one row per block) and an o block
    ``dh * by_dh``, where ``dc`` already includes ``dh * dc_by_dh``; the
    gradient of the previous cell state is ``dc * f``. The arrays hold
    one step, or leading axes of steps, sequences and directions.
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
    for one sequence or one row per sequence, and per direction. Writes
    the gate pre-activations' gradient into ``dz`` (contiguous) and
    returns that of the previous cell state."""
    hs = dh.shape[-1]
    dc = dc + dh * dc_by_dh
    blocks = dz.reshape(dz.shape[:-1] + (4, hs))
    np.multiply(by_dc, dc[..., None, :], out=blocks[..., :3, :])
    np.multiply(dh, by_dh, out=blocks[..., 3, :])
    return dc * f


def _bptt(w_hh: np.ndarray, pack: _Packing, c_prev: np.ndarray, c: np.ndarray,
          sig: np.ndarray, g: np.ndarray, d_hidden: np.ndarray) -> np.ndarray:
    """Backpropagation through a packed pass from zero states; returns the
    gradient of the gate pre-activations, packed like the cell states
    ``c``, gates ``sig`` and candidates ``g`` of the forward.

    ``d_hidden`` is the gradient of each step's hidden state from outside
    the pass, and ``c_prev`` the cell state each step started from. A
    sequence joins the backward at its last step with zero carries, as
    in a pass over it alone.
    """
    by_dc, by_dh, dc_by_dh, f = _gate_factors(sig, g, c, c_prev)
    w_hh_t = np.swapaxes(w_hh, -1, -2)
    dz = np.empty(c.shape[:-1] + (4 * c.shape[-1],), dtype=c.dtype)
    # The carries of every sequence, running ones first; a sequence's rows
    # stay zero until it joins. One sequence's carries are vectors.
    first, n = pack.steps[0]
    carry_rows, dc_rows = np.zeros((2,) + c[first].shape, dtype=c.dtype)
    live = pack.steps[-1][1]
    carry, dc = (carry_rows, dc_rows) if live == n else (carry_rows[:live], dc_rows[:live])
    for at, m in reversed(pack.steps):
        if m > live:
            carry_rows[:live], dc_rows[:live] = carry, dc
            carry, dc, live = carry_rows[:m], dc_rows[:m], m
        dc = _back_step(d_hidden[at] + carry, dc, by_dc[at], by_dh[at], dc_by_dh[at], f[at],
                        dz[at])
        carry = _rows_dot(w_hh_t, dz[at])
    return dz
