"""The LSTM operations on top of the tensor tape.

Both share one step kernel, :func:`_step`, so a step computes the same
values bit for bit in each. Their backwards share one derivation:
:func:`_gate_factors` holds a step's local derivatives and
:func:`_back_step` applies the chain rule through one step.

- :func:`lstm_cell` steps the decoder's input-feeding attention LSTM,
  or with no memory a plain cell, over one or more inputs as one tape
  entry; its docstring describes the recurrence and its backward.
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

__all__ = ["LSTMCellParams", "lstm_cell", "lstm_sequence"]


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


def lstm_cell(params: LSTMCellParams, inputs: Sequence[Tensor], start: Sequence[Tensor],
              attended: Sequence[tuple[Tensor, Tensor, Tensor | None] | None] = ()
              ) -> tuple[list[tuple[Tensor, ...]], list[Tensor]]:
    """Step an input-feeding attention LSTM over ``inputs`` from
    ``start``, as one tape entry; returns each step's state and each
    step's first attention weights (none without ``attended``).

    A state is ``(h, c, ctx_1, ..., ctx_K)``: the hidden and cell states
    and one context per entry ``(memory, w_e, coeffs)`` of ``attended``.
    Step ``t`` runs the cell on ``[inputs[t]; ctx_1; ...; ctx_K]`` and
    the previous ``h`` and ``c``. Then each entry attends over its
    memory with the new ``h``: the softmax of the scores
    ``memory·(w_e·h)``, rescaled by the per-row ``coeffs`` and
    renormalized when given, weighs the memory's rows into the context
    ``memoryᵀ·weights``, which feeds the next step. A None entry attends
    nothing: its context stays the start's, a constant. The first entry
    attends; without entries this is a plain LSTM cell.

    Each step computes, bit for bit, what ``ops.concat`` of its input, a
    one-input call without entries and one ``ops.attention`` per entry
    compute, and the entry keeps the arrays its vjp reads. The outputs
    are each step's ``h``, first weights and first context, and the last
    step's ``c`` and other contexts; the start state may take gradients.
    The vjp runs backpropagation through time, last step first, through
    each attention (``_attention_back``, last entry first) and then the
    cell (:func:`_back_step`), adding each delta in the order those
    separate entries' backwards, or those of one call per step chained,
    would. So the gradients equal theirs bit for bit: the weight, memory
    and matrix deltas are factors listed last step first, and ``b``, the
    coefficients and the inputs get one delta per step, last step first.
    An output that no gradient reaches counts as zero.
    """
    steps, hs = len(inputs), params.hidden_size
    if not steps:
        raise ContractError("lstm_cell: no inputs")
    if len(start) != 2 + len(attended):
        raise ContractError(f"lstm_cell: a start of {len(start)} tensors for {len(attended)} "
                            "attentions: need h, c and one context per attention")
    h0, c0, feeds0 = start[0], start[1], start[2:]
    if h0.values.shape != (hs,) or c0.values.shape != (hs,):
        raise DimensionError("lstm_cell: state shapes do not match hidden size")
    tensors = [params.w_ih, params.w_hh, params.b, h0, c0, *inputs]
    live = []       # (k, memory, w_e, coeffs) arrays of each entry that attends
    feeds = []      # the contexts the next step reads
    width = params.input_size       # of each input, beside the contexts
    for k, spec in enumerate(attended):
        feed = feeds0[k]
        fv = feed.values
        feeds.append(fv)
        if spec is None:
            if not k:
                raise ContractError("lstm_cell: the first attention attends nothing")
            if feed.requires_grad:
                raise ContractError("lstm_cell: the context of an entry that attends "
                                    "nothing must be a constant")
            if fv.ndim != 1:
                raise DimensionError(f"lstm_cell: context shape {feed.shape}, need a vector")
            width -= fv.shape[0]
            continue
        memory, w_e, coeffs = spec
        m = memory.values
        size = m.shape[-1]
        if m.ndim != 2 or fv.shape != (size,) or w_e.values.shape != (size, hs):
            raise DimensionError(f"lstm_cell: memory {memory.shape}, matrix {w_e.shape} and "
                                 f"context {feed.shape} do not line up")
        width -= size
        if coeffs is None:
            tensors += (feed, memory, w_e)
            live.append((k, m, w_e.values, None))
            continue
        if coeffs.values.shape != m.shape[:1]:
            raise DimensionError(f"lstm_cell: {coeffs.shape} coefficients for "
                                 f"{m.shape[0]} memory rows")
        tensors += (feed, memory, w_e, coeffs)
        live.append((k, m, w_e.values, coeffs.values))

    tape = _taping(*tensors)
    w_ih, w_hh, b = params.w_ih.values, params.w_hh.values, params.b.values
    h, c = h0.values, c0.values
    states, weights = [], []
    if tape is not None:    # the forward's arrays that the vjp reads
        X, H, C, SIG, G = [], [h], [c], [], []
        kept = [[] for _ in feeds0]     # per entry and step: u, base, weights, weighted, total
    for x in inputs:
        if x.values.shape != (width,):
            raise DimensionError(f"lstm_cell: input shape {x.shape}, expected ({width},) "
                                 "beside the contexts")
        xv = np.concatenate([x.values, *feeds]) if feeds else x.values
        h, c, sig, g = _step(w_hh, b, w_ih.dot(xv), h, c)
        # An entry that attends nothing keeps its start context.
        state = [Tensor(h), Tensor(c), *feeds0]
        for k, m, w, cv in live:
            u = w.dot(h)
            base, a, weighted, total = _attention_weights(m, u, cv)
            feeds[k] = ctx = m.T.dot(a)
            state[2 + k] = Tensor(ctx)
            if not k:
                weights.append(Tensor(a))
            if tape is not None:
                kept[k].append((u, base, a, weighted, total))
        states.append(tuple(state))
        if tape is not None:
            X.append(xv)
            H.append(h)
            C.append(c)
            SIG.append(sig)
            G.append(g)
    if tape is None:
        return states, weights
    # Where each part of a step's input starts and ends.
    bounds = list(accumulate([width] + [f.values.shape[0] for f in feeds0]))

    def vjp(*grads):
        n = 3 * steps if live else steps
        g_h, g_a, g_ctx, dc = grads[:steps], grads[steps:2 * steps], grads[2 * steps:n], grads[n]
        g_last = (None,) + grads[n + 1:]    # each later entry's last context
        C_all = np.array(C)
        by_dc, by_dh, dc_by_dh, f = _gate_factors(np.array(SIG), np.array(G), C_all[1:],
                                                  C_all[:-1])
        zero = np.zeros(hs, dtype=h.dtype)
        dz_all = np.empty((steps, 4 * hs), dtype=h.dtype)
        w_ih_t, w_hh_t = w_ih.T, w_hh.T
        back = [([], [], []) for _ in live]     # memory and matrix factors, coefficient deltas
        d_inputs = []
        carry = dx = None                       # from the step after t
        for t in range(steps - 1, -1, -1):
            # h_t's gradient: the loss's, then the next step's cell, then
            # each attention on h_t, last entry first.
            dh = g_h[t]
            if carry is not None:
                dh = carry if dh is None else dh + carry
            for j in range(len(live) - 1, -1, -1):
                k, m, w, cv = live[j]
                if k:
                    ga, gc = None, (g_last[j] if t == steps - 1 else None)
                else:
                    ga, gc = g_a[t], g_ctx[t]
                if dx is not None:
                    part = dx[bounds[k]:bounds[k + 1]]
                    gc = part if gc is None else gc + part
                if ga is None and gc is None:
                    continue            # an attention no path to the loss reached
                u, base, a, weighted, total = kept[k][t]
                d_m, d_w, d_h, *d_coeffs = _attention_back(m, w, H[t + 1], u, base, a, ga, gc,
                                                           cv, weighted, total)
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
        # Last step first; step t's previous hidden state is H[t].
        dz_up = dz_all[::-1]
        out = [(dz_up, np.array(X[::-1])), (dz_up, np.array(H[-2::-1])), *dz_up]
        for (m_factors, w_factors, coeff_deltas), (_, _, _, cv) in zip(back, live):
            out += [tuple(m_factors) or None, tuple(w_factors) or None]
            if cv is not None:
                out += coeff_deltas + [None] * (steps - len(coeff_deltas))
        out += [carry, dc]
        out += [dx[bounds[k]:bounds[k + 1]] for k, *_ in live]
        return out + d_inputs

    all_inputs = [params.w_ih, params.w_hh] + [params.b] * steps
    for k, spec in enumerate(attended):
        if spec is not None:
            memory, w_e, coeffs = spec
            all_inputs += [memory, w_e] + ([] if coeffs is None else [coeffs] * steps)
    all_inputs += [h0, c0] + [feeds0[k] for k, *_ in live] + list(inputs)[::-1]
    outputs = [s[0] for s in states]
    if live:
        outputs += weights + [s[2] for s in states]
    outputs += [states[-1][1]] + [states[-1][2 + k] for k, *_ in live[1:]]
    tape.record(outputs, all_inputs, vjp)
    return states, weights


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
