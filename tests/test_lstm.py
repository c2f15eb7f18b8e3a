"""LSTM cell and fused sequence pass against an independent reference."""

from contextlib import nullcontext

import numpy as np
import pytest

from dialsql.nn import (
    ContractError,
    DimensionError,
    LSTMCellParams,
    Parameter,
    Tape,
    Tensor,
    grad_check,
    init_uniform,
    lstm_cell,
    lstm_sequence,
    ops,
    record_input_feeding,
    set_precision,
)


def reference_lstm_step(w_ih, w_hh, b, x, h, c):
    """Unfused NumPy reference for one step, written independently."""
    hidden = h.shape[0]
    z = w_ih @ x + w_hh @ h + b
    i = 1.0 / (1.0 + np.exp(-z[:hidden]))
    f = 1.0 / (1.0 + np.exp(-z[hidden:2 * hidden]))
    g = np.tanh(z[2 * hidden:3 * hidden])
    o = 1.0 / (1.0 + np.exp(-z[3 * hidden:]))
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def make_params(rng, input_size, hidden, prefix="lstm"):
    return LSTMCellParams(
        Parameter(f"{prefix}.w_ih", init_uniform(rng, (4 * hidden, input_size))),
        Parameter(f"{prefix}.w_hh", init_uniform(rng, (4 * hidden, hidden))),
        Parameter(f"{prefix}.b", init_uniform(rng, (4 * hidden,))),
    )


def columns(states, lo, hi):
    """Columns lo:hi of a state matrix, as a differentiable product."""
    sel = np.zeros((states.shape[1], hi - lo))
    sel[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
    return ops.matmul(states, Tensor(sel))


def cell_unroll(params, rows, tail=None):
    """Hidden states of :func:`lstm_cell` stepped over ``rows`` from zero
    states: the reference the fused pass must match bit for bit."""
    h = Tensor(np.zeros(params.hidden_size))
    c = Tensor(np.zeros(params.hidden_size))
    states = []
    for x in rows:
        if tail is not None:
            x = ops.concat([x, tail])
        h, c = lstm_cell(params, x, h, c)
        states.append(h)
    return states


class TestForward:
    def test_single_step_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = make_params(rng, 3, 4)
            x = Tensor(rng.normal(size=3))
            h = Tensor(rng.normal(size=4))
            c = Tensor(rng.normal(size=4))
            got_h, got_c = lstm_cell(params, x, h, c)
            want_h, want_c = reference_lstm_step(
                params.w_ih.values, params.w_hh.values, params.b.values,
                x.values, h.values, c.values)
            np.testing.assert_allclose(got_h.values, want_h, atol=1e-14)
            np.testing.assert_allclose(got_c.values, want_c, atol=1e-14)

    def test_sequence_matches_unrolled_reference(self):
        rng = np.random.default_rng(1)
        params = make_params(rng, 3, 5)
        xs = Tensor(np.array([rng.normal(size=3) for _ in range(6)]))
        [(states, (end,))] = lstm_sequence([params], [xs])
        assert states.shape == (6, 5)

        h = np.zeros(5)
        c = np.zeros(5)
        for x, got in zip(xs.values, states.values):
            h, c = reference_lstm_step(
                params.w_ih.values, params.w_hh.values, params.b.values, x, h, c)
            np.testing.assert_allclose(got, h, atol=1e-14)
        np.testing.assert_array_equal(end.values, states.values[-1])

    def test_bilstm_backward_direction_indexing(self):
        rng = np.random.default_rng(2)
        fwd = make_params(rng, 2, 3, "fwd")
        bwd = make_params(rng, 2, 3, "bwd")
        xs = Tensor(np.array([rng.normal(size=2) for _ in range(4)]))
        [(states, (f_end, b_end))] = lstm_sequence([fwd, bwd], [xs])
        assert states.shape == (4, 6)

        # the backward state at row 0 must equal a manual reverse run's last state
        h = np.zeros(3)
        c = np.zeros(3)
        for x in xs.values[::-1]:
            h, c = reference_lstm_step(
                bwd.w_ih.values, bwd.w_hh.values, bwd.b.values, x, h, c)
        np.testing.assert_allclose(states.values[0, 3:], h, atol=1e-14)
        np.testing.assert_array_equal(b_end.values, states.values[0, 3:])
        np.testing.assert_array_equal(f_end.values, states.values[-1, :3])


class TestBackward:
    def test_cell_gradients(self):
        rng = np.random.default_rng(3)
        params = make_params(rng, 3, 4)
        x = Tensor(rng.normal(size=3))
        x.requires_grad = True
        h = Tensor(rng.normal(size=4))
        h.requires_grad = True
        c = Tensor(rng.normal(size=4))
        c.requires_grad = True
        weights = rng.normal(size=4)

        def loss():
            nh, nc = lstm_cell(params, x, h, c)
            return ops.add(ops.matmul(nh, Tensor(weights)), ops.reduce_sum(nc))

        res = grad_check(loss, params.tensors() + [x, h, c])
        assert res.max_rel_error < 1e-6, res

    def test_sequence_gradients(self):
        rng = np.random.default_rng(4)
        params = make_params(rng, 2, 3)
        xs = Tensor(np.array([rng.normal(size=2) for _ in range(4)]), requires_grad=True)

        def loss():
            [(states, _)] = lstm_sequence([params], [xs])
            return ops.reduce_sum(states)

        res = grad_check(loss, params.tensors() + [xs])
        assert res.max_rel_error < 1e-6, res

    def test_bilstm_gradients(self):
        rng = np.random.default_rng(5)
        fwd = make_params(rng, 2, 2, "fwd")
        bwd = make_params(rng, 2, 2, "bwd")
        xs = Tensor(np.array([rng.normal(size=2) for _ in range(3)]), requires_grad=True)

        def loss():
            [(states, _)] = lstm_sequence([fwd, bwd], [xs])
            # sum over positions of forward . backward
            return ops.reduce_sum(ops.mul(columns(states, 0, 2), columns(states, 2, 4)))

        res = grad_check(loss, fwd.tensors() + bwd.tensors() + [xs])
        assert res.max_rel_error < 1e-6, res

    def test_no_tape_no_recording(self):
        rng = np.random.default_rng(6)
        params = make_params(rng, 2, 2)
        h, c = lstm_cell(params, Tensor(rng.normal(size=2)),
                         Tensor(np.zeros(2)), Tensor(np.zeros(2)))
        assert h.requires_grad is False and c.requires_grad is False

    def test_fused_cell_is_one_tape_entry(self):
        rng = np.random.default_rng(7)
        params = make_params(rng, 2, 2)
        with Tape() as tape:
            lstm_cell(params, Tensor(rng.normal(size=2)),
                      Tensor(np.zeros(2)), Tensor(np.zeros(2)))
        assert len(tape) == 1

    @pytest.mark.parametrize("reached", ["h", "c"])
    def test_cell_gradients_with_one_output_reached(self, reached):
        # The other output's gradient reaches the vjp as None.
        rng = np.random.default_rng(9)
        params = make_params(rng, 3, 4)
        x, h, c = (Tensor(rng.normal(size=n), requires_grad=True) for n in (3, 4, 4))
        weights = Tensor(rng.normal(size=4))

        def loss():
            nh, nc = lstm_cell(params, x, h, c)
            return ops.matmul(nh if reached == "h" else nc, weights)

        res = grad_check(loss, params.tensors() + [x, h, c])
        assert res.max_rel_error < 1e-6, res

    @pytest.mark.parametrize("bits, dtype", [(64, np.float64), (32, np.float32)])
    def test_one_step_backward_equals_one_row_pass_bit_for_bit(self, bits, dtype):
        # From zero states, a cell step and a one-row pass are the same
        # step, and their backwards must give the same weight gradients.
        set_precision(bits)
        try:
            rng = np.random.default_rng(8)
            params = make_params(rng, 5, 4)
            xs = Tensor(rng.normal(size=(1, 5)))
            weights = Tensor(rng.normal(size=4))

            def grads(loss_fn):
                for t in params.tensors():
                    t.grad = None
                with Tape() as tape:
                    tape.backward(loss_fn())
                return [t.grad.copy() for t in params.tensors()]

            def cell():
                zero = Tensor(np.zeros(4))
                h, _ = lstm_cell(params, ops.take_rows(xs, 0), zero, zero)
                return ops.matmul(h, weights)

            def one_row_pass():
                [(_, (end,))] = lstm_sequence([params], [xs])
                return ops.matmul(end, weights)

            got, want = grads(cell), grads(one_row_pass)
        finally:
            set_precision(64)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == dtype
            np.testing.assert_array_equal(g, w)


class TestSequencePass:
    def test_gradients_with_tail(self):
        rng = np.random.default_rng(20)
        fwd = make_params(rng, 5, 3, "fwd")
        bwd = make_params(rng, 5, 3, "bwd")
        xs = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        tail = Tensor(rng.normal(size=2), requires_grad=True)
        weights = Tensor(rng.normal(size=(4, 6)))

        def loss():
            [(states, (f_end, b_end))] = lstm_sequence([fwd, bwd], [xs], [tail])
            return ops.add(ops.reduce_sum(ops.mul(states, weights)),
                           ops.matmul(f_end, b_end))

        res = grad_check(loss, fwd.tensors() + bwd.tensors() + [xs, tail])
        assert res.max_rel_error < 1e-6, res

    def test_gradients_through_end_states_only(self):
        # The state matrix reaches no loss: the vjp gets None for it.
        rng = np.random.default_rng(22)
        fwd = make_params(rng, 4, 3, "fwd")
        bwd = make_params(rng, 4, 3, "bwd")
        xs = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        tail = Tensor(rng.normal(size=2), requires_grad=True)
        weights = Tensor(rng.normal(size=3))

        def loss():
            [(_, (f_end, b_end))] = lstm_sequence([fwd, bwd], [xs], [tail])
            return ops.add(ops.matmul(f_end, weights), ops.reduce_sum(ops.mul(b_end, b_end)))

        res = grad_check(loss, fwd.tensors() + bwd.tensors() + [xs, tail])
        assert res.max_rel_error < 1e-6, res

    def test_gradients_match_cell_unroll(self):
        rng = np.random.default_rng(23)
        fwd = make_params(rng, 5, 3, "fwd")
        bwd = make_params(rng, 5, 3, "bwd")
        xs = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        tail = Tensor(rng.normal(size=2), requires_grad=True)
        weights = Tensor(rng.normal(size=(4, 6)))
        leaves = fwd.tensors() + bwd.tensors() + [xs, tail]

        def grads(loss_fn):
            for t in leaves:
                t.grad = None
            with Tape() as tape:
                tape.backward(loss_fn())
            return [t.grad.copy() for t in leaves]

        def fused():
            [(states, _)] = lstm_sequence([fwd, bwd], [xs], [tail])
            return ops.reduce_sum(ops.mul(states, weights))

        def unrolled():
            rows = [ops.take_rows(xs, k) for k in range(4)]
            f = cell_unroll(fwd, rows, tail)
            b = cell_unroll(bwd, rows[::-1], tail)[::-1]
            states = ops.stack([ops.concat([s, t]) for s, t in zip(f, b)])
            return ops.reduce_sum(ops.mul(states, weights))

        for got, want in zip(grads(fused), grads(unrolled)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("bits, dtype", [(64, np.float64), (32, np.float32)])
    def test_equals_cell_unroll_bit_for_bit(self, bits, dtype):
        set_precision(bits)
        try:
            rng = np.random.default_rng(24)
            fwd = make_params(rng, 6, 4, "fwd")
            bwd = make_params(rng, 6, 4, "bwd")
            xs = Tensor(rng.normal(size=(5, 4)))
            tail = Tensor(rng.normal(size=2))
            [(states, (f_end, b_end))] = lstm_sequence([fwd, bwd], [xs], [tail])
            rows = [ops.take_rows(xs, k) for k in range(5)]
            f = cell_unroll(fwd, rows, tail)
            b = cell_unroll(bwd, rows[::-1], tail)[::-1]
        finally:
            set_precision(64)
        want = np.array([np.concatenate([s.values, t.values]) for s, t in zip(f, b)])
        assert states.values.dtype == dtype
        assert f_end.values.dtype == b_end.values.dtype == dtype
        assert want.dtype == dtype
        np.testing.assert_array_equal(states.values, want)
        np.testing.assert_array_equal(f_end.values, f[-1].values)
        np.testing.assert_array_equal(b_end.values, b[0].values)

    def test_one_tape_entry_per_pass(self):
        rng = np.random.default_rng(25)
        fwd = make_params(rng, 3, 2, "fwd")
        bwd = make_params(rng, 3, 2, "bwd")
        xs = Tensor(rng.normal(size=(6, 3)))
        with Tape() as tape:
            lstm_sequence([fwd, bwd], [xs])
        assert len(tape) == 1
        with Tape() as tape:
            lstm_sequence([fwd], [xs])
        assert len(tape) == 1

    def test_nothing_recorded_without_a_tape(self):
        rng = np.random.default_rng(26)
        cell = make_params(rng, 3, 2)
        [(states, (end,))] = lstm_sequence([cell], [Tensor(rng.normal(size=(3, 3)))])
        assert states.requires_grad is False and end.requires_grad is False
        with Tape() as tape:      # a tape, but no input requires a gradient
            frozen = LSTMCellParams(*(Tensor(t.values) for t in cell.tensors()))
            lstm_sequence([frozen], [Tensor(rng.normal(size=(3, 3)))])
        assert len(tape) == 0

    def test_rejects_empty_or_misshaped_input(self):
        rng = np.random.default_rng(27)
        cell = make_params(rng, 3, 2)
        with pytest.raises(ContractError):
            lstm_sequence([cell], [Tensor(np.zeros((0, 3)))])
        with pytest.raises(DimensionError):
            lstm_sequence([cell], [Tensor(np.zeros(3))])
        with pytest.raises(DimensionError):
            lstm_sequence([cell], [Tensor(np.zeros((2, 4)))])
        with pytest.raises(DimensionError):
            lstm_sequence([cell], [Tensor(np.zeros((2, 2)))], [Tensor(np.zeros((1, 1)))])
        with pytest.raises(DimensionError):
            lstm_sequence([cell], [Tensor(np.zeros((2, 2)))], [Tensor(np.zeros(2))])
        with pytest.raises(ContractError):
            lstm_sequence([], [Tensor(np.zeros((2, 3)))])
        with pytest.raises(ContractError):
            lstm_sequence([cell, cell, cell], [Tensor(np.zeros((2, 3)))])


def batch_of(rng, lengths, width, tail=0):
    seqs = [Tensor(rng.normal(size=(m, width)), requires_grad=True) for m in lengths]
    tails = ([Tensor(rng.normal(size=tail), requires_grad=True) for _ in lengths]
             if tail else None)
    return seqs, tails


def alone(cells, seqs, tails):
    """Each sequence through a pass of its own."""
    return [lstm_sequence(cells, [xs], None if tails is None else [tails[r]])[0]
            for r, xs in enumerate(seqs)]


def weighted_loss(out, weights):
    """Every state matrix and end state against fixed weights, summed."""
    total = None
    for (states, ends), (w, v) in zip(out, weights):
        term = ops.reduce_sum(ops.mul(states, w))
        for end in ends:
            term = ops.add(term, ops.matmul(end, v))
        total = term if total is None else ops.add(total, term)
    return total


# Orders of sequence lengths for the packed pass, which ranks the
# sequences longest first and steps only those still running.
ORDERS = {
    "mixed": [3, 1, 6, 2, 5, 4, 6, 1],          # 1..max, with repeats
    "descending": [6, 5, 3, 2, 1],
    "ascending": [1, 2, 3, 5, 6],
    "ties": [4, 2, 4, 2, 3],
    "all equal": [3, 3, 3],
    "one between longer": [5, 1, 4],
}


class TestBatchedPass:
    """Sequences of different lengths in one packed pass."""

    LENGTHS = ORDERS["mixed"]

    @pytest.mark.parametrize("bits, dtype", [(64, np.float64), (32, np.float32)])
    @pytest.mark.parametrize("tail", [0, 3])
    @pytest.mark.parametrize("width, hidden, directions", [(5, 4, 2), (16, 16, 2), (3, 2, 1),
                                                           (22, 8, 1)])
    @pytest.mark.parametrize("order", ORDERS)
    def test_rows_equal_one_sequence_passes_bit_for_bit(self, bits, dtype, tail, width,
                                                        hidden, directions, order):
        lengths = ORDERS[order]
        set_precision(bits)
        try:
            rng = np.random.default_rng(40)
            cells = [make_params(rng, width + tail, hidden, f"d{k}") for k in range(directions)]
            seqs, tails = batch_of(rng, lengths, width, tail)
            batch = lstm_sequence(cells, seqs, tails)
            want = alone(cells, seqs, tails)
        finally:
            set_precision(64)
        assert len(batch) == len(lengths)
        for (states, ends), (want_states, want_ends), m in zip(batch, want, lengths):
            assert states.values.dtype == dtype
            assert states.shape == (m, directions * hidden)
            np.testing.assert_array_equal(states.values, want_states.values)
            assert len(ends) == directions
            for end, want_end in zip(ends, want_ends):
                np.testing.assert_array_equal(end.values, want_end.values)

    @pytest.mark.parametrize("tail", [0, 2])
    @pytest.mark.parametrize("order", ORDERS)
    def test_gradients_equal_one_sequence_passes(self, tail, order):
        lengths = ORDERS[order]
        rng = np.random.default_rng(41)
        cells = [make_params(rng, 4 + tail, 3, "fwd"), make_params(rng, 4 + tail, 3, "bwd")]
        seqs, tails = batch_of(rng, lengths, 4, tail)
        weights = [(Tensor(rng.normal(size=(m, 6))), Tensor(rng.normal(size=3)))
                   for m in lengths]
        leaves = [w for cell in cells for w in cell.tensors()] + seqs + (tails or [])

        def grads(encode):
            for t in leaves:
                t.grad = None
            with Tape() as tape:
                tape.backward(weighted_loss(encode(cells, seqs, tails), weights))
            return [t.grad.copy() for t in leaves]

        for got, want in zip(grads(lstm_sequence), grads(alone)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("tail", [0, 2])
    @pytest.mark.parametrize("directions", [1, 2])
    @pytest.mark.parametrize("order", ORDERS)
    def test_gradients_match_finite_differences(self, tail, directions, order):
        lengths = ORDERS[order]
        rng = np.random.default_rng(42)
        cells = [make_params(rng, 3 + tail, 2, f"d{k}") for k in range(directions)]
        seqs, tails = batch_of(rng, lengths, 3, tail)
        weights = [(Tensor(rng.normal(size=(m, 2 * directions))),
                    Tensor(rng.normal(size=2))) for m in lengths]

        def loss():
            return weighted_loss(lstm_sequence(cells, seqs, tails), weights)

        leaves = [w for cell in cells for w in cell.tensors()] + seqs + (tails or [])
        res = grad_check(loss, leaves)
        assert res.max_rel_error < 1e-6, res

    def test_unreached_outputs_contribute_nothing(self):
        # Only the first sequence's states and the third's backward end
        # reach the loss: every other output's gradient is None.
        rng = np.random.default_rng(43)
        cells = [make_params(rng, 3, 2, "fwd"), make_params(rng, 3, 2, "bwd")]
        seqs, _ = batch_of(rng, [4, 2, 3], 3)
        w, v = Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=2))
        leaves = [t for cell in cells for t in cell.tensors()] + seqs

        def grads(used):
            for t in leaves:
                t.grad = None
            with Tape() as tape:
                out = lstm_sequence(cells, used)
                (states, _), (_, (_, b_end)) = out[0], out[-1]
                tape.backward(ops.add(ops.reduce_sum(ops.mul(states, w)),
                                      ops.matmul(b_end, v)))
            return {id(t): t.grad for t in leaves}

        batched, without = grads(seqs), grads([seqs[0], seqs[2]])
        np.testing.assert_array_equal(batched[id(seqs[1])], 0.0)
        for t in leaves:
            if t is not seqs[1]:
                np.testing.assert_allclose(batched[id(t)], without[id(t)],
                                           rtol=1e-12, atol=1e-15)

    def test_one_tape_entry_for_the_batch(self):
        rng = np.random.default_rng(44)
        cells = [make_params(rng, 3, 2, "fwd"), make_params(rng, 3, 2, "bwd")]
        seqs, _ = batch_of(rng, [3, 1, 2], 3)
        with Tape() as tape:
            lstm_sequence(cells, seqs)
        assert len(tape) == 1

    def test_rejects_mismatched_tails(self):
        rng = np.random.default_rng(45)
        cell = make_params(rng, 5, 2)
        seqs, tails = batch_of(rng, [2, 3], 3, 2)
        with pytest.raises(ContractError):
            lstm_sequence([cell], seqs, tails[:1])
        with pytest.raises(ContractError):
            lstm_sequence([cell], [])
        with pytest.raises(DimensionError):
            lstm_sequence([cell], seqs, [tails[0], Tensor(np.zeros(3))])
        with pytest.raises(ContractError):
            lstm_sequence([cell], seqs + [Tensor(np.zeros((0, 3)))], tails + tails[:1])

    def test_rejects_directions_of_different_hidden_sizes(self):
        rng = np.random.default_rng(46)
        seqs, _ = batch_of(rng, [2, 3], 3)
        with pytest.raises(DimensionError, match="hidden sizes differ"):
            lstm_sequence([make_params(rng, 3, 2), make_params(rng, 3, 4)], seqs)


class Feeding:
    """An input-feeding attention LSTM over a few steps: a question
    memory with per-row coefficients (or none), and optionally a second
    memory (or a constant second context, which attends nothing)."""

    E, Q, S, HS, T = 3, 4, 2, 4, 4

    def __init__(self, seed, coeffs=True, second="attend"):
        rng = np.random.default_rng(seed)
        self.second = second
        feed = self.E + self.Q + (self.S if second else 0)
        self.cell = make_params(rng, feed, self.HS, "dec")

        def param(name, shape, scale=1.0):
            return Parameter(name, scale * init_uniform(rng, shape))

        self.memory = param("memory", (5, self.Q), 4.0)
        self.w_e = param("w_e", (self.Q, self.HS), 4.0)
        self.coeffs = param("coeffs", (5,)) if coeffs else None
        if coeffs:
            self.coeffs.values += 1.5          # positive, as gate coefficients are
        self.sql_memory = param("sql_memory", (3, self.S), 4.0)
        self.w_s = param("w_s", (self.S, self.HS), 4.0)
        self.h0 = param("h0", (self.HS,))
        self.inputs = [param(f"x{t}", (self.E,)) for t in range(self.T - 1)]
        self.inputs.insert(2, self.inputs[0])   # one input fed at two steps
        # Each output's weight in the loss.
        self.probes = [Tensor(rng.normal(size=n)) for _ in range(self.T)
                       for n in (self.HS, self.HS, 5, self.Q, self.S)]

    def leaves(self):
        leaves = self.cell.tensors() + [self.memory, self.w_e, self.h0]
        leaves += self.inputs[:2] + self.inputs[3:]
        if self.second == "attend":
            leaves += [self.sql_memory, self.w_s]
        return leaves + ([self.coeffs] if self.coeffs is not None else [])

    def run(self, recorded: bool):
        """Each step's (h, c, weights, context, second context), the
        start state's contexts being zero, stepped with the tape on, or
        paused and then recorded."""
        zero = Tensor(np.zeros(self.HS))
        state = (self.h0, zero, Tensor(np.zeros(self.Q)))
        if self.second:
            state += (Tensor(np.zeros(self.S)),)
        states, weights = [state], []
        for x in self.inputs:
            h, c, ctx, *sql = state
            with Tape.paused() if recorded else nullcontext():
                h, c = lstm_cell(self.cell, ops.concat([x, ctx, *sql]), h, c)
                a, ctx = ops.attention(self.memory, self.w_e, h, self.coeffs)
                if self.second == "attend":
                    _, sql = ops.attention(self.sql_memory, self.w_s, h)
                    sql = [sql]
            state = (h, c, ctx, *sql)
            states.append(state)
            weights.append(a)
        if recorded:
            attended = [(self.memory, self.w_e, self.coeffs)]
            if self.second:
                attended.append((self.sql_memory, self.w_s, None)
                                if self.second == "attend" else None)
            record_input_feeding(self.cell, self.inputs, states, weights, attended)
        return [(s[0], s[1], a, *s[2:]) for s, a in zip(states[1:], weights)]

    # The fields the recorded entry outputs: h, weights and context.
    RECORDED = (0, 2, 3)

    def loss(self, outputs, reached):
        """Σ probe · output over the recorded outputs ``reached`` picks,
        by step and by field index (h, c, weights, context, second
        context)."""
        terms = [ops.matmul(out, self.probes[5 * t + k])
                 for t, outs in enumerate(outputs) for k, out in enumerate(outs)
                 if k in self.RECORDED and reached(t, k)]
        total = terms[0]
        for term in terms[1:]:
            total = ops.add(total, term)
        return total

    def gradients(self, recorded, reached=lambda t, k: True):
        """The loss of two runs on one tape, as a batch of two turns:
        the second run's deltas reach each weight first."""
        for t in self.leaves():
            t.grad = None
        with Tape() as tape:
            loss = ops.add(self.loss(self.run(recorded), reached),
                           self.loss(self.run(recorded), reached))
            tape.backward(loss)
        return loss.values, [t.grad.copy() for t in self.leaves()]


class TestRecordedInputFeeding:
    """``record_input_feeding`` records paused steps as one entry whose
    gradients equal those of the per-step entries bit for bit."""

    REACHED = {
        "every output": lambda t, k: True,
        "last hidden state": lambda t, k: (t, k) == (3, 0),
        "weights and contexts": lambda t, k: k >= 2,
    }

    @pytest.mark.parametrize("reached", sorted(REACHED))
    @pytest.mark.parametrize("coeffs, second", [(True, "attend"), (False, "attend"),
                                                (True, None), (False, "constant")])
    def test_gradients_equal_per_step_entries_bit_for_bit(self, coeffs, second, reached):
        feeding = Feeding(60, coeffs, second)
        want = feeding.gradients(False, self.REACHED[reached])
        got = feeding.gradients(True, self.REACHED[reached])
        assert got[0] == want[0]
        for g, w, t in zip(got[1], want[1], feeding.leaves()):
            assert g.tobytes() == w.tobytes(), t.name

    @pytest.mark.parametrize("bits, dtype", [(64, np.float64), (32, np.float32)])
    def test_values_equal_per_step_entries_bit_for_bit(self, bits, dtype):
        set_precision(bits)
        try:
            feeding = Feeding(61)
            with Tape():
                want = feeding.run(False)
            with Tape():
                got = feeding.run(True)
        finally:
            set_precision(64)
        for outs_got, outs_want in zip(got, want):
            for k, (g, w) in enumerate(zip(outs_got, outs_want)):
                assert g.values.dtype == dtype
                assert g.requires_grad == (k in Feeding.RECORDED)
                assert g.values.tobytes() == w.values.tobytes()

    @pytest.mark.parametrize("second", ["attend", "constant"])
    def test_cell_states_and_second_contexts_get_no_gradient(self, second):
        feeding = Feeding(66, second=second)
        with Tape():
            outputs = feeding.run(True)
        for h, c, a, ctx, sql in outputs:
            assert h.requires_grad and a.requires_grad and ctx.requires_grad
            assert not c.requires_grad and not sql.requires_grad

    @pytest.mark.parametrize("coeffs", [True, False])
    def test_gradients_match_finite_differences(self, coeffs):
        feeding = Feeding(62, coeffs)
        res = grad_check(lambda: feeding.loss(feeding.run(True), lambda t, k: True),
                         feeding.leaves())
        assert res.max_rel_error < 1e-6, res

    def test_one_entry_and_nothing_paused(self):
        feeding = Feeding(63)
        with Tape() as tape:
            feeding.run(True)
        assert len(tape) == 1
        with Tape() as tape:
            feeding.run(False)
        assert len(tape) == 4 * Feeding.T       # concat, lstm_cell and two attentions per step

    def test_nothing_recorded_without_a_tape(self):
        outputs = Feeding(64).run(True)
        assert not any(t.requires_grad for outs in outputs for t in outs)

    def test_rejects_what_it_cannot_record(self):
        feeding = Feeding(65, second=None)
        zero = Tensor(np.zeros(Feeding.HS))
        start = (feeding.h0, zero, Tensor(np.zeros(Feeding.Q)))
        attended = [(feeding.memory, feeding.w_e, None)]
        with Tape():
            with Tape.paused():
                h, c = lstm_cell(feeding.cell, ops.concat([feeding.inputs[0], start[2]]),
                                 feeding.h0, zero)
                a, ctx = ops.attention(feeding.memory, feeding.w_e, h)
            with pytest.raises(ContractError):      # two inputs for one step
                record_input_feeding(feeding.cell, feeding.inputs[:2], [start, (h, c, ctx)],
                                     [a], attended)
            with pytest.raises(ContractError):      # no context for the attention
                record_input_feeding(feeding.cell, feeding.inputs[:1],
                                     [start[:2], (h, c)], [a], attended)
            with pytest.raises(ContractError):      # a start cell state with a gradient
                record_input_feeding(feeding.cell, feeding.inputs[:1],
                                     [(feeding.h0, feeding.h0, start[2]), (h, c, ctx)],
                                     [a], attended)
