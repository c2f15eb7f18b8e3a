"""LSTM cell and fused sequence pass against an independent reference."""

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
        [(h, c)], _ = lstm_cell(params, [x], (h, c))
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
            [(got_h, got_c)], _ = lstm_cell(params, [x], (h, c))
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
            [(nh, nc)], _ = lstm_cell(params, [x], (h, c))
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
        [(h, c)], _ = lstm_cell(params, [Tensor(rng.normal(size=2))],
                                (Tensor(np.zeros(2)), Tensor(np.zeros(2))))
        assert h.requires_grad is False and c.requires_grad is False

    def test_fused_cell_is_one_tape_entry(self):
        rng = np.random.default_rng(7)
        params = make_params(rng, 2, 2)
        with Tape() as tape:
            lstm_cell(params, [Tensor(rng.normal(size=2))],
                      (Tensor(np.zeros(2)), Tensor(np.zeros(2))))
        assert len(tape) == 1

    @pytest.mark.parametrize("reached", ["h", "c"])
    def test_cell_gradients_with_one_output_reached(self, reached):
        # The other output's gradient reaches the vjp as None.
        rng = np.random.default_rng(9)
        params = make_params(rng, 3, 4)
        x, h, c = (Tensor(rng.normal(size=n), requires_grad=True) for n in (3, 4, 4))
        weights = Tensor(rng.normal(size=4))

        def loss():
            [(nh, nc)], _ = lstm_cell(params, [x], (h, c))
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
                [(h, _)], _ = lstm_cell(params, [ops.take_rows(xs, 0)], (zero, zero))
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
    memory (or a constant second context, which attends nothing); or,
    with ``attend`` off, no memory at all. With ``start_grads`` the
    start state's cell state and contexts are parameters."""

    E, Q, S, HS, T = 3, 4, 2, 4, 4

    def __init__(self, seed, coeffs=True, second="attend", attend=True, start_grads=False):
        rng = np.random.default_rng(seed)
        self.attend = attend
        self.second = second if attend else None
        feed = self.E + (self.Q if attend else 0) + (self.S if self.second else 0)
        self.cell = make_params(rng, feed, self.HS, "dec")

        def param(name, shape, scale=1.0):
            return Parameter(name, scale * init_uniform(rng, shape))

        self.memory = param("memory", (5, self.Q), 4.0)
        self.w_e = param("w_e", (self.Q, self.HS), 4.0)
        self.coeffs = param("coeffs", (5,)) if coeffs and attend else None
        if self.coeffs is not None:
            self.coeffs.values += 1.5          # positive, as gate coefficients are
        self.sql_memory = param("sql_memory", (3, self.S), 4.0)
        self.w_s = param("w_s", (self.S, self.HS), 4.0)
        self.h0 = param("h0", (self.HS,))
        self.inputs = [param(f"x{t}", (self.E,)) for t in range(self.T - 1)]
        self.inputs.insert(2, self.inputs[0])   # one input fed at two steps
        self.start_grads = start_grads
        if start_grads:
            self.c0, self.ctx0 = param("c0", (self.HS,)), param("ctx0", (self.Q,))
        else:
            self.c0, self.ctx0 = Tensor(np.zeros(self.HS)), Tensor(np.zeros(self.Q))
        if start_grads and self.second == "attend":
            self.sql0 = param("sql0", (self.S,))
        else:       # a context that attends nothing is a constant
            self.sql0 = Tensor(init_uniform(rng, (self.S,)))
        # Each output's weight in the loss.
        self.probes = [Tensor(rng.normal(size=n)) for _ in range(self.T)
                       for n in (self.HS, self.HS, 5, self.Q, self.S)]

    def leaves(self):
        leaves = self.cell.tensors() + [self.h0] + self.inputs[:2] + self.inputs[3:]
        if self.attend:
            leaves += [self.memory, self.w_e]
        if self.second == "attend":
            leaves += [self.sql_memory, self.w_s]
        if self.start_grads:
            leaves += [self.c0] + ([self.ctx0] if self.attend else [])
            leaves += [self.sql0] if self.second == "attend" else []
        return leaves + ([self.coeffs] if self.coeffs is not None else [])

    def start(self):
        return ((self.h0, self.c0) + ((self.ctx0,) if self.attend else ())
                + ((self.sql0,) if self.second else ()))

    def attended(self):
        if not self.attend:
            return []
        attended = [(self.memory, self.w_e, self.coeffs)]
        if self.second:
            attended.append((self.sql_memory, self.w_s, None)
                            if self.second == "attend" else None)
        return attended

    MODES = ("one call", "chained", "separate")

    def run(self, mode):
        """Each step's (h, c, weights, context, second context), None
        where there is none: from one call over all inputs, from one call
        per input, chained, or from the separate reference, which per
        step runs a one-input call without memory on the ``ops.concat``
        of the step's input and contexts, then ``ops.attention`` per
        memory."""
        state, attended = self.start(), self.attended()
        if mode == "one call":
            states, weights = lstm_cell(self.cell, self.inputs, state, attended)
        else:
            states, weights = [], []
            for x in self.inputs:
                if mode == "chained":
                    [state], a = lstm_cell(self.cell, [x], state, attended)
                    weights += a
                else:
                    h, c, *ctxs = state
                    [(h, c)], _ = lstm_cell(self.cell, [ops.concat([x, *ctxs]) if ctxs else x],
                                            (h, c))
                    for k, spec in enumerate(attended):
                        if spec is not None:
                            a, ctxs[k] = ops.attention(spec[0], spec[1], h, spec[2])
                            if k == 0:
                                weights.append(a)
                    state = (h, c, *ctxs)
                states.append(state)
        return [(s[0], s[1], weights[t] if weights else None, *s[2:],
                 *[None] * (4 - len(s))) for t, s in enumerate(states)]

    def outputs(self, t, k):
        """Whether field ``k`` of step ``t`` is an output of one call: h,
        the weights and the first context at every step, c and the
        second context at the last."""
        return k in (0, 2, 3) or t == self.T - 1

    def loss(self, outputs, reached):
        """Σ probe · output over the outputs ``reached`` picks, by step
        and by field index (h, c, weights, context, second context)."""
        terms = [ops.matmul(out, self.probes[5 * t + k])
                 for t, outs in enumerate(outputs) for k, out in enumerate(outs)
                 if out is not None and self.outputs(t, k) and reached(t, k)]
        total = terms[0]
        for term in terms[1:]:
            total = ops.add(total, term)
        return total

    def gradients(self, mode, reached=lambda t, k: True):
        """The loss of two runs on one tape, as a batch of two turns:
        the second run's deltas reach each weight first."""
        for t in self.leaves():
            t.grad = None
        with Tape() as tape:
            loss = ops.add(self.loss(self.run(mode), reached),
                           self.loss(self.run(mode), reached))
            tape.backward(loss)
        return loss.values, [t.grad.copy() for t in self.leaves()]


# (coeffs, second, attend): no memory, one, and two, the second attending
# or a constant.
FEEDINGS = {"no memory": (False, None, False), "one memory": (True, None, True),
            "one memory, no coefficients": (False, None, True),
            "two memories": (True, "attend", True),
            "two memories, no coefficients": (False, "attend", True),
            "a constant second context": (True, "constant", True)}
# The outputs a loss reads, by step and field (h, c, weights, context,
# second context).
REACHED = {
    "every output": lambda t, k: True,
    "last hidden state": lambda t, k: (t, k) == (3, 0),
    "last cell state and contexts": lambda t, k: k in (1, 3, 4),
    "weights and contexts": lambda t, k: k >= 2,
}


class TestInputFeeding:
    """One ``lstm_cell`` call over a turn's inputs, one call per input
    chained, and the separate per-step operations agree bit for bit."""

    @pytest.mark.parametrize("bits, dtype", [(64, np.float64), (32, np.float32)])
    @pytest.mark.parametrize("feeding, reached", [
        (feeding, reached) for feeding in sorted(FEEDINGS) for reached in sorted(REACHED)
        if FEEDINGS[feeding][2] or reached != "weights and contexts"])   # no memory, no weights
    def test_values_and_gradients_agree_bit_for_bit(self, feeding, reached, bits, dtype):
        set_precision(bits)
        try:
            feeding_ = Feeding(60, *FEEDINGS[feeding])
            runs = {}
            for mode in Feeding.MODES:
                with Tape():
                    values = [[None if t is None else t.values for t in outs]
                              for outs in feeding_.run(mode)]
                runs[mode] = values, feeding_.gradients(mode, REACHED[reached])
        finally:
            set_precision(64)
        want_values, (want_loss, want_grads) = runs["separate"]
        for mode in ("one call", "chained"):
            values, (loss, grads) = runs[mode]
            for outs, want_outs in zip(values, want_values):
                for v, w in zip(outs, want_outs):
                    assert (v is None) == (w is None)
                    if v is not None:
                        assert v.dtype == dtype and v.tobytes() == w.tobytes(), mode
            assert loss.dtype == dtype and loss == want_loss, mode
            for g, w, t in zip(grads, want_grads, feeding_.leaves()):
                assert g.dtype == dtype and g.tobytes() == w.tobytes(), (mode, t.name)

    @pytest.mark.parametrize("feeding", sorted(FEEDINGS))
    def test_outputs_take_gradients_and_the_rest_do_not(self, feeding):
        feeding_ = Feeding(66, *FEEDINGS[feeding])
        with Tape():
            outputs = feeding_.run("one call")
        for t, outs in enumerate(outputs):
            for k, out in enumerate(outs):
                if out is not None:
                    assert out.requires_grad == (feeding_.outputs(t, k)
                                                 and (k != 4 or feeding_.second == "attend"))
        if feeding_.second == "constant":       # the start's context, as it is
            assert all(outs[4] is feeding_.sql0 for outs in outputs)

    @pytest.mark.parametrize("feeding", sorted(FEEDINGS))
    def test_gradients_match_finite_differences(self, feeding):
        # The start's cell state and contexts take gradients too.
        feeding_ = Feeding(62, *FEEDINGS[feeding], start_grads=True)
        res = grad_check(lambda: feeding_.loss(feeding_.run("one call"), lambda t, k: True),
                         feeding_.leaves())
        assert res.max_rel_error < 1e-6, res

    def test_entries_per_call(self):
        for mode, entries in (("one call", 1), ("chained", Feeding.T),
                              ("separate", 4 * Feeding.T)):  # concat, cell, two attentions
            with Tape() as tape:
                Feeding(63).run(mode)
            assert len(tape) == entries, mode

    def test_nothing_recorded_without_a_tape(self):
        outputs = Feeding(64).run("one call")
        assert not any(t.requires_grad for outs in outputs for t in outs if t is not None)

    def test_rejects_malformed_calls(self):
        feeding = Feeding(65)
        cell, inputs, start, attended = (feeding.cell, feeding.inputs, feeding.start(),
                                         feeding.attended())
        with pytest.raises(ContractError, match="no inputs"):
            lstm_cell(cell, [], start, attended)
        with pytest.raises(ContractError, match="a start of 3"):
            lstm_cell(cell, inputs, start[:3], attended)
        with pytest.raises(ContractError, match="first attention attends nothing"):
            lstm_cell(cell, inputs, start, [None, attended[1]])
        with pytest.raises(ContractError, match="must be a constant"):
            lstm_cell(cell, inputs, start[:3] + (Parameter("sql", np.zeros(Feeding.S)),),
                      [attended[0], None])
        with pytest.raises(DimensionError, match="input shape"):
            lstm_cell(cell, inputs[:1] + [Tensor(np.zeros(Feeding.E + 1))], start, attended)
        with pytest.raises(DimensionError, match="do not line up"):
            lstm_cell(cell, inputs, start, [attended[0], (feeding.memory, feeding.w_e, None)])
        with pytest.raises(DimensionError, match="coefficients"):
            lstm_cell(cell, inputs, start,
                      [(feeding.memory, feeding.w_e, Tensor(np.ones(3))), attended[1]])
