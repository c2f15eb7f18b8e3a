"""Encoder oracles: hand-unrolled recurrences and direct formula checks."""

import numpy as np
import pytest

from dialsql.encoders import (
    encode_actions,
    encode_name,
    encode_question,
    gate_importances,
)
from dialsql.nn import (
    ContractError,
    DimensionError,
    LSTMCellParams,
    Tape,
    Tensor,
    grad_check,
    lstm_cell,
    ops,
)


def reference_step(w_ih, w_hh, b, x, h, c):
    """Plain NumPy LSTM step, gates stacked i, f, g, o."""
    n = h.size
    z = w_ih @ x + w_hh @ h + b
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i, f = sig(z[:n]), sig(z[n:2 * n])
    g, o = np.tanh(z[2 * n:3 * n]), sig(z[3 * n:])
    c2 = f * c + i * g
    return o * np.tanh(c2), c2


def make_params(rng, input_size, hidden):
    return LSTMCellParams(
        Tensor(rng.uniform(-0.5, 0.5, (4 * hidden, input_size)), requires_grad=True),
        Tensor(rng.uniform(-0.5, 0.5, (4 * hidden, hidden)), requires_grad=True),
        Tensor(rng.uniform(-0.5, 0.5, (4 * hidden,)), requires_grad=True),
    )


def zero_params(input_size, hidden):
    return LSTMCellParams(
        Tensor(np.zeros((4 * hidden, input_size))),
        Tensor(np.zeros((4 * hidden, hidden))),
        Tensor(np.zeros((4 * hidden,))),
    )


def unroll_bi(fwd, bwd, xs):
    """Independent bidirectional unroll returning per-position [f; b]."""
    n = len(xs)
    h = np.zeros(fwd.hidden_size)
    c = np.zeros_like(h)
    f_states = []
    for x in xs:
        h, c = reference_step(fwd.w_ih.values, fwd.w_hh.values, fwd.b.values, x, h, c)
        f_states.append(h)
    h = np.zeros(bwd.hidden_size)
    c = np.zeros_like(h)
    b_states = [None] * n
    for k in range(n - 1, -1, -1):
        h, c = reference_step(bwd.w_ih.values, bwd.w_hh.values, bwd.b.values, xs[k], h, c)
        b_states[k] = h
    return f_states, b_states


class TestEncodeQuestion:
    def test_matches_hand_unroll(self):
        rng = np.random.default_rng(0)
        fwd, bwd = make_params(rng, 5, 3), make_params(rng, 5, 3)
        xs = [rng.uniform(-1, 1, 5) for _ in range(3)]
        [enc] = encode_question([Tensor(np.array(xs))], fwd, bwd)
        f_ref, b_ref = unroll_bi(fwd, bwd, xs)
        for k in range(3):
            np.testing.assert_allclose(enc.states.values[k],
                                       np.concatenate([f_ref[k], b_ref[k]]), atol=1e-14)
        np.testing.assert_allclose(enc.question_vector.values,
                                   np.concatenate([b_ref[0], f_ref[-1]]), atol=1e-14)
        np.testing.assert_allclose(enc.final_state.values, enc.states.values[-1])

    def test_single_token(self):
        rng = np.random.default_rng(1)
        fwd, bwd = make_params(rng, 4, 2), make_params(rng, 4, 2)
        x = rng.uniform(-1, 1, 4)
        [enc] = encode_question([Tensor(x[None, :])], fwd, bwd)
        assert enc.states.shape == (1, 4)
        f_ref, b_ref = unroll_bi(fwd, bwd, [x])
        np.testing.assert_allclose(enc.question_vector.values,
                                   np.concatenate([b_ref[0], f_ref[0]]), atol=1e-14)

    def test_zero_params_zero_states(self):
        fwd, bwd = zero_params(4, 2), zero_params(4, 2)
        [enc] = encode_question([Tensor(np.ones((3, 4)))], fwd, bwd)
        np.testing.assert_array_equal(enc.states.values, 0.0)

    def test_turn_vector_concatenated_in_both_directions(self):
        rng = np.random.default_rng(2)
        fwd, bwd = make_params(rng, 7, 3), make_params(rng, 7, 3)
        xs = [rng.uniform(-1, 1, 4) for _ in range(2)]
        tv = rng.uniform(-1, 1, 3)
        [enc] = encode_question([Tensor(np.array(xs))], fwd, bwd, [Tensor(tv)])
        cat = [np.concatenate([x, tv]) for x in xs]
        f_ref, b_ref = unroll_bi(fwd, bwd, cat)
        for k in range(2):
            np.testing.assert_allclose(enc.states.values[k],
                                       np.concatenate([f_ref[k], b_ref[k]]), atol=1e-14)

    def test_zero_turn_vector_with_zero_block_reduces_to_base(self):
        # Zero out the weight columns that multiply the turn vector: the
        # augmented encoder must match the plain one.
        rng = np.random.default_rng(3)
        fwd, bwd = make_params(rng, 7, 3), make_params(rng, 7, 3)
        for p in (fwd, bwd):
            p.w_ih.values[:, 4:] = 0.0
        base_fwd = LSTMCellParams(Tensor(fwd.w_ih.values[:, :4]), fwd.w_hh, fwd.b)
        base_bwd = LSTMCellParams(Tensor(bwd.w_ih.values[:, :4]), bwd.w_hh, bwd.b)
        xs = Tensor(np.array([rng.uniform(-1, 1, 4) for _ in range(3)]))
        [aug] = encode_question([xs], fwd, bwd, [Tensor(np.zeros(3))])
        [plain] = encode_question([xs], base_fwd, base_bwd)
        np.testing.assert_allclose(aug.states.values, plain.states.values, atol=1e-15)

    def test_empty_sequence_rejected(self):
        fwd, bwd = zero_params(4, 2), zero_params(4, 2)
        with pytest.raises(ContractError):
            encode_question([Tensor(np.zeros((0, 4)))], fwd, bwd)

    def test_one_pass_one_tape_entry(self):
        # the fused pass, then the question vector's concat; the state
        # matrix is the pass's own output
        rng = np.random.default_rng(17)
        fwd, bwd = make_params(rng, 5, 2), make_params(rng, 5, 2)
        with Tape() as tape:
            encode_question([Tensor(rng.uniform(-1, 1, (4, 3)))], fwd, bwd,
                            [Tensor(rng.uniform(-1, 1, 2))])
        assert len(tape) == 2

    def test_gradients(self):
        rng = np.random.default_rng(4)
        fwd, bwd = make_params(rng, 3, 2), make_params(rng, 3, 2)
        xs = Tensor(np.array([rng.uniform(-1, 1, 3) for _ in range(2)]), requires_grad=True)

        def loss():
            [enc] = encode_question([xs], fwd, bwd)
            return ops.reduce_sum(ops.tanh(enc.question_vector))

        params = fwd.tensors() + bwd.tensors() + [xs]
        assert grad_check(loss, params).max_rel_error < 1e-6


def zero_state(hidden):
    return Tensor(np.zeros(hidden)), Tensor(np.zeros(hidden))


class TestTurnState:
    """The turn-level encoder: :func:`lstm_cell` stepped once per
    question vector, from zero states."""

    def test_single_step_matches_cell(self):
        rng = np.random.default_rng(5)
        cell = make_params(rng, 4, 4)
        q = rng.uniform(-1, 1, 4)
        [(h, c)], _ = lstm_cell(cell, [Tensor(q)], zero_state(4))
        h_ref, c_ref = reference_step(cell.w_ih.values, cell.w_hh.values, cell.b.values,
                                      q, np.zeros(4), np.zeros(4))
        np.testing.assert_allclose(h.values, h_ref, atol=1e-12)
        np.testing.assert_allclose(c.values, c_ref, atol=1e-12)

    def test_zero_params_stay_zero(self):
        cell = zero_params(4, 4)
        h, c = zero_state(4)
        for _ in range(3):
            [(h, c)], _ = lstm_cell(cell, [Tensor(np.ones(4))], (h, c))
            np.testing.assert_array_equal(h.values, 0.0)

    def test_three_updates_sequential(self):
        rng = np.random.default_rng(6)
        cell = make_params(rng, 4, 4)
        qs = [rng.uniform(-1, 1, 4) for _ in range(3)]
        h, c = zero_state(4)
        h_ref, c_ref = np.zeros(4), np.zeros(4)
        for q in qs:
            [(h, c)], _ = lstm_cell(cell, [Tensor(q)], (h, c))
            h_ref, c_ref = reference_step(cell.w_ih.values, cell.w_hh.values, cell.b.values,
                                          q, h_ref, c_ref)
            np.testing.assert_allclose(h.values, h_ref, atol=1e-12)

    def test_dim_mismatch(self):
        cell = zero_params(4, 4)
        with pytest.raises(DimensionError):
            lstm_cell(cell, [Tensor(np.ones(5))], zero_state(4))


class TestGate:
    def _params(self, rng, q, inner):
        return (Tensor(rng.uniform(-1, 1, (inner, q))),
                Tensor(rng.uniform(-1, 1, (inner, q))),
                Tensor(rng.uniform(-1, 1, inner)))

    def test_singleton_history(self):
        rng = np.random.default_rng(7)
        u, w, v = self._params(rng, 4, 3)
        cur = Tensor(rng.uniform(-1, 1, 4))
        out = gate_importances([cur], cur, u, w, v)
        np.testing.assert_allclose(out.values, [1.0])

    def test_zero_score_vector_uniform(self):
        rng = np.random.default_rng(8)
        u, w, _ = self._params(rng, 4, 3)
        v = Tensor(np.zeros(3))
        history = [Tensor(rng.uniform(-1, 1, 4)) for _ in range(4)]
        out = gate_importances(history, history[-1], u, w, v)
        np.testing.assert_allclose(out.values, 0.25)

    def test_direct_formula(self):
        rng = np.random.default_rng(9)
        u, w, v = self._params(rng, 5, 4)
        history = [rng.uniform(-1, 1, 5) for _ in range(3)]
        cur = history[-1]
        out = gate_importances([Tensor(q) for q in history], Tensor(cur), u, w, v)
        scores = np.array([v.values @ np.tanh(u.values @ q + w.values @ cur)
                           for q in history])
        expect = np.exp(scores - scores.max())
        expect /= expect.sum()
        np.testing.assert_allclose(out.values, expect, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            u, w, v = self._params(rng, 3, 3)
            history = [Tensor(rng.uniform(-3, 3, 3)) for _ in range(int(rng.integers(1, 6)))]
            out = gate_importances(history, history[-1], u, w, v)
            assert abs(out.values.sum() - 1.0) < 1e-9
            assert (out.values >= 0).all()

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(11)
        u, w, v = self._params(rng, 4, 4)
        history = [Tensor(rng.uniform(-1, 1, 4)) for _ in range(5)]
        cur = history[-1]
        base = gate_importances(history, cur, u, w, v).values
        perm = [3, 0, 4, 1, 2]
        shuffled = gate_importances([history[k] for k in perm], cur, u, w, v).values
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-12)

    def test_empty_history_rejected(self):
        u = w = Tensor(np.zeros((2, 2)))
        v = Tensor(np.zeros(2))
        with pytest.raises(ContractError):
            gate_importances([], Tensor(np.zeros(2)), u, w, v)

    def test_gradients(self):
        rng = np.random.default_rng(12)
        u = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
        v = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        history = [Tensor(rng.uniform(-1, 1, 3)) for _ in range(3)]

        def loss():
            g = gate_importances(history, history[-1], u, w, v)
            return ops.matmul(g, Tensor([1.0, 0.0, 0.0]))

        assert grad_check(loss, [u, w, v]).max_rel_error < 1e-6


class TestActionAndNameEncoders:
    def test_encode_actions_matches_hand_unroll(self):
        rng = np.random.default_rng(13)
        fwd, bwd = make_params(rng, 4, 3), make_params(rng, 4, 3)
        xs = [rng.uniform(-1, 1, 4) for _ in range(3)]
        [(states, final)] = encode_actions([Tensor(np.array(xs))], fwd, bwd)
        f_ref, b_ref = unroll_bi(fwd, bwd, xs)
        assert states.shape == (3, 6)
        for k in range(3):
            np.testing.assert_allclose(states.values[k],
                                       np.concatenate([f_ref[k], b_ref[k]]), atol=1e-14)
        np.testing.assert_allclose(final.values,
                                   np.concatenate([f_ref[-1], b_ref[0]]), atol=1e-14)

    def test_single_action(self):
        rng = np.random.default_rng(14)
        fwd, bwd = make_params(rng, 4, 3), make_params(rng, 4, 3)
        [(states, final)] = encode_actions([Tensor(rng.uniform(-1, 1, (1, 4)))], fwd, bwd)
        assert states.shape == (1, 6)
        np.testing.assert_allclose(final.values, states.values[0])

    def test_encode_name_unidirectional(self):
        rng = np.random.default_rng(15)
        cell = make_params(rng, 4, 4)
        xs = [rng.uniform(-1, 1, 4) for _ in range(2)]
        [out] = encode_name([Tensor(np.array(xs))], cell)
        h, c = np.zeros(4), np.zeros(4)
        for x in xs:
            h, c = reference_step(cell.w_ih.values, cell.w_hh.values, cell.b.values, x, h, c)
        np.testing.assert_allclose(out.values, h, atol=1e-12)

    def test_empty_inputs_rejected(self):
        cell = zero_params(3, 3)
        with pytest.raises(ContractError):
            encode_name([Tensor(np.zeros((0, 3)))], cell)
        with pytest.raises(ContractError):
            encode_actions([Tensor(np.zeros((0, 3)))], cell, cell)

    def test_gradients_through_final_state(self):
        rng = np.random.default_rng(16)
        fwd, bwd = make_params(rng, 3, 2), make_params(rng, 3, 2)
        xs = Tensor(np.array([rng.uniform(-1, 1, 3) for _ in range(3)]), requires_grad=True)

        def loss():
            return ops.reduce_sum(encode_actions([xs], fwd, bwd)[0][1])

        assert grad_check(loss, fwd.tensors() + bwd.tensors() + [xs]).max_rel_error < 1e-6


class TestBatchedEncoders:
    """A list of inputs shares one pass; each result equals the one a
    call with that input alone gives, bit for bit."""

    @pytest.mark.parametrize("with_turn", [False, True])
    def test_questions(self, with_turn):
        rng = np.random.default_rng(50)
        tail = 3 if with_turn else 0
        fwd, bwd = make_params(rng, 4 + tail, 3), make_params(rng, 4 + tail, 3)
        xs = [Tensor(rng.uniform(-1, 1, (m, 4))) for m in (2, 5, 1, 3)]
        tvs = [Tensor(rng.uniform(-1, 1, tail)) for _ in xs] if with_turn else None
        with Tape() as tape:
            batch = encode_question(xs, fwd, bwd, tvs)
        assert len(tape) == 1 + len(xs)      # the pass, and each question vector's concat
        for k, enc in enumerate(batch):
            [one] = encode_question([xs[k]], fwd, bwd, None if tvs is None else [tvs[k]])
            np.testing.assert_array_equal(enc.states.values, one.states.values)
            np.testing.assert_array_equal(enc.question_vector.values,
                                          one.question_vector.values)

    def test_actions_and_names(self):
        rng = np.random.default_rng(51)
        fwd, bwd = make_params(rng, 4, 3), make_params(rng, 4, 3)
        cell = make_params(rng, 4, 4)
        xs = [Tensor(rng.uniform(-1, 1, (m, 4))) for m in (4, 1, 2)]
        for (states, final), x in zip(encode_actions(xs, fwd, bwd), xs):
            [(one_states, one_final)] = encode_actions([x], fwd, bwd)
            np.testing.assert_array_equal(states.values, one_states.values)
            np.testing.assert_array_equal(final.values, one_final.values)
        for h, x in zip(encode_name(xs, cell), xs):
            np.testing.assert_array_equal(h.values, encode_name([x], cell)[0].values)
