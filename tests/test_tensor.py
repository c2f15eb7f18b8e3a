"""Tensor op semantics and gradients.

Gradients are checked two ways: against hand-derived closed forms for
the simple ops, and against central finite differences for everything,
including compositions.
"""

import inspect

import numpy as np
import pytest

from dialsql.nn import (
    ContractError,
    InvalidMaskError,
    DimensionError,
    LSTMCellParams,
    NumericError,
    Tape,
    Tensor,
    grad_check,
    lstm_cell,
    lstm_sequence,
    ops,
    set_precision,
)


def leaf(values):
    t = Tensor(values)
    t.requires_grad = True
    return t


def softmax(scores):
    """The softmax of ``scores``: :func:`ops.mixture` with one part and
    no copy inputs."""
    return ops.mixture([scores])[0]


def copy_probs(scores, mask):
    """The masked softmax of ``scores``, read from :func:`ops.mixture`'s
    copy distribution under an identity aggregation."""
    n = scores.size
    return ops.mixture([Tensor(np.zeros(n))], scores, mask, np.eye(n), Tensor(0.0))[2]


class TestSoftmax:
    def test_uniform_on_equal_scores(self):
        p = softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(p.values, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)

    def test_masked_positions_exactly_zero(self):
        p = copy_probs(Tensor([10.0, 0.0]), [True, False])
        assert p.values[1] == 0.0
        assert p.values[0] == 1.0

    def test_frozen_values(self):
        # softmax([1, 2, 3]) computed independently with mpmath.
        p = softmax(Tensor([1.0, 2.0, 3.0]))
        expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
        np.testing.assert_allclose(p.values, expected, rtol=0, atol=1e-15)

    def test_large_scores_do_not_overflow(self):
        p = softmax(Tensor([1000.0, 1000.0, 999.0]))
        assert np.isfinite(p.values).all()
        assert abs(p.values.sum() - 1.0) < 1e-12

    def test_all_false_mask_rejected(self):
        with pytest.raises(InvalidMaskError):
            copy_probs(Tensor([1.0, 2.0]), [False, False])

    def test_nonfinite_unmasked_score_rejected(self):
        with pytest.raises(NumericError):
            copy_probs(Tensor([np.nan, 1.0]), [True, True])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_score_rejected_in_vectors_and_rows(self, bad):
        for shape in ((3,), (2, 3)):
            scores = np.zeros(shape)
            scores[..., 1] = bad
            with pytest.raises(NumericError):
                ops.mixture([Tensor(scores)])
            with pytest.raises(NumericError):
                ops.mixture([Tensor(np.zeros(shape))], Tensor(scores), [True, True, False],
                            np.eye(3), Tensor(np.zeros(shape[:-1])))

    def test_nonfinite_masked_score_ignored(self):
        p = copy_probs(Tensor([np.inf, 1.0, 2.0]), [False, True, True])
        assert p.values[0] == 0.0
        assert abs(p.values.sum() - 1.0) < 1e-15

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = rng.integers(1, 12)
            scores = Tensor(rng.normal(size=n) * 10)
            mask = rng.random(n) < 0.7
            if not mask.any():
                mask[rng.integers(n)] = True
            p = copy_probs(scores, mask)
            assert abs(p.values.sum() - 1.0) <= 1e-9
            assert (p.values[~mask] == 0.0).all()
            assert (p.values[mask] > 0.0).all()

    def test_gradient_matches_jacobian(self):
        # d p_i / d s_j = p_i (delta_ij - p_j); the backward contracts
        # an upstream vector with this Jacobian.
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            s = leaf(rng.normal(size=n))
            upstream = rng.normal(size=n)
            with Tape() as tape:
                p = softmax(s)
                loss = ops.reduce_sum(ops.mul(p, Tensor(upstream)))
                tape.backward(loss)
            pv = p.values
            jac = np.diag(pv) - np.outer(pv, pv)
            np.testing.assert_allclose(s.grad, jac.T @ upstream, atol=1e-12)


class TestFastPaths:
    """The unmasked softmax and the no-tape path are shortcuts: they must
    give what the general path gives, bit for bit."""

    def test_softmax_equals_all_true_mask_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 40):
            raw = rng.normal(scale=5.0, size=n)
            upstream = rng.normal(size=n)
            results = []
            for fn in (softmax, lambda s: copy_probs(s, np.ones(n, dtype=bool))):
                s = leaf(raw.copy())
                with Tape() as tape:
                    p = fn(s)
                    tape.backward(ops.matmul(p, Tensor(upstream)))
                results.append((p.values, s.grad))
            (p1, g1), (p2, g2) = results
            assert np.array_equal(p1, p2)
            assert np.array_equal(g1, g2)

    def test_unmasked_softmax_keeps_the_contract(self):
        with pytest.raises(NumericError):
            softmax(Tensor([1.0, -np.inf]))
        with pytest.raises(InvalidMaskError):
            softmax(Tensor(np.zeros(0)))
        with pytest.raises(DimensionError):
            softmax(Tensor(np.zeros((2, 2, 2))))

    def test_sigmoid_equals_two_branch_reference_bit_for_bit(self):
        rng = np.random.default_rng(12)
        v = np.concatenate([rng.normal(scale=20.0, size=200),
                            [-800.0, -40.0, -0.0, 0.0, 1e-300, 40.0, 800.0]])
        expected = np.empty_like(v)
        pos = v >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        expected[~pos] = ev / (1.0 + ev)
        assert np.array_equal(ops._sigmoid_values(v), expected)
        for gate in (-800.0, -3.0, 0.0, 3.0, 800.0):     # the copy gate, a scalar
            p_copy = ops.mixture([Tensor(np.zeros(2))], Tensor(np.zeros(2)), [True, True],
                                 np.eye(2), Tensor(gate))[3]
            e = np.exp(-abs(gate))
            assert p_copy.values == (1.0 / (1.0 + e) if gate >= 0 else e / (1.0 + e))

    @staticmethod
    def _every_op(x, m, s):
        """One call of each differentiable op, on leaves that require grad."""
        v = ops.add(x, x)
        outs = [v, ops.mul(x, v),
                ops.scale_by(x, s), ops.tanh(x), ops.reduce_sum(x), ops.matmul(x, x),
                ops.take_rows(m, 1), ops.take_rows(m, [0, 0]),
                ops.concat([x, x]), ops.stack([s, s]), ops.stack([x, x]),
                ops.expand_by_counts(x, [1, 2]), ops.transpose(m),
                ops.matmul(m, x), ops.rows_matmul(m, m, True),
                ops.partition(x, [[1], [0]])[0],
                ops.attention(m, m, x, x)[1], ops.link_scores(m, m, s, s, m, m),
                ops.mixture([x], x, [True, False], np.eye(2), s)[0],
                ops.output_layer([x], [x], [x], [([0], m, True, m, [True, False], np.eye(4, 2))],
                                 None, m, (m, m, x, s))[0][0],
                ops.nll([x], [0])]
        return outs

    def test_every_op_covers_every_public_op(self, monkeypatch):
        not_ops = {"set_precision", "get_precision", "active_dtype"}
        public = {name for name, fn in vars(ops).items()
                  if inspect.isfunction(fn) and fn.__module__ == ops.__name__
                  and not name.startswith("_") and name not in not_ops}
        called, depth = set(), [0]

        def counting(name, fn):
            def wrapper(*args):
                if not depth[0]:          # ops that others delegate to count only when called directly
                    called.add(name)
                depth[0] += 1
                try:
                    return fn(*args)
                finally:
                    depth[0] -= 1
            return wrapper

        for name in public:
            monkeypatch.setattr(ops, name, counting(name, getattr(ops, name)))
        self._every_op(leaf([0.5, -1.0]), leaf(np.ones((2, 2))), leaf(2.0))
        assert called == public

    def test_no_tape_records_nothing(self):
        x, m, s = leaf([0.5, -1.0]), leaf(np.ones((2, 2))), leaf(2.0)
        with Tape() as closed:
            pass
        for out in self._every_op(x, m, s):
            assert out.requires_grad is False
        assert len(closed) == 0

    def test_tape_open_in_another_thread_is_not_used(self):
        import threading

        x, m, s = leaf([0.5, -1.0]), leaf(np.ones((2, 2))), leaf(2.0)
        opened, release = threading.Event(), threading.Event()
        tapes = []

        def hold_tape():
            with Tape() as tape:
                tapes.append(tape)
                opened.set()
                release.wait(10)

        worker = threading.Thread(target=hold_tape)
        worker.start()
        try:
            assert opened.wait(10)
            outs = self._every_op(x, m, s)
        finally:
            release.set()
            worker.join()
        assert all(out.requires_grad is False for out in outs)
        assert len(tapes[0]) == 0

    def test_every_op_records_under_a_tape(self):
        x, m, s = leaf([0.5, -1.0]), leaf(np.ones((2, 2))), leaf(2.0)
        with Tape() as tape:
            outs = self._every_op(x, m, s)
        assert all(out.requires_grad for out in outs)
        assert len(tape) == len(outs)


class TestBackwardBasics:
    def test_sum_backward_is_ones(self):
        x = leaf([1.0, 2.0, 3.0])
        with Tape() as tape:
            tape.backward(ops.reduce_sum(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_dot_backward_swaps_operands(self):
        a = leaf([1.0, 2.0])
        b = leaf([3.0, 4.0])
        with Tape() as tape:
            tape.backward(ops.matmul(a, b))
        np.testing.assert_array_equal(a.grad, b.values)
        np.testing.assert_array_equal(b.grad, a.values)

    def test_grad_accumulates_across_uses(self):
        x = leaf([2.0])
        with Tape() as tape:
            y = ops.add(x, x)
            tape.backward(ops.reduce_sum(y))
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_unreached_leaf_gets_zero_grad(self):
        x = leaf([1.0, 1.0])
        y = leaf([5.0])
        w = leaf(np.ones((2, 3)))       # its vjp would return factors
        with Tape() as tape:
            _unused = ops.scale_by(y, Tensor(3.0))
            _unused_too = ops.matmul(w, Tensor([1.0, 0.0, 0.0]))
            tape.backward(ops.reduce_sum(x))
        np.testing.assert_array_equal(y.grad, [0.0])
        np.testing.assert_array_equal(w.grad, np.zeros((2, 3)))

    def test_constant_input_gets_no_grad(self):
        x = leaf([1.0, 2.0])
        c = Tensor([3.0, 4.0])
        with Tape() as tape:
            tape.backward(ops.reduce_sum(ops.mul(x, c)))
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])
        assert c.grad is None

    def test_unreached_entry_never_runs_its_vjp(self):
        def refuse(*grads):
            raise AssertionError("vjp of an entry no path to the loss reached")

        x = leaf([1.0, 2.0])
        with Tape() as tape:
            tape.record((Tensor([0.0]),), (x,), refuse)
            tape.backward(ops.reduce_sum(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])

    def test_multi_output_entry_gets_none_for_an_unreached_output(self):
        x = leaf([1.0, 2.0])
        reached, unreached = Tensor([0.0, 0.0]), Tensor([0.0])
        seen = []

        def vjp(g_reached, g_unreached):
            seen.append((g_reached, g_unreached))
            return (2.0 * g_reached,)

        with Tape() as tape:
            tape.record((reached, unreached), (x,), vjp)
            tape.backward(ops.reduce_sum(reached))
        [(g_reached, g_unreached)] = seen
        np.testing.assert_array_equal(g_reached, [1.0, 1.0])
        assert g_unreached is None
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_no_recording_without_tape(self):
        x = leaf([1.0, 2.0])
        y = ops.tanh(x)
        assert y.requires_grad is False

    def test_none_delta_leaves_an_input_as_if_unreached(self):
        x, y = leaf([1.0, 2.0]), leaf([5.0])
        with Tape() as tape:
            out = Tensor([0.0, 0.0])
            tape.record((out,), (x, y), lambda g: (3.0 * g, None))
            tape.backward(ops.reduce_sum(out))
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])
        np.testing.assert_array_equal(y.grad, [0.0])

    def test_nonscalar_loss_rejected(self):
        x = leaf([1.0, 2.0])
        with Tape() as tape:
            y = ops.tanh(x)
            with pytest.raises(Exception):
                tape.backward(y)


class TestShapes:
    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ops.add(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ops.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_take_rows_repeated_indices_accumulate(self):
        m = leaf(np.arange(6.0).reshape(3, 2))
        with Tape() as tape:
            picked = ops.take_rows(m, [0, 0, 2])
            tape.backward(ops.reduce_sum(picked))
        np.testing.assert_array_equal(m.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_expand_by_counts_roundtrip(self):
        v = leaf([1.0, 2.0, 3.0])
        with Tape() as tape:
            e = ops.expand_by_counts(v, [2, 1, 3])
            np.testing.assert_array_equal(e.values, [1.0, 1.0, 2.0, 3.0, 3.0, 3.0])
            tape.backward(ops.reduce_sum(e))
        np.testing.assert_array_equal(v.grad, [2.0, 1.0, 3.0])


def _composition(x, w, b, pick_index):
    """A little network touching most op kinds."""
    h = ops.tanh(ops.add(ops.matmul(w, x), b))
    p = softmax(ops.scale_by(h, Tensor(0.5)))
    return ops.add(ops.reduce_sum(ops.mul(p, h)), ops.nll([p], [pick_index]))


class TestFiniteDifferences:
    def test_unary_ops(self):
        rng = np.random.default_rng(7)
        cases = {
            "tanh": ops.tanh,
            "scale_by a constant": lambda t: ops.scale_by(t, Tensor(-1.5)),
        }
        for name, fn in cases.items():
            x = leaf(rng.normal(size=5))
            res = grad_check(lambda: ops.reduce_sum(ops.mul(fn(x), x)), [x])
            assert res.max_rel_error < 1e-6, f"{name}: {res}"

    def test_matmul_variants(self):
        rng = np.random.default_rng(9)
        m = leaf(rng.normal(size=(3, 4)))
        n = leaf(rng.normal(size=(4, 2)))
        v = leaf(rng.normal(size=4))
        u = leaf(rng.normal(size=3))

        res = grad_check(lambda: ops.reduce_sum(ops.matmul(m, n)), [m, n])
        assert res.max_rel_error < 1e-6
        res = grad_check(lambda: ops.reduce_sum(ops.matmul(m, v)), [m, v])
        assert res.max_rel_error < 1e-6
        res = grad_check(lambda: ops.reduce_sum(ops.matmul(u, m)), [u, m])
        assert res.max_rel_error < 1e-6
        res = grad_check(lambda: ops.matmul(v, v), [v])
        assert res.max_rel_error < 1e-6

    def test_structural_ops(self):
        rng = np.random.default_rng(10)
        a = leaf(rng.normal(size=4))
        b = leaf(rng.normal(size=3))
        m = leaf(rng.normal(size=(3, 4)))

        def loss():
            joined = ops.concat([a, b])
            stacked = ops.stack([b, b])
            got = ops.take_rows(ops.transpose(stacked), [0, 2, 2])
            mixed = ops.matmul(got, ops.take_rows(m, [1, 0]))
            return ops.add(
                ops.add(ops.reduce_sum(ops.tanh(mixed)), ops.reduce_sum(joined)),
                ops.matmul(ops.take_rows(m, 1), Tensor([0.0, 0.0, 1.0, 0.0])),
            )

        res = grad_check(loss, [a, b, m])
        assert res.max_rel_error < 1e-6

    @pytest.mark.parametrize("counts", [[2, 0, 1], [2, 0]])
    def test_expand_by_counts_with_a_zero_count(self, counts):
        rng = np.random.default_rng(15)
        v = leaf(rng.normal(size=len(counts)))
        weights = Tensor(rng.normal(size=sum(counts)))
        res = grad_check(lambda: ops.matmul(ops.expand_by_counts(v, counts), weights), [v])
        assert res.max_rel_error < 1e-6, res
        v.grad = None
        with Tape() as tape:
            tape.backward(ops.matmul(ops.expand_by_counts(v, counts),
                                  Tensor([10.0, 20.0, 30.0][:sum(counts)])))
        assert v.grad.tolist() == [30.0, 0.0, 30.0][:len(counts)]

    def test_join_rows_and_columns(self):
        rng = np.random.default_rng(14)
        a = leaf(rng.normal(size=(2, 3)))
        b = leaf(rng.normal(size=(1, 3)))
        c = leaf(rng.normal(size=(3, 2)))
        weights = Tensor(rng.normal(size=(3, 5)))
        rows = ops.concat([a, b], 0)
        np.testing.assert_array_equal(rows.values, np.vstack([a.values, b.values]))
        np.testing.assert_array_equal(ops.concat([rows, c], 1).values,
                                      np.hstack([rows.values, c.values]))
        with pytest.raises(DimensionError):
            ops.concat([a, c], 0)
        with pytest.raises(DimensionError):
            ops.concat([a, Tensor(np.zeros(3))], 0)

        def loss():
            joined = ops.concat([ops.concat([a, b], 0), c], 1)
            return ops.reduce_sum(ops.tanh(ops.mul(joined, weights)))

        res = grad_check(loss, [a, b, c])
        assert res.max_rel_error < 1e-6

    def test_concat_side_by_side(self):
        rng = np.random.default_rng(17)
        a = leaf(rng.normal(size=(3, 1)))
        b = leaf(rng.normal(size=(3, 4)))
        c = leaf(rng.normal(size=(3, 2)))
        weights = Tensor(rng.normal(size=(3, 7)))
        res = grad_check(lambda: ops.reduce_sum(ops.tanh(ops.mul(ops.concat([a, b, c], 1),
                                                                 weights))), [a, b, c])
        assert res.max_rel_error < 1e-6, res

    def test_stack_scalars_and_vectors(self):
        rng = np.random.default_rng(18)
        s = [leaf(v) for v in rng.normal(size=3)]
        v = [leaf(rng.normal(size=4)) for _ in range(3)]
        assert ops.stack(s).shape == (3,) and ops.stack(v).shape == (3, 4)
        np.testing.assert_array_equal(ops.stack(v).values, np.vstack([x.values for x in v]))
        w_s = Tensor(rng.normal(size=3))
        w_v = Tensor(rng.normal(size=(3, 4)))
        res = grad_check(lambda: ops.matmul(ops.tanh(ops.stack(s)), w_s), s)
        assert res.max_rel_error < 1e-6, res
        res = grad_check(lambda: ops.reduce_sum(ops.tanh(ops.mul(ops.stack(v), w_v))), v)
        assert res.max_rel_error < 1e-6, res

    def test_joining_ops_reject_bad_shapes(self):
        s, v, m = Tensor(1.0), Tensor(np.zeros(2)), Tensor(np.zeros((2, 2)))
        cases = [
            lambda: ops.concat([s, s]),                     # scalar parts
            lambda: ops.concat([v, m]),                     # mixed ranks
            lambda: ops.concat([m, v], 1),
            lambda: ops.concat([v, v], 1),                  # no axis 1 on vectors
            lambda: ops.concat([m, m], 2),
            lambda: ops.concat([Tensor(np.zeros((1, 2, 2)))] * 2),   # beyond matrices
            lambda: ops.stack([s, v]),                      # mixed shapes
            lambda: ops.stack([v, Tensor(np.zeros(3))]),
            lambda: ops.stack([m, m]),                      # beyond scalars and vectors
        ]
        for case in cases:
            with pytest.raises(DimensionError):
                case()
        for op in (ops.concat, ops.stack):
            with pytest.raises(ContractError):
                op([])

    def test_scalar_scaling_ops(self):
        rng = np.random.default_rng(11)
        a = leaf(rng.normal(size=4))
        s = leaf(1.7)

        res = grad_check(lambda: ops.reduce_sum(ops.scale_by(a, s)), [a, s])
        assert res.max_rel_error < 1e-6

    def test_lstm_cell_with_a_loss_on_the_cell_state_only(self):
        # h' reaches no loss, so the fused vjp runs without its gradient.
        rng = np.random.default_rng(12)
        params = LSTMCellParams(leaf(rng.normal(size=(8, 3)) * 0.5),
                                leaf(rng.normal(size=(8, 2)) * 0.5),
                                leaf(rng.normal(size=8) * 0.1))
        x, h, c = leaf(rng.normal(size=3)), leaf(rng.normal(size=2)), leaf(rng.normal(size=2))
        weights = Tensor(rng.normal(size=2))
        res = grad_check(lambda: ops.matmul(lstm_cell(params, [x], (h, c))[0][0][1], weights),
                         params.tensors() + [x, h, c])
        assert res.max_rel_error < 1e-6, res

    def test_random_compositions(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            n_in = int(rng.integers(2, 5))
            n_out = int(rng.integers(2, 5))
            x = leaf(rng.normal(size=n_in))
            w = leaf(rng.normal(size=(n_out, n_in)) * 0.5)
            b = leaf(rng.normal(size=n_out) * 0.1)
            k = int(rng.integers(n_out))
            res = grad_check(lambda: _composition(x, w, b, k), [x, w, b])
            assert res.max_rel_error < 1e-5, f"trial {trial}: {res}"


class TestFusedOps:
    """The decoder step's fused entries: finite differences, and forward
    values equal, bit for bit, to NumPy expressions of the same
    arithmetic."""

    @pytest.mark.parametrize("bits, dtype", [(64, np.float64), (32, np.float32)])
    def test_link_scores_equal_their_composition_bit_for_bit(self, bits, dtype):
        set_precision(bits)
        try:
            rng = np.random.default_rng(19)
            exact = Tensor(rng.integers(0, 2, size=(4, 3)).astype(float))
            partial = Tensor(rng.uniform(size=(4, 3)))
            w_exact, w_partial = leaf(rng.normal()), leaf(rng.normal())
            tokens, names = leaf(rng.normal(size=(4, 5))), leaf(rng.normal(size=(3, 5)))
            probe = Tensor(rng.normal(size=3))
            leaves = [w_exact, w_partial, tokens, names]

            def run(scores):
                for t in leaves:
                    t.grad = None
                with Tape() as tape:
                    out = scores()
                    # Every row reaches the loss, through a shared product.
                    tape.backward(ops.reduce_sum(ops.rows_matmul(out, probe)))
                return out.values.tobytes(), [t.grad.tobytes() for t in leaves]

            fused = run(lambda: ops.link_scores(exact, partial, w_exact, w_partial,
                                                tokens, names))
            composed = run(lambda: ops.add(ops.add(ops.scale_by(exact, w_exact),
                                                   ops.scale_by(partial, w_partial)),
                                           ops.matmul(tokens, ops.transpose(names))))
        finally:
            set_precision(64)
        assert w_exact.grad.dtype == dtype
        assert fused == composed

    def test_link_scores_gradients_and_shapes(self):
        rng = np.random.default_rng(18)
        exact, partial = leaf(rng.normal(size=(2, 3))), leaf(rng.normal(size=(2, 3)))
        w_exact, w_partial = leaf(rng.normal()), leaf(rng.normal())
        tokens, names = leaf(rng.normal(size=(2, 4))), leaf(rng.normal(size=(3, 4)))
        weights = Tensor(rng.normal(size=(2, 3)))
        res = grad_check(lambda: ops.reduce_sum(ops.mul(
            ops.link_scores(exact, partial, w_exact, w_partial, tokens, names), weights)),
            [exact, partial, w_exact, w_partial, tokens, names])
        assert res.max_rel_error < 1e-7, res
        with pytest.raises(DimensionError):
            ops.link_scores(exact, partial, w_exact, w_partial, tokens, tokens)
        with pytest.raises(DimensionError):
            ops.link_scores(exact, partial, exact, w_partial, tokens, names)

    @staticmethod
    def _attention_inputs(rng, gated):
        memory = leaf(rng.normal(size=(5, 3)))
        w_e = leaf(rng.normal(size=(3, 4)))
        h = leaf(rng.normal(size=4))
        coeffs = leaf(rng.uniform(0.1, 1.0, size=5)) if gated else None
        return memory, w_e, h, coeffs

    @pytest.mark.parametrize("gated", [False, True])
    @pytest.mark.parametrize("reached", ["weights", "context", "both"])
    def test_attention_gradients(self, gated, reached):
        rng = np.random.default_rng(20 + gated)
        memory, w_e, h, coeffs = self._attention_inputs(rng, gated)
        ua, uc = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=3))

        def loss():
            a, c = ops.attention(memory, w_e, h, coeffs)
            if reached == "weights":
                return ops.matmul(a, ua)
            if reached == "context":
                return ops.matmul(c, uc)
            return ops.add(ops.matmul(a, ua), ops.reduce_sum(ops.mul(c, c)))

        params = [memory, w_e, h] + ([coeffs] if gated else [])
        res = grad_check(loss, params)
        assert res.max_rel_error < 1e-6, res

    @pytest.mark.parametrize("gated", [False, True])
    def test_attention_equals_unfused_ops_bit_for_bit(self, gated):
        rng = np.random.default_rng(22)
        memory, w_e, h, coeffs = self._attention_inputs(rng, gated)
        a, c = ops.attention(memory, w_e, h, coeffs)
        scores = memory.values.dot(w_e.values.dot(h.values))
        e = np.exp(scores - scores.max())
        ref = e / e.sum()
        if gated:
            weighted = ref * coeffs.values
            ref = weighted / weighted.sum()
        assert np.array_equal(a.values, ref)
        assert np.array_equal(c.values, memory.values.T.dot(ref))

    def test_attention_checks_shapes(self):
        with pytest.raises(DimensionError):
            ops.attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
        with pytest.raises(DimensionError):
            ops.attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))), Tensor(np.zeros(3)),
                          Tensor(np.ones(3)))

    @staticmethod
    def _mixture_inputs(rng, subtrees, copy):
        parts = [leaf(rng.normal(size=4))]
        if subtrees:
            parts.append(leaf(rng.normal(size=2)))
        kwargs = {}
        if copy:
            n = sum(p.size for p in parts)
            agg = np.zeros((n, 5))
            for m in (0, 2, 3):
                agg[m % n, m] = 1.0
            kwargs = {"copy_scores": leaf(rng.normal(size=5)),
                      "copy_mask": [True, False, True, True, False],
                      "copy_agg": agg, "gate": leaf(0.3)}
        return parts, kwargs

    @pytest.mark.parametrize("subtrees", [False, True])
    @pytest.mark.parametrize("copy", [False, True])
    def test_mixture_gradients(self, subtrees, copy):
        rng = np.random.default_rng(30 + 2 * subtrees + copy)
        parts, kwargs = self._mixture_inputs(rng, subtrees, copy)
        res = grad_check(lambda: ops.nll([ops.mixture(parts, **kwargs)[0]], [2]),
                         parts + [kwargs[k] for k in ("copy_scores", "gate") if k in kwargs])
        assert res.max_rel_error < 1e-6, res

    def test_mixture_gradients_through_every_output(self):
        rng = np.random.default_rng(34)
        parts, kwargs = self._mixture_inputs(rng, True, True)
        weights = [Tensor(rng.normal(size=6)) for _ in range(3)]

        def loss():
            probs, gen, copy, p = ops.mixture(parts, **kwargs)
            return ops.add(ops.add(ops.matmul(probs, weights[0]), ops.matmul(gen, weights[1])),
                           ops.add(ops.matmul(copy, weights[2]), ops.scale_by(p, Tensor(2.0))))

        res = grad_check(loss, parts + [kwargs["copy_scores"], kwargs["gate"]])
        assert res.max_rel_error < 1e-6, res

    @pytest.mark.parametrize("subtrees", [False, True])
    @pytest.mark.parametrize("copy", [False, True])
    def test_mixture_equals_unfused_ops_bit_for_bit(self, subtrees, copy):
        rng = np.random.default_rng(35)
        parts, kwargs = self._mixture_inputs(rng, subtrees, copy)
        probs, gen, mixed_copy, p_copy = ops.mixture(parts, **kwargs)
        logits = np.concatenate([p.values for p in parts])
        e = np.exp(logits - logits.max())
        ref_gen = e / e.sum()
        assert np.array_equal(gen.values, ref_gen)
        if not copy:
            assert probs is gen and mixed_copy is None and p_copy is None
            return
        scores, mask = kwargs["copy_scores"].values, np.array(kwargs["copy_mask"])
        e = np.where(mask, np.exp(scores - scores[mask].max()), 0.0)
        ref_copy = kwargs["copy_agg"].dot(e / e.sum())
        ref_p = 1.0 / (1.0 + np.exp(-kwargs["gate"].values))     # the gate is positive
        assert np.array_equal(mixed_copy.values, ref_copy)
        assert np.array_equal(p_copy.values, ref_p)
        assert np.array_equal(probs.values, ref_copy * ref_p + ref_gen * (1.0 - ref_p))

    def test_mixture_checks_its_copy_inputs(self):
        rng = np.random.default_rng(36)
        parts, kwargs = self._mixture_inputs(rng, False, True)
        with pytest.raises(ContractError):
            ops.mixture(parts, gate=kwargs["gate"])
        with pytest.raises(ContractError):
            ops.mixture(parts, copy_scores=kwargs["copy_scores"])
        with pytest.raises(DimensionError):
            ops.mixture(parts, **{**kwargs, "copy_agg": np.zeros((3, 5))})
        with pytest.raises(InvalidMaskError):
            ops.mixture(parts, **{**kwargs, "copy_mask": [False] * 5})
        with pytest.raises(ContractError):
            ops.mixture([])

    def test_nll(self):
        rng = np.random.default_rng(37)
        probs = [leaf(rng.uniform(0.1, 1.0, size=n)) for n in (3, 1, 4)]
        targets = [2, 0, 1]
        loss = ops.nll(probs, targets)
        expected = None
        for p, t in zip(probs, targets):     # summed left to right
            term = 0.0 - np.log(p.values[t])
            expected = term if expected is None else expected + term
        assert loss.values == expected
        res = grad_check(lambda: ops.nll(probs, targets), probs)
        assert res.max_rel_error < 1e-6, res
        with pytest.raises(ContractError):
            ops.nll(probs, targets[:2])
        with pytest.raises(ContractError):
            ops.nll([], [])

    @staticmethod
    def _mixture_rows(rng, subtrees, copy, rows=3):
        """:meth:`_mixture_inputs` with one row per step: matrix logits
        and copy scores, one gate per row."""
        parts = [leaf(rng.normal(size=(rows, 4)))]
        if subtrees:
            parts.append(leaf(rng.normal(size=(rows, 2))))
        kwargs = {}
        if copy:
            n = sum(p.shape[1] for p in parts)
            agg = np.zeros((n, 5))
            for m in (0, 2, 3):
                agg[m % n, m] = 1.0
            agg[1, 4] = 1.0
            kwargs = {"copy_scores": leaf(rng.normal(size=(rows, 5))),
                      "copy_mask": [True, False, True, True, True],
                      "copy_agg": agg, "gate": leaf(rng.normal(size=rows))}
        return parts, kwargs

    @pytest.mark.parametrize("subtrees", [False, True])
    @pytest.mark.parametrize("copy", [False, True])
    def test_mixture_rows_gradients_through_every_output(self, subtrees, copy):
        rng = np.random.default_rng(50 + 2 * subtrees + copy)
        parts, kwargs = self._mixture_rows(rng, subtrees, copy)
        width = sum(p.shape[1] for p in parts)
        weights = [Tensor(rng.normal(size=(3, width))) for _ in range(3)]

        def loss():
            probs, gen, mixed, p_copy = ops.mixture(parts, **kwargs)
            total = ops.add(ops.nll([probs], [[2, 0, 1]]),
                            ops.reduce_sum(ops.mul(gen, weights[0])))
            if copy:
                total = ops.add(total, ops.add(ops.reduce_sum(ops.mul(mixed, weights[1])),
                                               ops.reduce_sum(ops.mul(p_copy, p_copy))))
            return total

        res = grad_check(loss, parts + [kwargs[k] for k in ("copy_scores", "gate") if k in kwargs])
        assert res.max_rel_error < 1e-6, res

    @pytest.mark.parametrize("bits, dtype", [(64, np.float64), (32, np.float32)])
    @pytest.mark.parametrize("subtrees", [False, True])
    @pytest.mark.parametrize("copy", [False, True])
    def test_mixture_rows_equal_one_row_calls_bit_for_bit(self, subtrees, copy, bits, dtype):
        set_precision(bits)
        try:
            rng = np.random.default_rng(60)
            parts, kwargs = self._mixture_rows(rng, subtrees, copy, rows=4)
            outs = ops.mixture(parts, **kwargs)
            for r in range(4):
                row_kwargs = dict(kwargs)
                if copy:
                    row_kwargs["copy_scores"] = Tensor(kwargs["copy_scores"].values[r])
                    row_kwargs["gate"] = Tensor(kwargs["gate"].values[r])
                ones = ops.mixture([Tensor(p.values[r]) for p in parts], **row_kwargs)
                for got, want in zip(outs, ones):
                    if want is None:
                        assert got is None
                        continue
                    assert got.values.dtype == want.values.dtype == dtype
                    assert np.array_equal(got.values[r], want.values)
        finally:
            set_precision(64)

    def test_mixture_rows_check_their_shapes(self):
        rng = np.random.default_rng(61)
        parts, kwargs = self._mixture_rows(rng, True, True)
        with pytest.raises(DimensionError):
            ops.mixture([parts[0], leaf(rng.normal(size=(2, 2)))])     # unequal rows
        with pytest.raises(DimensionError):
            ops.mixture([parts[0], leaf(rng.normal(size=2))])          # a row and rows
        with pytest.raises(DimensionError):
            ops.mixture(parts, **{**kwargs, "gate": leaf(0.3)})        # one gate per row
        with pytest.raises(DimensionError):
            ops.mixture(parts, **{**kwargs, "copy_scores": leaf(rng.normal(size=(2, 5)))})

    def test_nll_rows_added_in_the_given_order(self):
        rng = np.random.default_rng(62)
        probs = [leaf(rng.uniform(0.1, 1.0, size=3)), leaf(rng.uniform(0.1, 1.0, size=(3, 4))),
                 leaf(rng.uniform(0.1, 1.0, size=(2, 2)))]
        targets = [2, [0, 3, 1], [1, 1]]
        # Terms, numbered part by part and row by row: p0[2], p1[0,0],
        # p1[1,3], p1[2,1], p2[0,1], p2[1,1]; added in this order:
        order = [1, 4, 0, 5, 2, 3]
        picked = [probs[0].values[2], probs[1].values[0, 0], probs[1].values[1, 3],
                  probs[1].values[2, 1], probs[2].values[0, 1], probs[2].values[1, 1]]
        expected = None
        for j in order:
            term = 0.0 - np.log(picked[j])
            expected = term if expected is None else expected + term
        assert ops.nll(probs, targets, order).values == expected
        res = grad_check(lambda: ops.nll(probs, targets, order), probs)
        assert res.max_rel_error < 1e-6, res
        with pytest.raises(ContractError):
            ops.nll(probs, targets, order[:-1])
        with pytest.raises(ContractError):
            ops.nll(probs, targets, [0, 0, 1, 2, 3, 4])
        with pytest.raises(DimensionError):
            ops.nll(probs, [2, [0, 3], [1, 1]])           # one target per row

    @staticmethod
    def _row_products(rng):
        """(x, m, transpose) for every form of :func:`ops.rows_matmul`."""
        x = leaf(rng.normal(size=(4, 5)))
        return [(x, leaf(rng.normal(size=(5, 3))), False),
                (x, leaf(rng.normal(size=(3, 5))), True),
                (x, leaf(rng.normal(size=5)), False),
                (leaf(rng.normal(size=5)), leaf(rng.normal(size=(5, 3))), False),
                (leaf(rng.normal(size=5)), leaf(rng.normal(size=(3, 5))), True),
                (leaf(rng.normal(size=5)), leaf(rng.normal(size=5)), False)]

    def test_rows_matmul_gradients(self):
        rng = np.random.default_rng(63)
        for x, m, transpose in self._row_products(rng):
            out = ops.rows_matmul(x, m, transpose)
            weights = Tensor(rng.normal(size=out.shape))
            res = grad_check(lambda: ops.reduce_sum(ops.mul(ops.rows_matmul(x, m, transpose),
                                                            weights)), [x, m])
            assert res.max_rel_error < 1e-6, (x.shape, m.shape, transpose, res)
        with pytest.raises(DimensionError):
            ops.rows_matmul(leaf(np.ones((2, 3))), leaf(np.ones((2, 3))))
        with pytest.raises(DimensionError):
            ops.rows_matmul(leaf(np.ones((2, 3))), leaf(np.ones(3)), transpose=True)

    @pytest.mark.parametrize("bits", [64, 32])
    def test_rows_matmul_equals_matmul_per_row_bit_for_bit(self, bits):
        """Values, and the gradients of both operands, equal those of one
        :func:`matmul` per row recorded in row order."""
        set_precision(bits)
        try:
            rng = np.random.default_rng(64)
            for x, m, transpose in self._row_products(rng)[:3]:
                x, m = leaf(x.values), leaf(m.values)     # at the active precision
                upstream = Tensor(rng.normal(size=ops.rows_matmul(x, m, transpose).shape))
                with Tape() as tape:
                    out = ops.rows_matmul(x, m, transpose)
                    tape.backward(ops.reduce_sum(ops.mul(out, upstream)))
                fused = out.values, x.grad, m.grad
                x.grad = m.grad = None
                rows = [leaf(r) for r in x.values]
                with Tape() as tape:
                    outs = [ops.matmul(m, r) if transpose else ops.matmul(r, m) for r in rows]
                    total = None
                    for o, u in zip(outs, upstream.values):
                        term = ops.reduce_sum(ops.mul(o, Tensor(u)) if o.shape else
                                              ops.scale_by(o, Tensor(u)))
                        total = term if total is None else ops.add(total, term)
                    tape.backward(total)
                assert np.array_equal(fused[0], np.array([o.values for o in outs]))
                assert np.array_equal(fused[1], np.array([r.grad for r in rows]))
                assert np.array_equal(fused[2], m.grad), (m.shape, transpose)
        finally:
            set_precision(64)

    def test_partition_blocks_and_gradients(self):
        rng = np.random.default_rng(65)
        m = leaf(rng.normal(size=(5, 3)))
        parts = ops.partition(m, [[3, 0], 4, [1]])
        assert [p.shape for p in parts] == [(2, 3), (3,), (1, 3)]
        assert np.array_equal(parts[0].values, m.values[[3, 0]])
        assert np.array_equal(parts[1].values, m.values[4])
        weights = [Tensor(rng.normal(size=p.shape)) for p in parts]

        def loss():
            a, b, _ = ops.partition(m, [[3, 0], 4, [1]])     # row 2 in no block
            return ops.add(ops.reduce_sum(ops.mul(a, weights[0])),
                           ops.reduce_sum(ops.mul(b, weights[1])))

        res = grad_check(loss, [m])
        assert res.max_rel_error < 1e-6, res
        with Tape() as tape:
            tape.backward(loss())
        assert not m.grad[[1, 2]].any()
        with pytest.raises(ContractError):
            ops.partition(m, [[0, 1], 1])
        with pytest.raises(ContractError):
            ops.partition(m, [[0, 5]])


def _dense(delta):
    """A factored delta ``(u1, v1, u2, v2, ...)`` as its dense sum of
    outer products, added step by step (a pair of matrices row by row);
    other deltas unchanged."""
    if type(delta) is not tuple:
        return delta
    pairs = [pair for u, v in zip(delta[0::2], delta[1::2])
             for pair in (zip(u, v) if u.ndim == 2 else [(u, v)])]
    total = pairs[0][0][:, None] * pairs[0][1]
    for u, v in pairs[1:]:
        total = total + u[:, None] * v
    return total


class TestFactoredDeltas:
    """Matrix inputs of ``matmul``, ``attention`` and ``lstm_cell`` get
    their deltas as factors, which the tape sums with one product when
    the gradient is first read."""

    def test_parameter_with_dense_and_factored_deltas(self):
        rng = np.random.default_rng(40)
        w = leaf(rng.normal(size=(3, 4)))
        u, v = leaf(rng.normal(size=3)), leaf(rng.normal(size=4))
        weights = Tensor(rng.normal(size=(3, 4)))

        def loss():
            factored = ops.add(ops.matmul(ops.matmul(w, v), u),        # w gets (·, v)
                               ops.reduce_sum(ops.matmul(u, w)))    # and (u, ·)
            return ops.add(factored, ops.reduce_sum(ops.mul(w, weights)))  # and a dense delta

        res = grad_check(loss, [w, u, v])
        assert res.max_rel_error < 1e-6, res
        w.grad = None
        with Tape() as tape:
            tape.backward(loss())
        want = np.outer(u.values, v.values) + np.outer(u.values, np.ones(4)) + weights.values
        np.testing.assert_allclose(w.grad, want, rtol=1e-14)

    def test_non_leaf_factors_are_formed_for_its_producer(self):
        rng = np.random.default_rng(41)
        w = leaf(rng.normal(size=(4, 3)))
        h = leaf(rng.normal(size=2))
        w_e = leaf(rng.normal(size=(3, 2)))
        xs = [Tensor(rng.normal(size=3)) for _ in range(3)]

        def loss():
            memory = ops.tanh(w)        # a non-leaf matrix read by three ops
            _, ctx = ops.attention(memory, w_e, h)
            total = ops.reduce_sum(ctx)
            for x in xs:
                total = ops.add(total, ops.reduce_sum(ops.tanh(ops.matmul(memory, x))))
            return total

        res = grad_check(loss, [w, h, w_e])
        assert res.max_rel_error < 1e-6, res

        seen = []
        with Tape() as tape:
            doubled = Tensor(2.0 * w.values)
            tape.record((doubled,), (w,), lambda g: (seen.append(g) or 2.0 * g,))
            tape.backward(ops.add(ops.matmul(ops.matmul(doubled, xs[0]), Tensor(np.arange(4.0))),
                                  ops.matmul(ops.matmul(Tensor(np.ones(4)), doubled), xs[1])))
        [g] = seen
        assert type(g) is np.ndarray
        want = np.outer(np.arange(4.0), xs[0].values) + np.outer(np.ones(4), xs[1].values)
        np.testing.assert_allclose(g, want, rtol=1e-14)

    def test_multi_output_entry_reached_only_through_factors_runs(self):
        rng = np.random.default_rng(42)
        cell = LSTMCellParams(leaf(rng.normal(size=(8, 3)) * 0.5),
                              leaf(rng.normal(size=(8, 2)) * 0.5),
                              leaf(rng.normal(size=8) * 0.1))
        xs = leaf(rng.normal(size=(4, 3)))
        v = Tensor(rng.normal(size=2))

        def loss():
            [(states, _ends)] = lstm_sequence([cell], [xs])    # the end state is not reached
            return ops.reduce_sum(ops.tanh(ops.matmul(states, v)))

        res = grad_check(loss, cell.tensors() + [xs])
        assert res.max_rel_error < 1e-6, res

        seen = []

        def vjp(g_reached, g_unreached):
            seen.append((g_reached, g_unreached))
            return (g_reached,)

        x = leaf(rng.normal(size=(2, 3)))
        reached, unreached = Tensor(x.values.copy()), Tensor([0.0])
        with Tape() as tape:
            tape.record((reached, unreached), (x,), vjp)
            tape.backward(ops.matmul(ops.matmul(reached, Tensor([1.0, 2.0, 3.0])),
                                  Tensor([1.0, -1.0])))
        [(g_reached, g_unreached)] = seen
        np.testing.assert_array_equal(g_reached, [[1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]])
        assert g_unreached is None
        np.testing.assert_array_equal(x.grad, g_reached)

    def test_decoder_cell_weights_formed_once_per_backward(self, monkeypatch):
        from dialsql.context import build_model, method_config, prepare_inputs
        from dialsql.data import build_vocab, gen_synthetic
        from dialsql.decoder import encode_turn, teacher_forced_loss
        from dialsql.grammar import build_grammar

        corpus = gen_synthetic(seed=5, n_dialogues=2, max_turns=3)
        dialogue = corpus.dialogues[0]
        ex = dialogue.turns[-1]
        grammar = build_grammar(corpus.schemas[dialogue.db_id])
        model = build_model(method_config("turn+sql_attn+action_copy", h=2,
                                          dims={"embedding": 6, "hidden": 8, "distance": 4}),
                            build_vocab(corpus), seed=0)
        w_ih = model.params["dec.w_ih"]

        def gradient(densify):
            for p in model.parameters():
                p.grad = None
            with Tape() as tape:
                inputs = prepare_inputs(dialogue, ex.turn_index, model.config)
                encoded = encode_turn(model, inputs.segments, inputs.distances,
                                      inputs.precedent)
                loss = teacher_forced_loss(model, encoded, grammar, list(ex.gold_actions))
                if densify:
                    tape._entries = [(outs, ins, lambda *g, vjp=vjp: [_dense(d) for d in vjp(*g)])
                                     for outs, ins, vjp in tape._entries]
                tape.backward(loss)
            return w_ih.grad.copy()

        formed = []
        add_factors = ops._add_factors

        def counting(t, factors):     # the pairs a sum forms: a matrix pair is one per row
            formed.append((t, sum(len(u) if u.ndim == 2 else 1 for u in factors[0::2])))
            add_factors(t, factors)

        monkeypatch.setattr(ops, "_add_factors", counting)
        factored = gradient(densify=False)
        assert [n for t, n in formed if t is w_ih] == [len(ex.gold_actions)]
        formed.clear()
        dense = gradient(densify=True)
        assert formed == []
        assert not np.array_equal(factored, np.zeros_like(factored))
        # Relative to the gradient's scale, as tools/grad_drift.py measures:
        # an entry whose per-step terms cancel moves by more than 1e-13 of itself.
        np.testing.assert_allclose(factored, dense, rtol=1e-13,
                                   atol=1e-13 * np.abs(dense).max())
