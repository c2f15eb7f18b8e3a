"""Decoder oracles: attention formulas, distribution soundness, copy
mechanisms, greedy behavior, and the training loss contract."""

import numpy as np
import pytest

from dialsql import context, decoder
from dialsql.data import Dialogue, Example, Vocabulary
from dialsql.decoder import (
    AttentionContext,
    SubtreeCandidate,
    advance_state,
    attention_context,
    encode_turn,
    greedy_parse,
    initial_state,
    output_distribution,
    teacher_forced_loss,
)
from dialsql.grammar import (
    Derivation,
    extract_subtrees,
    DerivationError,
    IncompleteSequenceError,
    NonTerminal,
    Production,
    actions_to_ast,
    ast_to_actions,
    build_grammar,
    sql_to_ast,
)
from dialsql.nn import ContractError, DimensionError, Tape, Tensor, grad_check, ops, \
    set_precision
from dialsql.schema import linking_features, schema_from_dict

from test_encoders import reference_step

MINI_SCHEMA = schema_from_dict({
    "db_id": "mini",
    "tables": [
        {"name": "t1", "columns": [{"name": "alpha", "type": "number"},
                                   {"name": "beta", "type": "number"}]},
        {"name": "t2", "columns": [{"name": "alpha", "type": "number"},
                                   {"name": "wide_load", "type": "number"}]},
    ],
    "foreign_keys": [["t2.alpha", "t1.alpha"]],
})

GRAMMAR = build_grammar(MINI_SCHEMA)

VOCAB = Vocabulary(["show", "the", "alpha", "beta", "wide", "load", "value",
                    "of", "t1", "t2", "?"])

TINY_DIMS = {"embedding": 3, "hidden": 4, "distance": 2}


def make_model(method: str, seed: int = 0, h: int = 2):
    cfg = context.method_config(method, h=h, dims=dict(TINY_DIMS))
    return context.build_model(cfg, VOCAB, seed)


def actions_for(sql: str) -> tuple[Production, ...]:
    return tuple(ast_to_actions(sql_to_ast(sql, MINI_SCHEMA)))


def encode_for(model, segments, precedent=None):
    distances = list(range(len(segments) - 1, -1, -1))
    return encode_turn(model, segments, distances, precedent)


class TestAttend:
    """The decoder's attention: :func:`ops.attention` over the memory and
    gate coefficients that :func:`attention_context` assembles."""

    def test_zero_matrix_uniform(self):
        states = [Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))]
        ctx = attention_context(states, ["a", "b", "c"])
        a, c = ops.attention(ctx.memory, Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
        np.testing.assert_allclose(a.values, 1 / 3)
        np.testing.assert_allclose(c.values, [3.0, 4.0])

    def test_gate_coefficient_masks_turn(self):
        rng = np.random.default_rng(0)
        states = [Tensor(rng.uniform(-1, 1, (2, 2))), Tensor(rng.uniform(-1, 1, (3, 2)))]
        gate = Tensor(np.array([0.0, 1.0]))
        ctx = attention_context(states, list("abcde"), gate_weights=gate)
        dec = Tensor(rng.uniform(-1, 1, 3))
        w_e = Tensor(rng.uniform(-1, 1, (2, 3)))
        a, _ = ops.attention(ctx.memory, w_e, dec, ctx.gate_coeffs)
        np.testing.assert_array_equal(a.values[:2], 0.0)
        assert abs(a.values[2:].sum() - 1.0) < 1e-12

    def test_distance_augmented_matches_direct_evaluation(self):
        rng = np.random.default_rng(1)
        states = [Tensor(rng.uniform(-1, 1, (3, 2))), Tensor(rng.uniform(-1, 1, (3, 2)))]
        dist_table = Tensor(rng.uniform(-1, 1, (3, 2)))
        w_e = Tensor(rng.uniform(-1, 1, (4, 3)))
        dec = Tensor(rng.uniform(-1, 1, 3))
        ctx = attention_context(states, list("abcdef"), distances=[1, 0],
                                distance_table=dist_table)
        a, c = ops.attention(ctx.memory, w_e, dec)

        rows = []
        for seg, t in zip(states, [1, 0]):
            for s in seg.values:
                rows.append(np.concatenate([s, dist_table.values[t]]))
        rows = np.array(rows)
        scores = rows @ w_e.values @ dec.values
        expect = np.exp(scores - scores.max())
        expect /= expect.sum()
        np.testing.assert_allclose(a.values, expect, atol=1e-12)
        np.testing.assert_allclose(c.values, rows.T @ expect, atol=1e-12)

    def test_renormalized_gate_weights(self):
        rng = np.random.default_rng(2)
        states = [Tensor(rng.uniform(-1, 1, (1, 2))), Tensor(rng.uniform(-1, 1, (2, 2)))]
        gate = Tensor(np.array([0.3, 0.7]))
        ctx = attention_context(states, list("abc"), gate_weights=gate)
        dec = Tensor(rng.uniform(-1, 1, 2))
        w_e = Tensor(rng.uniform(-1, 1, (2, 2)))
        a, _ = ops.attention(ctx.memory, w_e, dec, ctx.gate_coeffs)

        rows = np.concatenate([seg.values for seg in states])
        scores = rows @ w_e.values @ dec.values
        base = np.exp(scores - scores.max())
        base /= base.sum()
        weighted = base * np.array([0.3, 0.7, 0.7])
        weighted /= weighted.sum()
        np.testing.assert_allclose(a.values, weighted, atol=1e-12)
        assert abs(a.values.sum() - 1.0) < 1e-9

    def test_memory_is_one_tape_entry_and_differentiable(self):
        rng = np.random.default_rng(3)
        states = [Tensor(rng.uniform(-1, 1, (2, 2)), requires_grad=True),
                  Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)]
        dist_table = Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
        w_e = Tensor(rng.uniform(-1, 1, (4, 3)))
        dec = Tensor(rng.uniform(-1, 1, 3))
        with Tape() as tape:
            attention_context(states, list("abcde"))
        assert len(tape) == 1

        def loss():
            ctx = attention_context(states, list("abcde"), distances=[1, 0],
                                    distance_table=dist_table)
            _, c = ops.attention(ctx.memory, w_e, dec)
            return ops.reduce_sum(ops.mul(c, c))

        assert grad_check(loss, [*states, dist_table]).max_rel_error < 1e-6

    def test_dimension_mismatch(self):
        ctx = attention_context([Tensor(np.zeros((1, 2)))], ["a"])
        with pytest.raises(DimensionError):
            ops.attention(ctx.memory, Tensor(np.zeros((3, 3))), Tensor(np.zeros(3)))

    def test_empty_memory_rejected(self):
        with pytest.raises(ContractError):
            attention_context([], [])


class TestDecodeState:
    def test_initial_state(self):
        model = make_model("none")
        enc = encode_for(model, [["show", "alpha", "?"]])
        state = initial_state(model, enc)
        np.testing.assert_array_equal(state.h.values, enc.init_state.values)
        np.testing.assert_array_equal(state.context.values, 0.0)
        np.testing.assert_array_equal(state.cell.values, 0.0)
        assert state.sql_context is None

    def test_sql_attn_state_has_zero_sql_context(self):
        model = make_model("sql_attn")
        enc = encode_for(model, [["show", "alpha", "?"]])
        state = initial_state(model, enc)
        np.testing.assert_array_equal(state.sql_context.values, 0.0)

    def test_advance_matches_hand_unroll(self):
        model = make_model("none", seed=3)
        enc = encode_for(model, [["show", "alpha", "?"]])
        state = initial_state(model, enc)
        [new_state], [a] = advance_state(model, enc, state, [model.params["bos_emb"]])

        p = model.params
        x = np.concatenate([p["bos_emb"].values, state.context.values])
        h_ref, c_ref = reference_step(p["dec.w_ih"].values, p["dec.w_hh"].values,
                                      p["dec.b"].values, x, state.h.values,
                                      state.cell.values)
        np.testing.assert_allclose(new_state.h.values, h_ref, atol=1e-12)
        np.testing.assert_allclose(new_state.cell.values, c_ref, atol=1e-12)

        mem = enc.attention.memory.values
        scores = mem @ p["attn.we"].values @ h_ref
        expect = np.exp(scores - scores.max())
        expect /= expect.sum()
        np.testing.assert_allclose(a.values, expect, atol=1e-12)
        np.testing.assert_allclose(new_state.context.values, mem.T @ expect, atol=1e-12)


def first_step(model, enc):
    state = initial_state(model, enc)
    [new_state], [a] = advance_state(model, enc, state, [model.params["bos_emb"]])
    return new_state, a


class TestOutputDistribution:
    def test_sums_to_one_and_support_legal(self):
        for method in ("none", "turn", "gate", "action_copy", "tree_copy"):
            model = make_model(method, seed=4)
            prec = actions_for("SELECT beta FROM t1 WHERE alpha > 1")
            enc = encode_for(model, [["show", "alpha", "?"], ["beta", "?"]]
                             if method in ("turn", "gate") else [["show", "alpha", "?"]],
                             precedent=prec)
            state, a = first_step(model, enc)
            for frontier in (NonTerminal.ROOT, NonTerminal.SELECT, NonTerminal.AGG,
                             NonTerminal.COL, NonTerminal.TAB):
                [dist] = output_distribution(model, GRAMMAR, [frontier], [state], [a], enc)
                assert abs(dist.probs.values.sum() - 1.0) < 1e-9
                assert (dist.probs.values >= 0).all()
                legal = set(GRAMMAR.expansions(frontier))
                for cand in dist.support:
                    if isinstance(cand, Production):
                        assert cand in legal
                    else:
                        assert cand.root == frontier

    def test_singleton_support_probability_one(self):
        model = make_model("none", seed=5)
        enc = encode_for(model, [["show", "alpha", "?"]])
        state, a = first_step(model, enc)
        [dist] = output_distribution(model, GRAMMAR, [NonTerminal.START], [state], [a], enc)
        assert len(dist.support) == 1
        np.testing.assert_allclose(dist.probs.values, [1.0])

    def test_agnostic_logits_match_direct_formula(self):
        model = make_model("none", seed=6)
        enc = encode_for(model, [["show", "alpha", "?"]])
        state, a = first_step(model, enc)
        [dist] = output_distribution(model, GRAMMAR, [NonTerminal.ROOT], [state], [a], enc)

        p = model.params
        proj = np.tanh(np.concatenate([state.h.values, state.context.values])
                       @ p["out.wo"].values)
        logits = np.array([p["action_emb"].values[model.agnostic_index[prod]] @ proj
                           for prod in GRAMMAR.expansions(NonTerminal.ROOT)])
        expect = np.exp(logits - logits.max())
        expect /= expect.sum()
        np.testing.assert_allclose(dist.probs.values, expect, atol=1e-12)

    def test_schema_logits_match_direct_formula(self):
        model = make_model("none", seed=7)
        tokens = ["show", "wide", "load", "alpha", "?"]
        enc = encode_for(model, [tokens])
        state, a = first_step(model, enc)
        [dist] = output_distribution(model, GRAMMAR, [NonTerminal.COL], [state], [a], enc)

        p = model.params
        cols = GRAMMAR.expansions(NonTerminal.COL)

        def name_embed(name):
            h = np.zeros(TINY_DIMS["embedding"])
            c = np.zeros_like(h)
            from dialsql.schema import name_tokens
            for tok in name_tokens(name):
                x = p["word_emb"].values[VOCAB.index(tok)]
                h, c = reference_step(p["schema_enc.w_ih"].values,
                                      p["schema_enc.w_hh"].values,
                                      p["schema_enc.b"].values, x, h, c)
            return h

        logits = []
        for prod in cols:
            name = prod.rhs[0]
            rule_emb = name_embed(name)
            total = 0.0
            for k, tok in enumerate(tokens):
                exact, partial = linking_features(tok, name)
                l = (p["link.w_exact"].values * exact
                     + p["link.w_partial"].values * partial
                     + p["word_emb"].values[VOCAB.index(tok)] @ rule_emb)
                total += a.values[k] * l
            logits.append(float(total))
        logits = np.array(logits)
        expect = np.exp(logits - logits.max())
        expect /= expect.sum()
        np.testing.assert_allclose(dist.probs.values, expect, atol=1e-12)

    def test_linking_matrix_is_the_feature_grid(self):
        tokens = ["show", "Alpha", "wide", "load", "t2", "wide_load", "?"]
        names = tuple(p.rhs[0] for nt in (NonTerminal.COL, NonTerminal.TAB)
                      for p in GRAMMAR.expansions(nt))
        exact, partial = decoder.linking_matrix(tokens, names)
        assert exact.shape == partial.shape == (len(tokens), len(names))
        for i, tok in enumerate(tokens):
            for j, name in enumerate(names):
                assert (exact[i, j], partial[i, j]) == linking_features(tok, name)
        assert exact.any() and partial.any()

    def test_linking_features_once_per_distinct_token(self, monkeypatch):
        tokens = ["show", "alpha", "of", "t1", "and", "alpha", "of", "t2", "?"]
        names = tuple(p.rhs[0] for p in GRAMMAR.expansions(NonTerminal.COL))
        calls = []
        monkeypatch.setattr(decoder, "linking_features",
                            lambda tok, name: calls.append((tok, name)) or linking_features(tok, name))
        exact, partial = decoder.linking_matrix(tokens, names)
        assert len(calls) == len(set(tokens)) * len(names) < len(tokens) * len(names)
        assert sorted(calls) == sorted({(t, n) for t in tokens for n in names})
        for i, tok in enumerate(tokens):
            for j, name in enumerate(names):
                assert (exact[i, j], partial[i, j]) == linking_features(tok, name)
        calls.clear()
        decoder.linking_matrix(tokens, names)        # no memo across calls
        assert len(calls) == len(set(tokens)) * len(names)

    def test_name_matrices_embedded_once_per_embedder_and_never_transposed(self, monkeypatch):
        transposed, real_transpose = [], ops.transpose
        monkeypatch.setattr(ops, "transpose",
                            lambda m: transposed.append(m) or real_transpose(m))
        linked, real_link = [], ops.link_scores
        monkeypatch.setattr(ops, "link_scores", lambda *args: linked.append(args[-1])
                            or real_link(*args))
        encoded, real_encode = [], decoder.encode_name
        monkeypatch.setattr(decoder, "encode_name",
                            lambda embedded, cell: encoded.extend(embedded)
                            or real_encode(embedded, cell))
        model = make_model("none", seed=2)
        gold = list(actions_for("SELECT alpha, beta FROM t1"))
        cols, tabs = (GRAMMAR.expansions(nt) for nt in (NonTerminal.COL, NonTerminal.TAB))
        with Tape():
            embedder = decoder.ActionEmbedder(model)
            for tokens in (["show", "alpha", "of", "t1"], ["beta", "?"]):
                enc = encode_turn(model, [tokens], [0], None, embedder)
                teacher_forced_loss(model, enc, GRAMMAR, gold)
        assert not transposed
        # Each turn scores the columns and the tables with the rows the
        # embedder made once per list, one per name.
        assert len(encoded) == len(cols) + len(tabs)
        matrices = [embedder.embed_all(cols), embedder.embed_all(tabs)]
        assert [m.shape[0] for m in matrices] == [3, 2]
        assert len(linked) == 4 and {id(n) for n in linked} == {id(m) for m in matrices}

    def test_linking_matrix_built_once_per_turn(self, monkeypatch):
        calls = []
        real = decoder.linking_matrix
        monkeypatch.setattr(decoder, "linking_matrix",
                            lambda tokens, names, rows: calls.append(names)
                            or real(tokens, names, rows))
        model = make_model("none", seed=2)
        enc = encode_for(model, [["show", "alpha", "of", "t1"]])
        gold = list(actions_for("SELECT alpha, beta FROM t1"))
        teacher_forced_loss(model, enc, GRAMMAR, gold)
        cols = sum(a.lhs is NonTerminal.COL for a in gold)
        assert cols == 2
        assert sorted(map(len, calls)) == [2, 3]    # tables, columns: once each

    def test_shared_rows_give_the_fresh_matrix(self):
        names = tuple(p.rhs[0] for nt in (NonTerminal.COL, NonTerminal.TAB)
                      for p in GRAMMAR.expansions(nt))
        rows = {}
        for tokens in (["show", "alpha", "of", "t1"], ["wide", "alpha", "load", "?", "alpha"]):
            shared = decoder.linking_matrix(tokens, names, rows)
            fresh = decoder.linking_matrix(tokens, names)
            for s, f in zip(shared, fresh):
                assert s.dtype == f.dtype and s.shape == f.shape == (len(tokens), len(names))
                assert s.flags.c_contiguous and s.tobytes() == f.tobytes()
        assert list(rows) == ["show", "alpha", "of", "t1", "wide", "load", "?"]

    def test_linking_features_once_per_token_and_names_per_embedder(self, monkeypatch):
        calls = []
        monkeypatch.setattr(decoder, "linking_features",
                            lambda tok, name: calls.append((tok, name)) or linking_features(tok, name))
        model = make_model("none", seed=2)
        gold = list(actions_for("SELECT alpha, beta FROM t1"))
        names = [p.rhs[0] for nt in (NonTerminal.COL, NonTerminal.TAB)
                 for p in GRAMMAR.expansions(nt)]
        turns = (["show", "alpha", "of", "t1"], ["alpha", "of", "t2", "?"])
        embedder = decoder.ActionEmbedder(model)
        for tokens in turns:
            enc = encode_turn(model, [tokens], [0], None, embedder)
            teacher_forced_loss(model, enc, GRAMMAR, gold)
        distinct = set(turns[0]) | set(turns[1])
        assert sorted(calls) == sorted((tok, name) for tok in distinct for name in names)
        # The rows live with the embedder: a turn encoded with a fresh one
        # links its tokens again.
        calls.clear()
        teacher_forced_loss(model, encode_for(model, [turns[0]]), GRAMMAR, gold)
        assert sorted(calls) == sorted((tok, name) for tok in set(turns[0]) for name in names)

    def test_linking_features_fire_in_distribution(self):
        # "wide" is a word piece of wide_load only: partial feature 1.
        exact, partial = linking_features("wide", "wide_load")
        assert (exact, partial) == (0, 1)
        exact, partial = linking_features("alpha", "alpha")
        assert (exact, partial) == (1, 0)

    def test_mixture_identity_against_hand_computation(self):
        model = make_model("action_copy", seed=8)
        prec = actions_for("SELECT beta FROM t1 WHERE alpha > 1")
        enc = encode_for(model, [["show", "alpha", "?"]], precedent=prec)
        state, a = first_step(model, enc)
        [dist] = output_distribution(model, GRAMMAR, [NonTerminal.AGG], [state], [a], enc)

        p = model.params
        # generation component by hand (Eq. 5 path)
        proj = np.tanh(np.concatenate([state.h.values, state.context.values])
                       @ p["out.wo"].values)
        prods = GRAMMAR.expansions(NonTerminal.AGG)
        logits = np.array([p["action_emb"].values[model.agnostic_index[q]] @ proj
                           for q in prods])
        gen = np.exp(logits - logits.max())
        gen /= gen.sum()
        # copy component by hand (Eq. 10 path)
        v = state.h.values @ p["copy.wl"].values
        pos_scores = enc.copy.states.values @ v
        mask = np.array([act.lhs == NonTerminal.AGG for act in enc.copy.actions])
        shifted = np.where(mask, pos_scores, -np.inf)
        e = np.exp(shifted - shifted[mask].max())
        e[~mask] = 0.0
        pos = e / e.sum()
        copy = np.zeros(len(prods))
        for m, act in enumerate(enc.copy.actions):
            if mask[m]:
                copy[prods.index(act)] += pos[m]
        pc = 1.0 / (1.0 + np.exp(-(p["copy.wc"].values @ state.h.values
                                   + p["copy.bc"].values)))
        np.testing.assert_allclose(dist.probs.values, pc * copy + (1 - pc) * gen,
                                   atol=1e-12)
        np.testing.assert_allclose(dist.gen_probs.values, gen, atol=1e-12)
        np.testing.assert_allclose(dist.copy_probs.values, copy, atol=1e-12)

    def test_copy_only_for_matching_lhs_actions(self):
        model = make_model("action_copy", seed=9)
        prec = actions_for("SELECT beta FROM t1 WHERE alpha > 1")
        enc = encode_for(model, [["show", "?"]], precedent=prec)
        state, a = first_step(model, enc)
        [dist] = output_distribution(model, GRAMMAR, [NonTerminal.COL], [state], [a], enc)
        in_precedent = {act for act in prec if act.lhs == NonTerminal.COL}
        for cand, cp in zip(dist.support, dist.copy_probs.values):
            if cand in in_precedent:
                assert cp > 0.0
            else:
                assert cp == 0.0

    def test_large_negative_copy_bias_reduces_to_generation(self):
        model = make_model("action_copy", seed=10)
        model.params["copy.bc"].values[()] = -1e9
        prec = actions_for("SELECT beta FROM t1")
        enc = encode_for(model, [["show", "?"]], precedent=prec)
        state, a = first_step(model, enc)
        [dist] = output_distribution(model, GRAMMAR, [NonTerminal.SELECT], [state], [a], enc)
        assert float(dist.p_copy.values) == 0.0
        np.testing.assert_array_equal(dist.probs.values, dist.gen_probs.values)

    def test_empty_precedent_falls_back_to_generation(self):
        model = make_model("action_copy", seed=11)
        enc = encode_for(model, [["show", "?"]], precedent=None)
        state, a = first_step(model, enc)
        [dist] = output_distribution(model, GRAMMAR, [NonTerminal.SELECT], [state], [a], enc)
        assert dist.p_copy is None and dist.copy_probs is None
        np.testing.assert_array_equal(dist.probs.values, dist.gen_probs.values)

    def test_subtree_candidates_and_eq12_logits(self):
        model = make_model("tree_copy", seed=12)
        prec = actions_for("SELECT beta FROM t1 WHERE alpha > 1")
        enc = encode_for(model, [["show", "?"]], precedent=prec)
        state, a = first_step(model, enc)
        [dist] = output_distribution(model, GRAMMAR, [NonTerminal.SELECT], [state], [a], enc)

        subtrees = [c for c in dist.support if isinstance(c, SubtreeCandidate)]
        assert len(subtrees) == 1          # exactly one Select subtree in the precedent
        prods = GRAMMAR.expansions(NonTerminal.SELECT)
        assert dist.support[:len(prods)] == prods

        # log-probability gaps equal logit gaps: checks the Eq. 12 logit
        # h W^t phi and its flat normalization with Eq. 5.
        p = model.params
        phi = next(ph for root, seq, ph in enc.copy.subtrees
                   if root == NonTerminal.SELECT)
        tree_logit = state.h.values @ p["tree.wt"].values @ phi.values
        proj = np.tanh(np.concatenate([state.h.values, state.context.values])
                       @ p["out.wo"].values)
        prod0_logit = p["action_emb"].values[model.agnostic_index[prods[0]]] @ proj
        gap = np.log(dist.probs.values[-1]) - np.log(dist.probs.values[0])
        np.testing.assert_allclose(gap, tree_logit - prod0_logit, atol=1e-9)

    def test_no_subtree_candidates_at_foreign_frontier(self):
        model = make_model("tree_copy", seed=13)
        prec = actions_for("SELECT beta FROM t1")
        enc = encode_for(model, [["show", "?"]], precedent=prec)
        state, a = first_step(model, enc)
        [dist] = output_distribution(model, GRAMMAR, [NonTerminal.ORDER], [state], [a], enc)
        assert all(isinstance(c, Production) for c in dist.support)


class TestPerTurnConstants:
    """What every step of a turn shares is built once per turn, and a
    teacher-forced step costs a handful of tape entries."""

    TOKENS = ["show", "alpha", "of", "t1"]
    GOLD = "SELECT alpha, beta FROM t1"

    def test_link_product_and_token_gather_recorded_once_per_turn(self, monkeypatch):
        model = make_model("none", seed=2)
        gold = list(actions_for(self.GOLD))
        schema_steps = sum(a.lhs in (NonTerminal.COL, NonTerminal.TAB) for a in gold)
        assert schema_steps == 4
        gathers, products = [], []
        real_embed, real_link = decoder._embed_tokens, ops.link_scores

        def embed(m, tokens):
            out = real_embed(m, tokens)
            if tokens == self.TOKENS:       # not a schema name's tokens
                gathers.append(out)
            return out

        def link_scores(exact, partial, w_exact, w_partial, tokens, names):
            if any(tokens is g for g in gathers):
                products.append(names.shape)
            return real_link(exact, partial, w_exact, w_partial, tokens, names)

        with Tape():
            enc = encode_for(model, [self.TOKENS])
            monkeypatch.setattr(decoder, "_embed_tokens", embed)
            monkeypatch.setattr(ops, "link_scores", link_scores)
            teacher_forced_loss(model, enc, GRAMMAR, gold)
        # One gather of the question tokens' word embeddings for the
        # turn, and one token-rule product per schema frontier kind.
        assert len(gathers) == 1 and gathers[0].requires_grad
        assert sorted(products) == [(2, 3), (3, 3)]     # tables, columns

    def test_turn_decodes_with_the_embedder_it_was_encoded_with(self, monkeypatch):
        # The precedent names t1 and beta; the gold query's Col and Tab
        # frontiers need every column and table. Each name is encoded
        # once for the turn, none a second time for its decoding.
        encoded, real = [], decoder.encode_name
        monkeypatch.setattr(decoder, "encode_name",
                            lambda embedded, cell: encoded.extend(embedded)
                            or real(embedded, cell))
        model = make_model("action_copy", seed=2)
        enc = encode_for(model, [self.TOKENS], precedent=actions_for("SELECT beta FROM t1"))
        teacher_forced_loss(model, enc, GRAMMAR, list(actions_for(self.GOLD)))
        names = GRAMMAR.expansions(NonTerminal.COL) + GRAMMAR.expansions(NonTerminal.TAB)
        assert len(encoded) == len(names)

    def test_tape_entries_per_step_for_none(self):
        model = make_model("none", seed=2)
        gold = list(actions_for(self.GOLD))
        with Tape() as tape:
            enc = encode_for(model, [self.TOKENS])
            encoder_entries = len(tape)
            teacher_forced_loss(model, enc, GRAMMAR, gold)
        # One entry records the 9 steps' recurrence and one the output
        # layer; the others are the frontier records, the action
        # embeddings and the loss: 2.6 entries per step.
        assert len(gold) == 9 and len(tape) - encoder_entries == 23


def model_for(method: str, seed: int = 0):
    """A model for ``method``, a question method and SQL methods joined by
    ``+``, also a combination the registry does not list."""
    names = method.split("+")
    question = names[0] if names[0] in ("none", "concat", "turn", "gate") else "none"
    cfg = context.ContextConfig(question, frozenset(n for n in names if n != question), h=2,
                                dims=tuple(sorted(TINY_DIMS.items())))
    return context.build_model(cfg, VOCAB, seed)


def gold_steps(model, enc, gold):
    """The teacher-forced frontiers, decoder states and attention weights."""
    deriv = Derivation(GRAMMAR)
    state = initial_state(model, enc)
    prev = model.params["bos_emb"]
    frontiers, states, weights = [], [], []
    for action in gold:
        [state], [a] = advance_state(model, enc, state, [prev])
        frontiers.append(deriv.frontier())
        states.append(state)
        weights.append(a)
        deriv.apply(action)
        prev = enc.embedder(action)
    return frontiers, states, weights


class TestTurnLevelOutput:
    """A teacher-forced turn is scored by one output_distribution call
    whose every step equals a one-step call bit for bit."""

    PRECEDENT = "SELECT beta FROM t1 WHERE alpha > 1"
    GOLD = "SELECT alpha, beta FROM t1 WHERE alpha > 1 ORDER BY beta ASC"
    SEGMENTS = [["show", "beta", "?"], ["alpha", "of", "t1", "?"]]

    def turn(self, method: str, seed: int = 3):
        model = model_for(method, seed)
        segments = ([[t for seg in self.SEGMENTS for t in seg]] if method.startswith("concat")
                    else self.SEGMENTS)
        enc = encode_for(model, segments, precedent=actions_for(self.PRECEDENT))
        return model, enc, list(actions_for(self.GOLD))

    @pytest.mark.parametrize("bits, dtype", [(64, np.float64), (32, np.float32)])
    @pytest.mark.parametrize("method", ["none", "concat", "gate", "turn+tree_copy",
                                        "sql_attn+action_copy", "concat+tree_copy"])
    def test_each_step_equals_a_one_step_call_bit_for_bit(self, method, bits, dtype):
        set_precision(bits)
        try:
            model, enc, gold = self.turn(method)
            frontiers, states, weights = gold_steps(model, enc, gold)
            dists = output_distribution(model, GRAMMAR, frontiers, states, weights, enc)
            assert sorted(k for dist in dists for k in dist.steps) == list(range(len(gold)))
            assert any(len(dist.steps) > 1 for dist in dists)      # rows, not only vectors
            fields = ("probs", "gen_probs", "copy_probs", "p_copy")
            for dist in dists:
                for row, k in enumerate(dist.steps):
                    [one] = output_distribution(model, GRAMMAR, [frontiers[k]], [states[k]],
                                                [weights[k]], enc)
                    assert one.support is dist.support and one.steps == [0]
                    for name in fields:
                        got, want = getattr(dist, name), getattr(one, name)
                        if want is None:
                            assert got is None
                            continue
                        values = got.values if len(dist.steps) == 1 else got.values[row]
                        assert values.dtype == want.values.dtype == dtype
                        assert np.array_equal(values, want.values), (name, k)
            if "tree_copy" in method:
                assert any(isinstance(c, SubtreeCandidate) for d in dists for c in d.support)
            if "action_copy" in method:
                assert any(d.copy_probs is not None and len(d.steps) > 1 for d in dists)

            # The loss adds the same terms in step order.
            total = None
            for k, action in enumerate(gold):
                [one] = output_distribution(model, GRAMMAR, [frontiers[k]], [states[k]],
                                            [weights[k]], enc)
                term = 0.0 - np.log(one.probs.values[one.support.index(action)])
                total = term if total is None else total + term
            loss = teacher_forced_loss(model, enc, GRAMMAR, gold)
            assert loss.values.dtype == dtype and loss.values == total
        finally:
            set_precision(64)

    def test_one_output_call_per_turn(self, monkeypatch):
        model, enc, gold = self.turn("turn+sql_attn+action_copy")
        calls, steps = [], []
        real_output, real_advance = decoder.output_distribution, decoder.advance_state
        monkeypatch.setattr(decoder, "output_distribution",
                            lambda *args: calls.append(args[2]) or real_output(*args))
        monkeypatch.setattr(decoder, "advance_state",
                            lambda *args: steps.append(1) or real_advance(*args))
        with Tape():
            teacher_forced_loss(model, enc, GRAMMAR, gold)
        assert len(calls) == 1 and len(calls[0]) == len(gold)
        assert len(steps) == 1              # one decoder call steps the whole turn

    @pytest.mark.parametrize("method", ["none", "turn+tree_copy", "turn+sql_attn+action_copy"])
    def test_output_entries_do_not_grow_with_steps(self, method, monkeypatch):
        """Two golds over the same frontiers, each repeated at least
        twice: the longer one records as many output entries."""
        real = decoder.output_distribution
        counts = []

        def counted(*args):
            before = len(tape)
            out = real(*args)
            counts.append(len(tape) - before)
            return out

        monkeypatch.setattr(decoder, "output_distribution", counted)
        model, enc, _ = self.turn(method)
        golds = [list(actions_for(sql)) for sql in
                 ("SELECT alpha, beta FROM t1", "SELECT alpha, beta, max(beta) FROM t1")]
        assert len(golds[1]) > len(golds[0])
        assert {a.lhs for a in golds[0]} == {a.lhs for a in golds[1]}
        for gold in golds:
            with Tape() as tape:
                teacher_forced_loss(model, enc, GRAMMAR, gold)
        assert counts[0] == counts[1] > 0


def composed_output_distribution(model, grammar, frontiers, states, weights, encoded):
    """:func:`output_distribution` composed of ops, one tape entry each:
    the stacked step rows, one :func:`ops.rows_matmul` per product shared
    by the steps, one :func:`ops.partition` per shared product that hands
    each frontier its rows, then each frontier's scorer and subtree
    products and its :func:`ops.mixture`. :func:`ops.output_layer` must
    give its values and gradients bit for bit."""
    groups = {}
    for k, frontier in enumerate(frontiers):
        groups.setdefault(frontier, []).append(k)
    records, blocks = [], []
    generated, treed, copied = [], [], []
    for g, (frontier, steps) in enumerate(groups.items()):
        record = decoder._frontier_record(model, grammar, encoded, frontier)
        records.append(record)
        blocks.append(steps[0] if len(steps) == 1 else steps)
        if not record.linked:
            generated.append(g)
        if record.subtrees is not None:
            treed.append(g)
        if record.copy_mask is not None:
            copied.append(g)
    every = blocks[0] if len(blocks) == 1 else range(len(frontiers))

    def by_group(t, wanted):
        if len(blocks) == 1:
            return [t]
        return dict(zip(wanted, ops.partition(t, [blocks[g] for g in wanted])))

    def step_rows(items, block, name=None):
        if type(block) is int:
            return items[block] if name is None else getattr(items[block], name)
        return ops.stack([items[k] for k in block] if name is None
                         else [getattr(items[k], name) for k in block])

    params = model.params
    if generated or treed or copied:
        h = step_rows(states, every, "h")
    if generated:
        joined = ops.concat([h, step_rows(states, every, "context")], h.values.ndim - 1)
        proj = by_group(ops.tanh(ops.rows_matmul(joined, params["out.wo"])), generated)
    if treed:
        tree = by_group(ops.rows_matmul(h, params["tree.wt"]), treed)
    if copied:
        copy_scores = by_group(ops.rows_matmul(ops.rows_matmul(h, params["copy.wl"]),
                                               encoded.copy.states, transpose=True), copied)
        gates = by_group(ops.add(ops.rows_matmul(h, params["copy.wc"]), params["copy.bc"]),
                         copied)
    out = []
    for g, (steps, record) in enumerate(zip(groups.values(), records)):
        if record.linked:
            logits = [ops.rows_matmul(step_rows(weights, blocks[g]), record.scorer)]
        else:
            logits = [ops.rows_matmul(proj[g], record.scorer, transpose=True)]
        if record.subtrees is not None:
            logits.append(ops.rows_matmul(tree[g], record.subtrees, transpose=True))
        if record.copy_mask is None:
            mixed = ops.mixture(logits)
        else:
            mixed = ops.mixture(logits, copy_scores[g], record.copy_mask, record.copy_agg,
                                gates[g])
        out.append(decoder.OutputDistribution(record.support, steps, *mixed))
    return out


class TestFusedOutputLayer:
    """One :func:`ops.output_layer` entry scores an output call: values
    and gradients equal those of its composition of ops bit for bit."""

    PRECEDENT = TestTurnLevelOutput.PRECEDENT
    GOLD = TestTurnLevelOutput.GOLD
    SEGMENTS = TestTurnLevelOutput.SEGMENTS
    FIELDS = ("probs", "gen_probs", "copy_probs", "p_copy")

    @staticmethod
    def read(dists, gold, reader):
        """A loss of the distributions: the gold actions' nll, every
        output weighted, or some outputs of some frontiers only."""
        if reader == "nll":
            order = [0] * len(gold)
            for number, k in enumerate(k for dist in dists for k in dist.steps):
                order[k] = number
            return ops.nll([d.probs for d in dists],
                           [d.support.index(gold[d.steps[0]]) if d.probs.values.ndim == 1
                            else [d.support.index(gold[k]) for k in d.steps] for d in dists],
                           order)
        rng = np.random.default_rng(7)
        terms = []
        for i, dist in enumerate(dists):
            fields = TestFusedOutputLayer.FIELDS
            if reader == "some":         # nothing, gen_probs only, or probs and p_copy
                fields = [(), ("gen_probs",), ("probs", "p_copy")][i % 3]
            for name in fields:
                t = getattr(dist, name)
                if t is not None:
                    terms.append(ops.reduce_sum(ops.mul(t, Tensor(rng.normal(size=t.shape)))))
        loss = terms[0]
        for term in terms[1:]:
            loss = ops.add(loss, term)
        return loss

    def run(self, method, output, one_step, reader):
        """Every output value and every parameter's gradient of a loss
        read from ``output``'s distributions for a teacher-forced turn:
        one call for the turn, or one call per step."""
        model = model_for(method, seed=3)
        segments = ([[t for seg in self.SEGMENTS for t in seg]]
                    if model.config.question_method == "concat" else self.SEGMENTS)
        gold = list(actions_for(self.GOLD))
        for p in model.parameters():
            p.grad = None
        with Tape() as tape:
            enc = encode_turn(model, segments, list(range(len(segments) - 1, -1, -1)),
                              actions_for(self.PRECEDENT))
            frontiers, _, _ = gold_steps(model, enc, gold)
            states, weights = advance_state(model, enc, initial_state(model, enc),
                                            [model.params["bos_emb"]]
                                            + [enc.embedder(a) for a in gold[:-1]])
            if one_step:
                dists = [d for k in range(len(gold)) for d in output(
                    model, GRAMMAR, frontiers[k:k + 1], states[k:k + 1], weights[k:k + 1], enc)]
                for k, dist in enumerate(dists):
                    dist.steps = [k]
            else:
                dists = output(model, GRAMMAR, frontiers, states, weights, enc)
            loss = self.read(dists, gold, reader)
            tape.backward(loss)
        values = [None if getattr(d, name) is None else getattr(d, name).values.tobytes()
                  for d in dists for name in self.FIELDS]
        return loss.values, values, {name: None if p.grad is None else p.grad.tobytes()
                                     for name, p in model.params.items()}

    # The 14 configurations, and one whose groups mix subtrees and copies.
    @pytest.mark.parametrize("bits", [64, 32])
    @pytest.mark.parametrize("method", context.method_names() + ["turn+tree_copy+action_copy"])
    def test_equals_its_composition_bit_for_bit(self, method, bits):
        set_precision(bits)
        try:
            for one_step in (False, True):
                for reader in ("nll", "every", "some"):
                    got = self.run(method, output_distribution, one_step, reader)
                    want = self.run(method, composed_output_distribution, one_step, reader)
                    assert got[0] == want[0], (one_step, reader)
                    assert got[1] == want[1], (one_step, reader)
                    assert got[2] == want[2], (one_step, reader)
        finally:
            set_precision(64)

    def test_the_turn_covers_every_kind_of_group(self):
        model = model_for("turn+tree_copy+action_copy", seed=3)
        enc = encode_for(model, self.SEGMENTS, precedent=actions_for(self.PRECEDENT))
        gold = list(actions_for(self.GOLD))
        frontiers, states, weights = gold_steps(model, enc, gold)
        dists = output_distribution(model, GRAMMAR, frontiers, states, weights, enc)
        records = [decoder._frontier_record(model, GRAMMAR, enc, frontiers[d.steps[0]])
                   for d in dists]
        # Groups of one step and of several; linked, subtree and copy groups.
        assert {len(d.steps) > 1 for d in dists} == {False, True}
        assert any(r.linked for r in records) and any(not r.linked for r in records)
        assert any(r.subtrees is not None for r in records)
        assert any(r.copy_mask is not None and len(d.steps) > 1
                   for r, d in zip(records, dists))

    @pytest.mark.parametrize("method", ["none", "turn+tree_copy+action_copy"])
    def test_one_call_records_one_entry(self, method):
        model = model_for(method, seed=3)
        gold = list(actions_for(self.GOLD))
        with Tape() as tape:
            enc = encode_for(model, self.SEGMENTS, precedent=actions_for(self.PRECEDENT))
            frontiers, states, weights = gold_steps(model, enc, gold)
            for frontier in frontiers:          # the records' own entries come first
                decoder._frontier_record(model, GRAMMAR, enc, frontier)
            for k in range(len(gold)):
                before = len(tape)
                output_distribution(model, GRAMMAR, frontiers[k:k + 1], states[k:k + 1],
                                    weights[k:k + 1], enc)
                assert len(tape) == before + 1
            before = len(tape)
            dists = output_distribution(model, GRAMMAR, frontiers, states, weights, enc)
            assert len(tape) == before + 1 and len(dists) > 1

    def test_rejects_groups_that_do_not_number_the_steps(self):
        x, m = Tensor(np.ones(2)), Tensor(np.ones((2, 2)))
        with pytest.raises(ContractError):
            ops.output_layer([x, x], [x, x], [x, x], [([0], m, True, None, None, None)])
        with pytest.raises(ContractError):
            ops.output_layer([x], [x], [x], [([0], m, False, None, None, None)])  # no w_o
        with pytest.raises(DimensionError):
            ops.output_layer([x], [x], [x], [([0], Tensor(np.ones((3, 3))), True, None,
                                              None, None)])


def step_by_step_loss(model, enc, grammar, gold):
    """:func:`teacher_forced_loss` with one :func:`advance_state` call,
    one tape entry, per step: the step, then its frontier's record (built by
    a one-step output call whose own entries stay off the loss's path),
    then the action's embedding; then the turn's output call and loss."""
    deriv = Derivation(grammar)
    state = initial_state(model, enc)
    prev = model.params["bos_emb"]
    frontiers, states, weights = [], [], []
    for action in gold:
        [state], [a] = advance_state(model, enc, state, [prev])
        frontiers.append(deriv.frontier())
        output_distribution(model, grammar, frontiers[-1:], [state], [a], enc)
        states.append(state)
        weights.append(a)
        deriv.apply(action)
        prev = enc.embedder(action)
    dists = output_distribution(model, grammar, frontiers, states, weights, enc)
    order = [0] * len(gold)
    for number, k in enumerate(k for dist in dists for k in dist.steps):
        order[k] = number
    targets = [[dist.support.index(gold[k]) for k in dist.steps] for dist in dists]
    return ops.nll([dist.probs for dist in dists],
                   [t[0] if dist.probs.values.ndim == 1 else t
                    for dist, t in zip(dists, targets)], order)


class TestRecordedRecurrence:
    """A teacher-forced turn's decoder steps are one lstm_cell call and
    one tape entry, with the gradients of one call per step bit for
    bit."""

    PRECEDENT = TestTurnLevelOutput.PRECEDENT
    GOLD = TestTurnLevelOutput.GOLD
    SEGMENTS = TestTurnLevelOutput.SEGMENTS

    def run(self, model, loss_fn, precedent=True):
        """The loss of a batch of two turns, which share an embedder, and
        every parameter's gradient."""
        segments = ([[t for seg in self.SEGMENTS for t in seg]]
                    if model.config.question_method == "concat" else self.SEGMENTS)
        for p in model.parameters():
            p.grad = None
        with Tape() as tape:
            embedder, losses = decoder.ActionEmbedder(model), []
            for gold in (self.GOLD, "SELECT alpha FROM t1 WHERE beta > 1"):
                enc = encode_turn(model, segments, list(range(len(segments) - 1, -1, -1)),
                                  actions_for(self.PRECEDENT) if precedent else None, embedder)
                losses.append(loss_fn(model, enc, GRAMMAR, list(actions_for(gold))))
            loss = ops.add(*losses)
            tape.backward(loss)
        # Without a precedent the precedent's encoder gets no gradient.
        return loss.values, {name: None if p.grad is None else p.grad.tobytes()
                             for name, p in model.params.items()}

    @pytest.mark.parametrize("method, precedent",
                             [(m, True) for m in context.method_names()]
                             + [("sql_attn", False), ("turn+sql_attn+action_copy", False)])
    def test_gradients_equal_a_step_by_step_tape_bit_for_bit(self, method, precedent):
        model = make_model(method, seed=3)
        loss, got = self.run(model, teacher_forced_loss, precedent)
        want_loss, want = self.run(model, step_by_step_loss, precedent)
        assert loss == want_loss
        assert got == want

    @pytest.mark.parametrize("method", ["gate", "turn+tree_copy", "turn+sql_attn+action_copy"])
    def test_gradients_equal_at_32_bits(self, method):
        set_precision(32)
        try:
            model = make_model(method, seed=4)
            loss, got = self.run(model, teacher_forced_loss)
            want_loss, want = self.run(model, step_by_step_loss)
        finally:
            set_precision(64)
        assert loss.dtype == np.float32 and loss == want_loss
        assert got == want

    @pytest.mark.parametrize("method", ["gate", "turn+sql_attn+action_copy"])
    def test_gradients_match_finite_differences(self, method):
        # gate rescales the question attention by its coefficients;
        # sql_attn adds the precedent's attention to every step.
        model = make_model(method, seed=5)
        gold = list(actions_for("SELECT alpha FROM t1 WHERE beta > 1"))
        precedent = actions_for("SELECT beta FROM t1")

        def loss():
            enc = encode_for(model, self.SEGMENTS, precedent=precedent)
            return teacher_forced_loss(model, enc, GRAMMAR, gold)

        names = [name for name in model.params if not name.startswith(("word_emb", "q_enc"))]
        result = grad_check(loss, [model.params[name] for name in names], names)
        assert result.max_rel_error < 1e-5, result.worst

    def test_one_call_and_one_entry_per_turn(self, monkeypatch):
        model = make_model("turn+sql_attn+action_copy", seed=3)
        recorded = []
        real = decoder.advance_state

        def counted(*args):
            before = len(tape)
            out = real(*args)
            recorded.append(len(tape) - before)
            return out

        monkeypatch.setattr(decoder, "advance_state", counted)
        gold = list(actions_for(self.GOLD))
        with Tape() as tape:
            enc = encode_for(model, self.SEGMENTS, precedent=actions_for(self.PRECEDENT))
            teacher_forced_loss(model, enc, GRAMMAR, gold)
        assert recorded == [1]


class TestGreedyParse:
    def test_zero_params_first_production_everywhere(self):
        model = make_model("none", seed=14)
        for p in model.params.values():
            p.values[...] = 0.0
        enc = encode_for(model, [["show", "alpha", "?"]])
        res = greedy_parse(model, enc, GRAMMAR)
        assert res.complete
        expected = [
            GRAMMAR.expansions(NonTerminal.START)[0],
            GRAMMAR.expansions(NonTerminal.ROOT)[0],
            GRAMMAR.expansions(NonTerminal.SELECT)[0],
            GRAMMAR.expansions(NonTerminal.AGG)[0],
            GRAMMAR.expansions(NonTerminal.COL)[0],
            GRAMMAR.expansions(NonTerminal.TAB)[0],
        ]
        assert list(res.actions) == expected
        assert res.steps == 6

    def test_complete_parses_are_grammar_valid(self):
        for method in ("none", "concat", "turn", "gate", "sql_attn", "action_copy",
                       "tree_copy"):
            model = make_model(method, seed=15)
            prec = actions_for("SELECT alpha FROM t2")
            segs = ([["show", "beta", "?"], ["alpha", "?"]]
                    if method in ("turn", "gate", "concat") else [["show", "beta", "?"]])
            if method == "concat":
                segs = [[t for s in segs for t in s]]
            enc = encode_for(model, segs, precedent=prec)
            res = greedy_parse(model, enc, GRAMMAR)
            if res.complete:
                actions_to_ast(list(res.actions), GRAMMAR)

    def test_max_steps_truncation_flagged(self):
        model = make_model("none", seed=16)
        enc = encode_for(model, [["show", "?"]])
        res = greedy_parse(model, enc, GRAMMAR, max_steps=2)
        assert not res.complete
        assert len(res.actions) <= 2

    def test_tree_copy_takes_fewer_steps(self):
        # Rig the parameters so the decoder state and the subtree
        # embedding are entry-wise positive while every generation logit
        # is zero: the Select subtree then wins its frontier.
        model = make_model("tree_copy", seed=17)
        for p in model.params.values():
            p.values[...] = 0.0
        hid = model.config.hidden_dim
        half = hid // 2
        for prefix, n in (("dec", hid), ("sql_enc.fwd", half), ("sql_enc.bwd", half)):
            b = model.params[f"{prefix}.b"].values
            b[:n] = 10.0            # input gate
            b[2 * n:3 * n] = 10.0   # candidate gate
            b[3 * n:] = 10.0        # output gate
        model.params["tree.wt"].values[...] = 10.0 * np.eye(hid)

        prec = actions_for("SELECT alpha, beta FROM t1")
        enc = encode_for(model, [["show", "alpha", "beta", "?"]], precedent=prec)
        res = greedy_parse(model, enc, GRAMMAR)
        assert res.complete
        assert res.steps < len(res.actions)
        actions_to_ast(list(res.actions), GRAMMAR)
        prec_select = next(seq for root, seq in extract_subtrees(list(prec))
                           if root == NonTerminal.SELECT)
        assert res.actions[2:] == prec_select
        assert res.steps == 3

    @pytest.mark.parametrize("method", context.method_names())
    def test_forced_choices_skip_the_output_layer(self, method, monkeypatch):
        # The reference is criterion 4's loop taking the argmax: it scores
        # every step. greedy_parse scores only the steps whose support
        # holds more than one candidate, and takes the same actions.
        def scored_every_step(model, encoded, max_steps):
            deriv = Derivation(GRAMMAR)
            state = initial_state(model, encoded)
            prev = model.params["bos_emb"]
            steps = forced = 0
            while not deriv.is_complete and len(deriv.actions) < max_steps:
                [state], [a] = advance_state(model, encoded, state, [prev])
                [dist] = output_distribution(model, GRAMMAR, [deriv.frontier()], [state],
                                             [a], encoded)
                forced += len(dist.support) == 1
                chosen = dist.support[int(np.argmax(dist.probs.values))]
                if isinstance(chosen, SubtreeCandidate):
                    deriv.apply_sequence(list(chosen.actions))
                    prev = encoded.embedder(chosen.actions[-1])
                else:
                    deriv.apply(chosen)
                    prev = encoded.embedder(chosen)
                steps += 1
            return tuple(deriv.actions), deriv.is_complete, steps, forced

        scored = []
        real = decoder.output_distribution
        monkeypatch.setattr(decoder, "output_distribution",
                            lambda *args: scored.append(args) or real(*args))
        precedents = [None, actions_for("SELECT alpha FROM t1 WHERE beta > 3"),
                      actions_for("SELECT wide_load FROM t2 ORDER BY alpha DESC")]
        for seed in range(6):
            model = make_model(method, seed=30 + seed)
            precedent = precedents[seed % 3] if model.config.sql_methods else None
            segments = ([["show", "beta", "?"], ["alpha", "of", "t1"]]
                        if model.config.question_method in ("turn", "gate")
                        else [["alpha", "of", "t1", "value"]])
            actions, complete, steps, forced = scored_every_step(
                model, encode_for(model, segments, precedent), 30)
            scored.clear()
            res = greedy_parse(model, encode_for(model, segments, precedent), GRAMMAR,
                               max_steps=30)
            assert (res.actions, res.complete, res.steps) == (actions, complete, steps)
            assert len(scored) == steps - forced
            assert forced >= 1                      # Start -> Root at least

    def test_max_steps_validated(self):
        model = make_model("none", seed=18)
        enc = encode_for(model, [["show", "?"]])
        with pytest.raises(ContractError):
            greedy_parse(model, enc, GRAMMAR, max_steps=0)


class TestTeacherForcedLoss:
    def test_finite_positive(self):
        model = make_model("none", seed=19)
        enc = encode_for(model, [["show", "alpha", "?"]])
        gold = list(actions_for("SELECT alpha FROM t1"))
        loss = teacher_forced_loss(model, enc, GRAMMAR, gold)
        assert np.isfinite(loss.values)
        assert float(loss.values) > 0.0

    def test_illegal_gold_action_reports_step(self):
        model = make_model("none", seed=20)
        enc = encode_for(model, [["show", "alpha", "?"]])
        gold = list(actions_for("SELECT alpha FROM t1"))
        gold[1], gold[2] = gold[2], gold[1]     # Select rule where Root is expected
        with pytest.raises(DerivationError) as err:
            teacher_forced_loss(model, enc, GRAMMAR, gold)
        assert err.value.step == 2

    def test_truncated_gold_rejected(self):
        model = make_model("none", seed=21)
        enc = encode_for(model, [["show", "alpha", "?"]])
        gold = list(actions_for("SELECT alpha FROM t1"))[:-1]
        with pytest.raises(IncompleteSequenceError):
            teacher_forced_loss(model, enc, GRAMMAR, gold)

    def test_loss_decreases_under_training(self):
        from dialsql.nn import Adam

        model = make_model("concat", seed=22)
        gold = list(actions_for("SELECT alpha FROM t1"))
        opt = Adam(model.parameters(), lr=2e-2)
        losses = []
        for _ in range(60):
            opt.zero_grad()
            with Tape() as tape:
                enc = encode_for(model, [["show", "alpha", "?"]])
                loss = teacher_forced_loss(model, enc, GRAMMAR, gold)
                tape.backward(loss)
            opt.step()
            losses.append(float(loss.values))
        assert losses[-1] < losses[0] * 0.5

    def test_full_model_gradients_with_action_copy(self):
        model = make_model("turn+sql_attn+action_copy", seed=23, h=1)
        prec = actions_for("SELECT beta FROM t1")
        gold = list(actions_for("SELECT alpha FROM t1"))
        segments = [["show", "beta", "?"], ["alpha", "?"]]

        def loss():
            enc = encode_turn(model, segments, [1, 0], prec)
            return teacher_forced_loss(model, enc, GRAMMAR, gold)

        result = grad_check(loss, model.parameters())
        assert result.max_rel_error < 1e-5, result.worst
