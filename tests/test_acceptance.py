"""End-to-end acceptance gate: nine numbered criteria.

Each criterion is one test function; conftest.py prints a one-line
PASS/FAIL verdict per criterion in the terminal summary. Tolerances
and budgets are pinned here, not derived from the code under test.
"""

import json
import time

import numpy as np
import pytest

from dialsql.cli import main
from dialsql.context import method_names, prepare_inputs
from dialsql.data import (
    gen_synthetic,
    ood_split,
    synthetic_schemas,
    write_dialogues,
    write_schemas,
)
from dialsql.decoder import (
    ActionEmbedder,
    SubtreeCandidate,
    advance_state,
    encode_turn,
    initial_state,
    output_distribution,
    teacher_forced_loss,
)
from dialsql.estimator import SqlParser
from dialsql.evaluation import CellStat, compute_metrics
from dialsql.grammar import (
    Derivation,
    NonTerminal,
    Production,
    actions_to_ast,
    ast_to_actions,
    ast_to_sql,
    build_grammar,
    canonicalize,
    format_actions,
    sql_to_ast,
)
from dialsql.nn import LSTMCellParams, Parameter, Tensor, grad_check, lstm_cell, \
    lstm_sequence, ops, set_precision

from sampling import QuerySampler
from test_decoder import GRAMMAR, MINI_SCHEMA, VOCAB, make_model
from test_context import three_turn_dialogue
from test_evaluation import WRONG, gold_predictions, make_corpus

CONTEXT_CONFIGS = [m for m in method_names() if m != "none"]

NT = NonTerminal


@pytest.fixture(autouse=True)
def _f64():
    set_precision(64)


# ---------------------------------------------------------------------------
# random derivations (test-side oracle input)


def random_walk_actions(grammar, rng, soft_cap=30) -> tuple:
    """Random derivation by picking productions at the frontier; after
    the cap only non-recursive filter expansions are allowed."""
    deriv = Derivation(grammar)
    while not deriv.is_complete:
        options = grammar.expansions(deriv.frontier())
        if len(deriv.actions) > soft_cap:
            safe = [p for p in options
                    if NT.FILTER not in p.rhs_nonterminals()]
            options = safe or options
        deriv.apply(options[int(rng.integers(len(options)))])
    return tuple(deriv.actions)


# ---------------------------------------------------------------------------
# criterion 1: grammar bijection


def test_criterion_1_grammar_round_trip():
    rng = np.random.default_rng(101)
    schemas = list(synthetic_schemas().values())
    schemas.append(MINI_SCHEMA)
    samplers = [(QuerySampler(s, rng), s, build_grammar(s)) for s in schemas]
    started = time.perf_counter()
    for k in range(1000):
        sampler, schema, grammar = samplers[k % len(samplers)]
        tree = sampler.query()
        actions = ast_to_actions(tree)
        assert actions_to_ast(actions, grammar) == tree
        sql = ast_to_sql(tree, schema)
        reparsed = sql_to_ast(sql, schema)
        assert canonicalize(reparsed) == canonicalize(tree), sql
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"round trips took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 2: worked-example action sequence


def test_criterion_2_worked_example_fixture(cars_schema, figure2_actions_text):
    sql = "SELECT Id FROM CARS_DATA ORDER BY Horsepower DESC LIMIT 1"
    actions = ast_to_actions(sql_to_ast(sql, cars_schema))
    assert len(actions) == 10
    assert format_actions(actions) + "\n" == figure2_actions_text


# ---------------------------------------------------------------------------
# criterion 3: gradient checks, layers and all full configurations


def _layer_checks(rng) -> float:
    worst = 0.0

    def check(loss_fn, params):
        nonlocal worst
        result = grad_check(loss_fn, params)
        worst = max(worst, result.max_rel_error)

    def param(*shape):
        return Parameter("p", rng.uniform(-0.4, 0.4, shape))

    # fused LSTM cell, two chained updates so every weight block is live
    cell = LSTMCellParams(param(12, 2), param(12, 3), param(12))
    x1, x2 = param(2), param(2)

    def lstm_loss():
        h = Tensor(np.zeros(3))
        c = Tensor(np.zeros(3))
        for x in (x1, x2):
            [(h, c)], _ = lstm_cell(cell, [x], (h, c))
        return ops.reduce_sum(ops.mul(h, h))

    check(lstm_loss, [cell.w_ih, cell.w_hh, cell.b, x1, x2])

    # bidirectional encoder over a short sequence: one fused pass
    fwd = LSTMCellParams(param(8, 3), param(8, 2), param(8))
    bwd = LSTMCellParams(param(8, 3), param(8, 2), param(8))
    xs = param(4, 3)

    def bilstm_loss():
        [(states, _)] = lstm_sequence([fwd, bwd], [xs])
        return ops.reduce_sum(ops.mul(states, states))

    check(bilstm_loss, [fwd.w_ih, fwd.w_hh, fwd.b,
                        bwd.w_ih, bwd.w_hh, bwd.b, xs])

    # attention: scores, softmax, context, one fused entry
    we, states, query = param(3, 4), param(5, 3), param(4)

    def attend_loss():
        _, ctx = ops.attention(states, we, query)
        return ops.reduce_sum(ops.mul(ctx, ctx))

    check(attend_loss, [we, states, query])

    # copy mixture: masked softmax, aggregation, sigmoid gate, one fused entry
    wl, h, mem = param(4), param(4), param(6, 4)
    agg = np.zeros((3, 6))
    for m in range(6):
        agg[m % 3, m] = 1.0
    gen = param(3)

    def copy_loss():
        mixed, _, _, _ = ops.mixture([gen], copy_scores=ops.matmul(mem, wl),
                                     copy_mask=[True, False, True, True, True, False],
                                     copy_agg=agg, gate=ops.matmul(wl, h))
        return ops.nll([mixed], [1])

    check(copy_loss, [wl, h, mem, gen])

    # linking: weighted feature sum plus token-rule bilinear term
    w_exact, w_partial = Parameter("we", 1.0), Parameter("wp", 0.5)
    toks, rules, a = param(3, 2), param(4, 2), param(3)
    exact, partial = Tensor(rng.uniform(size=(3, 4))), Tensor(rng.uniform(size=(3, 4)))

    def linking_loss():
        link = ops.add(ops.add(ops.scale_by(exact, w_exact),
                               ops.scale_by(partial, w_partial)),
                       ops.matmul(toks, ops.transpose(rules)))
        probs, _, _, _ = ops.mixture([ops.matmul(a, link)])
        return ops.nll([probs], [0])

    check(linking_loss, [w_exact, w_partial, toks, rules, a])

    # subtree scoring: bilinear logits in a joint softmax
    wt, hvec, phis = param(4, 4), param(4), param(2, 4)

    def tree_loss():
        logits = ops.matmul(phis, ops.matmul(hvec, wt))
        probs, _, _, _ = ops.mixture([gen, logits])
        return ops.nll([probs], [3])

    check(tree_loss, [wt, hvec, phis, gen])
    return worst


def test_criterion_3_gradient_checks():
    started = time.perf_counter()
    rng = np.random.default_rng(33)
    worst = _layer_checks(rng)

    dialogue = three_turn_dialogue()
    for method in ["none"] + CONTEXT_CONFIGS:
        model = make_model(method, seed=7, h=1)

        def loss_fn():
            inputs = prepare_inputs(dialogue, 2, model.config)
            enc = encode_turn(model, inputs.segments, inputs.distances,
                              inputs.precedent)
            return teacher_forced_loss(model, enc, GRAMMAR,
                                       list(dialogue.turns[1].gold_actions))

        result = grad_check(loss_fn, model.parameters(),
                            names=list(model.params))
        worst = max(worst, result.max_rel_error)
    elapsed = time.perf_counter() - started
    assert worst < 1e-5, f"max relative gradient error {worst:.3e}"
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 4: decode distribution soundness


def _random_encoded(model, rng, precedent, embedder):
    words = VOCAB.to_list()
    if model.config.question_method in ("turn", "gate"):
        n_seg = 1 + int(rng.integers(2))
    else:
        n_seg = 1
    segments = [[words[int(rng.integers(len(words)))]
                 for _ in range(2 + int(rng.integers(4)))]
                for _ in range(n_seg)]
    distances = list(range(n_seg - 1, -1, -1))
    return encode_turn(model, segments, distances, precedent, embedder)


def test_criterion_4_distribution_soundness():
    for k, method in enumerate(["none"] + CONTEXT_CONFIGS):
        rng = np.random.default_rng(400 + k)
        model = make_model(method, seed=int(rng.integers(100)), h=2)
        embedder = ActionEmbedder(model)
        steps = 0
        while steps < 100:
            precedent = None
            if model.config.sql_methods and rng.random() < 0.8:
                precedent = random_walk_actions(GRAMMAR, rng)
            encoded = _random_encoded(model, rng, precedent, embedder)
            deriv = Derivation(GRAMMAR)
            state = initial_state(model, encoded)
            prev = model.params["bos_emb"]
            while not deriv.is_complete and steps < 100:
                [state], [a] = advance_state(model, encoded, state, [prev])
                frontier = deriv.frontier()
                [dist] = output_distribution(model, GRAMMAR, [frontier], [state], [a], encoded)
                probs = dist.probs.values
                assert abs(float(probs.sum()) - 1.0) <= 1e-9
                assert np.all(probs >= 0.0) and np.all(np.isfinite(probs))

                # support must be exactly the legal candidates
                prods = [s for s in dist.support if isinstance(s, Production)]
                assert prods == GRAMMAR.expansions(frontier)
                subtree_pool = {seq for root, seq, _ in encoded.copy.subtrees
                                if root == frontier}
                trees = [s for s in dist.support
                         if isinstance(s, SubtreeCandidate)]
                if "tree_copy" not in model.config.sql_methods:
                    assert trees == []
                for cand in trees:
                    assert cand.root == frontier
                    assert cand.actions in subtree_pool

                # mixture identity between copy and generation parts
                if dist.p_copy is not None:
                    p = float(dist.p_copy.values)
                    mixed = (p * dist.copy_probs.values
                             + (1.0 - p) * dist.gen_probs.values)
                    assert np.max(np.abs(probs - mixed)) <= 1e-12
                else:
                    assert dist.copy_probs is None

                chosen = dist.support[int(rng.integers(len(dist.support)))]
                if isinstance(chosen, SubtreeCandidate):
                    deriv.apply_sequence(list(chosen.actions))
                    prev = embedder(chosen.actions[-1])
                else:
                    deriv.apply(chosen)
                    prev = embedder(chosen)
                steps += 1


# ---------------------------------------------------------------------------
# criterion 5: overfit a seeded synthetic corpus


def test_criterion_5_overfit_synthetic_corpus():
    corpus = gen_synthetic(seed=5, n_dialogues=20, max_turns=4)
    assert len(corpus.schemas) == 2
    assert max(len(d.turns) for d in corpus.dialogues) <= 4
    for method in CONTEXT_CONFIGS:
        started = time.perf_counter()
        parser = SqlParser(method=method, embedding_dim=16, hidden_dim=32,
                           distance_dim=6, lr=2e-2, epochs=200, batch_size=8,
                           seed=0, h=2, target_ques_match=1.0, eval_every=5)
        parser.fit(corpus)
        elapsed = time.perf_counter() - started
        last = parser.history_[-1]
        assert last.get("ques_match") == 1.0, \
            f"{method}: {last.get('ques_match')} after {last['epoch']} epochs"
        assert last["epoch"] <= 200
        assert elapsed < 300.0, f"{method} took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# criterion 6: metric definitions


def test_criterion_6_metric_definitions():
    corpus = make_corpus({
        "a": ["SELECT alpha FROM t1",
              "SELECT beta FROM t1",
              "SELECT alpha, beta FROM t1"],
        "b": ["SELECT wide_load FROM t2",
              "SELECT alpha FROM t2"],
    })
    predictions = gold_predictions(corpus)
    predictions[("b", 2)] = WRONG
    report = compute_metrics(predictions, corpus)
    assert report.ques_match == CellStat(4, 5)
    assert report.int_match == CellStat(1, 2)
    assert report.turn_match == {1: CellStat(2, 2), 2: CellStat(1, 2),
                                 3: CellStat(1, 1)}
    assert report.turn_match[1].fraction == 1.0
    assert report.turn_match[2].fraction == 0.5
    assert report.turn_match[3].fraction == 1.0

    # Over equal-length dialogues a fully matched dialogue contributes
    # every one of its questions, so interaction accuracy cannot exceed
    # question accuracy. (Mixed lengths break this: three correct
    # one-turn dialogues next to one failed nineteen-turn dialogue give
    # int 3/4 but ques 3/22.) Mixed lengths still satisfy int <= turn-1.
    from dialsql.data import Corpus, Dialogue
    big = gen_synthetic(seed=9, n_dialogues=12, max_turns=4)
    equal = Corpus([Dialogue(d.dialogue_id, d.db_id, d.turns[:2])
                    for d in big.dialogues if len(d.turns) >= 2], big.schemas)
    assert len(equal.dialogues) >= 4
    rng = np.random.default_rng(66)
    for corpus_i, bound_of in ((equal, lambda r: r.ques_match.fraction),
                               (big, lambda r: r.turn_match[1].fraction)):
        gold = {ex.key(): actions_to_ast(list(ex.gold_actions))
                for ex in corpus_i.examples()}
        for _ in range(100):
            preds = {k: (v if rng.random() < 0.6 else None)
                     for k, v in gold.items()}
            r = compute_metrics(preds, corpus_i)
            assert r.int_match.fraction <= bound_of(r) + 1e-12


# ---------------------------------------------------------------------------
# criterion 7: set-match matcher versus permutation oracle


def test_criterion_7_set_match_oracle():
    from dialsql.evaluation import exact_set_match
    from test_evaluation import oracle_equal, random_tree, shuffled

    rng = np.random.default_rng(77)
    pairs = 0
    agree = 0
    while pairs < 500:
        a = random_tree(rng)
        b = shuffled(a, rng) if pairs % 2 == 0 else random_tree(rng)
        got = exact_set_match(a, b)
        want = oracle_equal(a, b)
        assert got == want, f"matcher {got}, oracle {want}\n{a}\n{b}"
        agree += 1
        pairs += 1
    assert agree == 500


# ---------------------------------------------------------------------------
# criterion 8: out-of-distribution turn-depth pipeline


def test_criterion_8_ood_pipeline(tmp_path):
    corpus = gen_synthetic(seed=11, n_dialogues=8, max_turns=4)
    write_dialogues(corpus, tmp_path / "dialogues.json")
    write_schemas(corpus.schemas, tmp_path / "schemas.json")

    train_corpus, eval_corpus = ood_split(corpus)
    assert max(ex.turn_index for ex in train_corpus.examples()) <= 2
    eval_scored = [ex for ex in eval_corpus.examples() if ex.scored]
    assert eval_scored and all(ex.turn_index >= 3 for ex in eval_scored)

    for method in ("tree_copy", "action_copy"):
        out_dir = tmp_path / method
        code = main(["ood-experiment",
                     "--dialogues", str(tmp_path / "dialogues.json"),
                     "--schemas", str(tmp_path / "schemas.json"),
                     "--out-dir", str(out_dir),
                     "--method", method,
                     "--embedding-dim", "6", "--hidden-dim", "8",
                     "--distance-dim", "4", "--epochs", "2", "--h", "2",
                     "--seed", "1"])
        assert code == 0, method
        report = json.loads((out_dir / "report.json").read_text())
        turns = {int(t) for t in report["turn_match"]}
        assert turns and min(turns) >= 3
        assert (out_dir / "predictions.tsv").exists()
        assert (out_dir / "model.ckpt").exists()


# ---------------------------------------------------------------------------
# criterion 9: bit-identical reruns


def test_criterion_9_determinism(tmp_path):
    flags = ["--embedding-dim", "6", "--hidden-dim", "8", "--distance-dim", "4",
             "--epochs", "2", "--h", "2", "--seed", "4", "--precision", "64"]

    for d in ("one", "two"):
        assert main(["synth-data", "--out-dir", str(tmp_path / d),
                     "--seed", "17", "--n-dialogues", "4",
                     "--max-turns", "3"]) == 0
    assert (tmp_path / "one" / "dialogues.json").read_bytes() == \
        (tmp_path / "two" / "dialogues.json").read_bytes()

    data = ["--dialogues", str(tmp_path / "one" / "dialogues.json"),
            "--schemas", str(tmp_path / "one" / "schemas.json")]
    for d in ("one", "two"):
        assert main(["train", *data, "--out", str(tmp_path / d / "m.ckpt"),
                     "--method", "turn+sql_attn", *flags]) == 0
        assert main(["evaluate", *data,
                     "--checkpoint", str(tmp_path / d / "m.ckpt"),
                     "--out", str(tmp_path / d / "report"), *flags]) == 0
    for name in ("m.ckpt", "m.log.csv", "report.csv", "report.json"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes(), name
