"""Metric oracles: set-match vs a brute-force permutation search, hand
counted accuracy fixtures, and report round trips."""

import itertools
import json
import re

import numpy as np
import pytest

from dialsql.data import Corpus, DataError, Dialogue, Example
from dialsql.evaluation import (
    COARSE_OF,
    CellStat,
    FINE_LABELS,
    MetricsReport,
    apply_annotations,
    compute_metrics,
    emit_report,
    exact_set_match,
    load_annotations,
    read_report,
    report_schema,
)
from dialsql.grammar import AST, NonTerminal, actions_to_ast, canonicalize, sql_to_ast
from dialsql.nn import ContractError

from test_decoder import GRAMMAR, MINI_SCHEMA, actions_for


def tree_of(sql: str) -> AST:
    return sql_to_ast(sql, MINI_SCHEMA)


def oracle_equal(a: AST, b: AST) -> bool:
    """Set equality by trying every permutation of unordered siblings."""
    if a.production != b.production:
        return False
    unordered = (a.lhs is NonTerminal.SELECT
                 or (a.lhs is NonTerminal.FILTER
                     and a.production.rhs[0] in ("and", "or")))
    if unordered:
        return any(all(oracle_equal(x, y) for x, y in zip(perm, b.children))
                   for perm in itertools.permutations(a.children))
    return all(oracle_equal(x, y) for x, y in zip(a.children, b.children))


def random_tree(rng: np.random.Generator) -> AST:
    """Random limit-free query so canonicalization is pure reordering."""
    prods = {str(p): p for p in GRAMMAR.productions}

    def node(key, *children):
        return AST(prods[key], tuple(children))

    def agg():
        func = ["none", "max", "min", "count"][int(rng.integers(4))]
        col = ["alpha", "beta", "wide_load"][int(rng.integers(3))]
        tab = ["t1", "t2"][int(rng.integers(2))]
        return node(f"Agg -> {func} Col Tab", node(f"Col -> {col}"),
                    node(f"Tab -> {tab}"))

    def comparison():
        op = ["=", ">", "<"][int(rng.integers(3))]
        return node(f"Filter -> {op} Agg Value",
                    node("Agg -> none Col Tab",
                         node(f"Col -> {['alpha', 'beta'][int(rng.integers(2))]}"),
                         node("Tab -> t1")),
                    node("Value -> value"))

    def filt(depth=0):
        if depth < 1 and rng.random() < 0.5:
            join = ["and", "or"][int(rng.integers(2))]
            return node(f"Filter -> {join} Filter Filter",
                        filt(depth + 1), filt(depth + 1))
        return comparison()

    n = int(rng.integers(1, 4))
    select = node("Select -> " + " ".join(["Agg"] * n), *(agg() for _ in range(n)))
    if rng.random() < 0.5:
        root = node("Root -> Select Filter", select, filt())
    else:
        root = node("Root -> Select", select)
    return node("Start -> Root", root)


def shuffled(tree: AST, rng: np.random.Generator) -> AST:
    """Permute each unordered sibling group; a set-equal rewrite."""
    kids = [shuffled(c, rng) for c in tree.children]
    unordered = (tree.lhs is NonTerminal.SELECT
                 or (tree.lhs is NonTerminal.FILTER
                     and tree.production.rhs[0] in ("and", "or")))
    if unordered and len(kids) > 1:
        order = rng.permutation(len(kids))
        kids = [kids[i] for i in order]
    return AST(tree.production, tuple(kids))


class TestExactSetMatch:
    def test_identity(self):
        t = tree_of("SELECT alpha FROM t1 WHERE beta > 1")
        assert exact_set_match(t, t)

    def test_invalid_prediction_is_wrong(self):
        assert not exact_set_match(None, tree_of("SELECT alpha FROM t1"))

    def test_and_operand_order_ignored(self):
        a = tree_of("SELECT alpha FROM t1 WHERE alpha = 1 AND beta = 2")
        b = tree_of("SELECT alpha FROM t1 WHERE beta = 2 AND alpha = 1")
        assert exact_set_match(a, b)

    def test_select_order_ignored(self):
        a = tree_of("SELECT alpha, beta FROM t1")
        b = tree_of("SELECT beta, alpha FROM t1")
        assert exact_set_match(a, b)

    def test_order_direction_still_matters(self):
        a = tree_of("SELECT alpha, beta FROM t1 ORDER BY alpha ASC")
        b = tree_of("SELECT beta, alpha FROM t1 ORDER BY alpha DESC")
        assert not exact_set_match(a, b)

    def test_different_queries_differ(self):
        assert not exact_set_match(tree_of("SELECT alpha FROM t1"),
                                   tree_of("SELECT beta FROM t1"))

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(0)
        agree = 0
        positives = 0
        for k in range(200):
            a = random_tree(rng)
            b = shuffled(a, rng) if k % 2 == 0 else random_tree(rng)
            expected = oracle_equal(a, b)
            got = exact_set_match(a, b)
            assert got == expected, (a, b)
            assert exact_set_match(b, a) == got
            agree += 1
            positives += expected
        assert agree == 200
        assert positives >= 100          # every shuffled pair must match
        assert positives < 200           # and the independent pairs mostly differ

    def test_reflexive_on_random_trees(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = random_tree(rng)
            assert exact_set_match(t, t)


def make_corpus(spec: dict[str, list[str]], labels=None) -> Corpus:
    """spec maps dialogue_id to a list of gold SQL strings."""
    labels = labels or {}
    dialogues = []
    for dialogue_id, sqls in spec.items():
        turns = [
            Example(dialogue_id, t, ("q",), sql, actions_for(sql),
                    phenomenon=labels.get((dialogue_id, t)))
            for t, sql in enumerate(sqls, start=1)
        ]
        dialogues.append(Dialogue(dialogue_id, "mini", turns))
    return Corpus(dialogues, {"mini": MINI_SCHEMA})


def gold_predictions(corpus: Corpus) -> dict:
    return {ex.key(): actions_to_ast(list(ex.gold_actions))
            for ex in corpus.examples()}


WRONG = tree_of("SELECT wide_load FROM t2 WHERE alpha < 5")


class TestComputeMetrics:
    def test_all_correct(self):
        corpus = make_corpus({"d0": ["SELECT alpha FROM t1", "SELECT beta FROM t1"]})
        report = compute_metrics(gold_predictions(corpus), corpus)
        assert report.ques_match == CellStat(2, 2)
        assert report.int_match == CellStat(1, 1)
        assert report.turn_match == {1: CellStat(1, 1), 2: CellStat(1, 1)}

    def test_hand_counted_fixture(self):
        corpus = make_corpus({
            "d0": ["SELECT alpha FROM t1", "SELECT beta FROM t1",
                   "SELECT alpha, beta FROM t1"],
            "d1": ["SELECT alpha FROM t2", "SELECT wide_load FROM t2"],
        })
        predictions = gold_predictions(corpus)
        predictions[("d1", 2)] = WRONG
        report = compute_metrics(predictions, corpus)
        assert report.ques_match == CellStat(4, 5)
        assert report.int_match == CellStat(1, 2)
        assert report.turn_match == {1: CellStat(2, 2), 2: CellStat(1, 2),
                                     3: CellStat(1, 1)}

    def test_one_dialogue_two_thirds(self):
        corpus = make_corpus({"d0": ["SELECT alpha FROM t1", "SELECT beta FROM t1",
                                     "SELECT alpha FROM t2"]})
        predictions = gold_predictions(corpus)
        predictions[("d0", 2)] = None
        report = compute_metrics(predictions, corpus)
        assert report.ques_match.fraction == pytest.approx(2 / 3)
        assert report.int_match.fraction == 0.0

    def test_missing_prediction_names_example(self):
        corpus = make_corpus({"d7": ["SELECT alpha FROM t1"]})
        with pytest.raises(ContractError, match="'d7' turn 1"):
            compute_metrics({}, corpus)

    def test_unsupported_examples_excluded(self):
        corpus = make_corpus({"d0": ["SELECT alpha FROM t1", "SELECT beta FROM t1"]})
        turns = corpus.dialogues[0].turns
        from dataclasses import replace
        turns[1] = replace(turns[1], supported=False, gold_actions=None)
        predictions = {("d0", 1): actions_to_ast(list(turns[0].gold_actions))}
        report = compute_metrics(predictions, corpus)
        assert report.ques_match == CellStat(1, 1)
        assert report.int_match == CellStat(1, 1)
        assert 2 not in report.turn_match

    def test_context_turns_excluded_but_kept(self):
        corpus = make_corpus({"d0": ["SELECT alpha FROM t1", "SELECT beta FROM t1",
                                     "SELECT alpha FROM t2"]})
        from dataclasses import replace
        turns = corpus.dialogues[0].turns
        turns[0] = replace(turns[0], scored=False)
        turns[1] = replace(turns[1], scored=False)
        predictions = {("d0", 3): WRONG}
        report = compute_metrics(predictions, corpus)
        assert report.ques_match == CellStat(0, 1)
        assert report.int_match == CellStat(0, 1)
        assert set(report.turn_match) == {3}

    def test_int_never_exceeds_ques_and_turn_counts_add_up(self):
        rng = np.random.default_rng(6)
        sqls = ["SELECT alpha FROM t1", "SELECT beta FROM t1",
                "SELECT alpha, beta FROM t1", "SELECT wide_load FROM t2"]
        for _ in range(30):
            spec = {f"d{k}": [sqls[int(rng.integers(4))]
                              for _ in range(int(rng.integers(1, 5)))]
                    for k in range(int(rng.integers(1, 5)))}
            corpus = make_corpus(spec)
            predictions = gold_predictions(corpus)
            for key in list(predictions):
                if rng.random() < 0.4:
                    predictions[key] = WRONG if rng.random() < 0.5 else None
            report = compute_metrics(predictions, corpus)
            assert report.int_match.fraction <= report.ques_match.fraction + 1e-12
            assert sum(c.matched for c in report.turn_match.values()) \
                == report.ques_match.matched
            assert sum(c.total for c in report.turn_match.values()) \
                == report.ques_match.total


class TestPhenomenonBreakdown:
    def test_counts_echo_annotations(self):
        labels = {("d0", 1): "context_independent",
                  ("d0", 2): "demonstrative_pronoun",
                  ("d1", 1): "demonstrative_pronoun"}
        corpus = make_corpus({"d0": ["SELECT alpha FROM t1", "SELECT beta FROM t1"],
                              "d1": ["SELECT alpha FROM t2"]}, labels)
        predictions = gold_predictions(corpus)
        predictions[("d1", 1)] = None
        breakdown = compute_metrics(predictions, corpus).per_phenomenon
        assert breakdown == {"context_independent": CellStat(1, 1),
                             "demonstrative_pronoun": CellStat(1, 2)}

    def test_single_wrong_label(self):
        corpus = make_corpus({"d0": ["SELECT alpha FROM t1"]},
                             {("d0", 1): "one_anaphora"})
        breakdown = compute_metrics({("d0", 1): None}, corpus).per_phenomenon
        assert breakdown == {"one_anaphora": CellStat(0, 1)}

    def test_unknown_label_rejected(self):
        corpus = make_corpus({"d0": ["SELECT alpha FROM t1"]},
                             {("d0", 1): "sarcasm"})
        with pytest.raises(DataError, match="sarcasm"):
            compute_metrics(gold_predictions(corpus), corpus)

    def test_no_labels_empty_breakdown(self):
        # The analyze command rejects this case (tests/test_cli.py).
        corpus = make_corpus({"d0": ["SELECT alpha FROM t1"]})
        assert compute_metrics(gold_predictions(corpus), corpus).per_phenomenon == {}

    def test_metrics_include_breakdown_when_labeled(self):
        corpus = make_corpus({"d0": ["SELECT alpha FROM t1"]},
                             {("d0", 1): "continuation"})
        report = compute_metrics(gold_predictions(corpus), corpus)
        assert report.per_phenomenon == {"continuation": CellStat(1, 1)}

    def test_labeled_metrics_canonicalize_each_tree_once(self, monkeypatch):
        labels = {("d0", 1): "context_independent", ("d0", 2): "continuation",
                  ("d1", 1): "one_anaphora"}
        corpus = make_corpus({"d0": ["SELECT alpha FROM t1", "SELECT beta FROM t1"],
                              "d1": ["SELECT alpha FROM t2"]}, labels)
        calls = []

        def counting(tree):
            calls.append(tree)
            return canonicalize(tree)

        monkeypatch.setattr("dialsql.evaluation.canonicalize", counting)
        report = compute_metrics(gold_predictions(corpus), corpus)
        assert len(report.per_phenomenon) == 3
        assert len(calls) == 2 * 3          # prediction and gold, once per scored turn

    def test_taxonomy_shape(self):
        assert len(FINE_LABELS) == 11
        assert set(COARSE_OF.values()) == {"semantically_complete", "coreference",
                                           "ellipsis"}
        coreference = [f for f, c in COARSE_OF.items() if c == "coreference"]
        ellipsis = [f for f, c in COARSE_OF.items() if c == "ellipsis"]
        assert len(coreference) == 5 and len(ellipsis) == 5


class TestAnnotations:
    def test_load_and_apply(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"d0": {"2": "possessive_determiner"}}))
        corpus = make_corpus({"d0": ["SELECT alpha FROM t1", "SELECT beta FROM t1"]})
        labeled = apply_annotations(corpus, load_annotations(path))
        assert labeled.dialogues[0].turns[1].phenomenon == "possessive_determiner"
        assert labeled.dialogues[0].turns[0].phenomenon is None

    def test_unknown_label_in_file(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"d0": {"1": "vibes"}}))
        with pytest.raises(DataError, match="vibes"):
            load_annotations(path)

    @pytest.mark.parametrize("label", [["continuation"], 3, None])
    def test_non_string_label_in_file(self, tmp_path, label):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"d0": {"1": label}}))
        with pytest.raises(DataError, match=r"labels\.json: 'd0' turn 1: unknown label"):
            load_annotations(path)

    def test_bad_turn_key(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"d0": {"two": "continuation"}}))
        with pytest.raises(DataError, match="two"):
            load_annotations(path)

    @pytest.mark.parametrize("key", ["1_0", " 2 ", "+1", "-1", "\u0663"])
    def test_turn_key_must_be_ascii_digits(self, tmp_path, key):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"d0": {key: "continuation"}}))
        with pytest.raises(DataError) as exc:
            load_annotations(path)
        assert f"{path}: 'd0': turn index {key!r} is not a non-negative integer" \
            == str(exc.value)

    def test_annotation_for_unknown_dialogue(self):
        corpus = make_corpus({"d0": ["SELECT alpha FROM t1"]})
        with pytest.raises(DataError, match="d9"):
            apply_annotations(corpus, {"d9": {1: "continuation"}})

    def test_annotation_for_unknown_turn(self):
        corpus = make_corpus({"d0": ["SELECT alpha FROM t1"]})
        with pytest.raises(DataError, match="turn 4"):
            apply_annotations(corpus, {"d0": {4: "continuation"}})


def sample_report() -> MetricsReport:
    return MetricsReport(
        ques_match=CellStat(4, 5),
        int_match=CellStat(1, 2),
        turn_match={1: CellStat(2, 2), 2: CellStat(1, 2), 3: CellStat(1, 1)},
        per_phenomenon={"continuation": CellStat(3, 4),
                        "one_anaphora": CellStat(0, 1)},
    )


class TestReports:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "report.csv"
        report = sample_report()
        emit_report(report, "csv", path)
        assert read_report(path) == report
        header = path.read_text().splitlines()[0]
        assert header == "metric,value,count"

    def test_json_round_trip_and_schema(self, tmp_path):
        import jsonschema

        path = tmp_path / "report.json"
        report = sample_report()
        emit_report(report, "json", path)
        assert read_report(path) == report
        blob = json.loads(path.read_text())
        jsonschema.validate(blob, report_schema())

    def test_row_order_is_stable(self, tmp_path):
        report = sample_report()
        flipped = MetricsReport(
            report.ques_match, report.int_match,
            dict(reversed(list(report.turn_match.items()))),
            dict(reversed(list(report.per_phenomenon.items()))),
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(report, "csv", a)
        emit_report(flipped, "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            emit_report(sample_report(), "xml", tmp_path / "r.xml")

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            emit_report(sample_report(), "csv", tmp_path / "missing" / "r.csv")

    def test_unknown_metric_row_rejected(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("metric,value,count\nbleu,0.5,10\n")
        with pytest.raises(DataError, match="bleu"):
            read_report(path)

    @pytest.mark.parametrize("edit", [
        lambda blob: [blob],
        lambda blob: {k: v for k, v in blob.items() if k != "turn_match"},
        lambda blob: {**blob, "ques_match": 5},
        lambda blob: {**blob, "int_match": {"matched": 1}},
        lambda blob: {**blob, "int_match": {"matched": "1", "total": 2}},
        lambda blob: {**blob, "int_match": {"matched": True, "total": 2}},
        lambda blob: {**blob, "int_match": {"matched": 3, "total": 2}},
        lambda blob: {**blob, "turn_match": {"one": {"matched": 1, "total": 1}}},
        lambda blob: {**blob, "turn_match": {"1": []}},
        lambda blob: {**blob, "per_phenomenon": []},
    ], ids=["list", "no_turn_match", "scalar_cell", "no_total", "string_count", "bool_count",
            "matched_above_total", "turn_one", "list_cell", "list_breakdown"])
    def test_malformed_json_report_names_the_file(self, tmp_path, edit):
        path = tmp_path / "report.json"
        emit_report(sample_report(), "json", path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(DataError, match=re.escape(str(path))):
            read_report(path)

    @pytest.mark.parametrize("text", [
        "", "{not json", "metric,value,count\nques_match,abc,5\nint_match,0.5,2\n",
        "metric,value,count\nques_match,0.8\n", "metric,value,count\nques_match,nan,5\n",
        "metric,value,count\nques_match,inf,5\n", "metric,value,count\nques_match,0.8,x\n",
        "metric,value,count\nques_match,2.0,1\n", "metric,value,count\nturn_match_x,1.0,1\n",
    ], ids=["empty", "invalid_json", "value_abc", "two_fields", "value_nan", "value_inf",
            "count_x", "matched_above_total", "turn_x"])
    def test_malformed_csv_report_names_the_file(self, tmp_path, text):
        path = tmp_path / "report.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(str(path))):
            read_report(path)
        if text.startswith("{"):
            json_path = path.with_suffix(".json")
            json_path.write_text(text)
            with pytest.raises(DataError, match=re.escape(str(json_path))):
                read_report(json_path)

    def test_cell_validation(self):
        with pytest.raises(ContractError):
            CellStat(3, 2)
        assert CellStat(0, 0).fraction == 0.0
