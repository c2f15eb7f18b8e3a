"""Corpus loading, tokenization, vocabulary, embeddings, splits, and
the synthetic dialogue generator."""

import json
import logging

import numpy as np
import pytest

from dialsql.data import (
    Corpus,
    DataError,
    Dialogue,
    Example,
    Vocabulary,
    build_vocab,
    gen_synthetic,
    load_corpus,
    load_embeddings,
    ood_split,
    synthetic_schemas,
    tokenize,
    write_dialogues,
    write_schemas,
)
from dialsql.grammar import ast_to_actions, ast_to_sql, sql_to_ast


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Show ALL Trucks") == ["show", "all", "trucks"]

    def test_trailing_punctuation_detached(self):
        assert tokenize("capacity?") == ["capacity", "?"]
        assert tokenize("done!?") == ["done", "!", "?"]

    def test_lone_punctuation_kept(self):
        assert tokenize("what ?") == ["what", "?"]
        assert tokenize("?") == ["?"]

    def test_interior_punctuation_untouched(self):
        assert tokenize("max_load isn't") == ["max_load", "isn't"]

    def test_empty(self):
        assert tokenize("   ") == []


class TestVocabulary:
    def test_reserved_indices(self):
        v = Vocabulary(["alpha", "beta"])
        assert v.index("<pad>") == 0
        assert v.index("<unk>") == 1
        assert v.index("<bos>") == 2
        assert v.unk_index == 1
        assert len(v) == 5

    def test_unknown_falls_back_to_unk(self):
        v = Vocabulary(["alpha"])
        assert v.index("zeppelin") == v.unk_index
        assert "zeppelin" not in v
        assert "alpha" in v

    def test_round_trip(self):
        v = Vocabulary(["alpha", "beta", "gamma"])
        assert v.to_list() == ["alpha", "beta", "gamma"]
        again = Vocabulary(v.to_list())
        assert again.index("gamma") == v.index("gamma")

    def test_duplicates_rejected(self):
        with pytest.raises(DataError):
            Vocabulary(["alpha", "alpha"])


def corpus_of_questions(*questions: str) -> Corpus:
    schemas = synthetic_schemas()
    turns = [Example("d0", k, tuple(tokenize(q)), "SELECT capacity FROM trucks", None)
             for k, q in enumerate(questions, start=1)]
    return Corpus([Dialogue("d0", "fleet", turns)], {"fleet": schemas["fleet"]})


class TestBuildVocab:
    def test_frequency_then_lexicographic(self):
        corpus = corpus_of_questions("b a b c", "a b z")
        v = build_vocab(corpus)
        tokens = v.to_list()
        assert tokens[:4] == ["b", "a", "c", "z"]

    def test_schema_tokens_appended_sorted(self):
        corpus = corpus_of_questions("show capacity")
        tokens = build_vocab(corpus).to_list()
        assert tokens[:2] == ["capacity", "show"]
        rest = tokens[2:]
        assert rest == sorted(rest)
        for expected in ("truck", "id", "max", "load", "drivers", "salary"):
            assert expected in rest

    def test_min_freq_filters_questions_not_schema(self):
        corpus = corpus_of_questions("rare word word")
        v = build_vocab(corpus, min_freq=2)
        assert "word" in v
        assert "rare" not in v
        assert "capacity" in v


class TestLoadEmbeddings:
    def test_rows_replaced_and_coverage(self, tmp_path):
        v = Vocabulary(["alpha", "beta", "gamma"])
        matrix = np.zeros((len(v), 3))
        path = tmp_path / "emb.txt"
        path.write_text("alpha 1 2 3\nzeppelin 9 9 9\ngamma 4 5 6\n")
        coverage = load_embeddings(path, v, matrix)
        np.testing.assert_array_equal(matrix[v.index("alpha")], [1, 2, 3])
        np.testing.assert_array_equal(matrix[v.index("gamma")], [4, 5, 6])
        np.testing.assert_array_equal(matrix[v.index("beta")], 0.0)
        assert coverage == 2 / len(v)

    def test_wrong_width_names_line(self, tmp_path):
        v = Vocabulary(["alpha"])
        path = tmp_path / "emb.txt"
        path.write_text("alpha 1 2 3\nalpha 1 2\n")
        with pytest.raises(DataError, match=":2:"):
            load_embeddings(path, v, np.zeros((len(v), 3)))

    def test_unparseable_value_names_line(self, tmp_path):
        v = Vocabulary(["alpha"])
        path = tmp_path / "emb.txt"
        path.write_text("alpha one two three\n")
        with pytest.raises(DataError, match=":1:"):
            load_embeddings(path, v, np.zeros((len(v), 3)))

    def test_repeated_word_counts_its_row_once(self, tmp_path):
        v = Vocabulary(["show", "the"])        # five rows with the three reserved
        path = tmp_path / "emb.txt"
        path.write_text("show 1 2\nshow 3 4\nthe 5 6\n")
        matrix = np.zeros((len(v), 2))
        assert load_embeddings(path, v, matrix) == 2 / 5
        np.testing.assert_array_equal(matrix[v.index("show")], [3, 4])

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, value):
        v = Vocabulary(["alpha", "the"])
        path = tmp_path / "emb.txt"
        path.write_text(f"alpha 1 2\nthe {value} 2\n")
        matrix = np.zeros((len(v), 2))
        with pytest.raises(DataError, match=rf"emb\.txt:2: 'the' has a non-finite value"):
            load_embeddings(path, v, matrix)
        assert np.isfinite(matrix).all()


class TestLoadCorpus:
    def write_inputs(self, tmp_path, records):
        dialogues = tmp_path / "dialogues.json"
        schemas = tmp_path / "schemas.json"
        dialogues.write_text(json.dumps(records))
        write_schemas(synthetic_schemas(), schemas)
        return dialogues, schemas

    def test_loads_dialogue_with_actions(self, tmp_path):
        records = [{
            "dialogue_id": "d0", "db_id": "fleet",
            "turns": [
                {"question": "Show truck capacities?",
                 "sql": "SELECT capacity FROM trucks"},
                {"question": "Just the biggest one.",
                 "sql": "SELECT capacity FROM trucks ORDER BY capacity DESC LIMIT 1",
                 "phenomenon": "superlative"},
            ],
        }]
        corpus = load_corpus(*self.write_inputs(tmp_path, records))
        assert corpus.coverage() == 1.0
        first, second = corpus.dialogues[0].turns
        assert first.question == ("show", "truck", "capacities", "?")
        assert first.gold_actions is not None
        assert second.phenomenon == "superlative"
        assert second.turn_index == 2
        rendered = ast_to_sql(
            sql_to_ast(second.gold_sql, corpus.schemas["fleet"]),
            corpus.schemas["fleet"])
        assert "LIMIT 1" in rendered

    def test_unsupported_sql_kept_with_flag(self, tmp_path, caplog):
        records = [{
            "dialogue_id": "d0", "db_id": "fleet",
            "turns": [
                {"question": "count per truck",
                 "sql": "SELECT count(*) FROM drivers GROUP BY truck_id"},
                {"question": "show capacity", "sql": "SELECT capacity FROM trucks"},
            ],
        }]
        with caplog.at_level(logging.WARNING, logger="dialsql.data"):
            corpus = load_corpus(*self.write_inputs(tmp_path, records))
        first, second = corpus.dialogues[0].turns
        assert not first.supported and first.gold_actions is None
        assert second.supported and second.gold_actions is not None
        assert corpus.coverage() == 0.5
        assert len(list(corpus.supported_examples())) == 1
        assert any("unsupported" in rec.message for rec in caplog.records)

    def test_unknown_db_rejected(self, tmp_path):
        records = [{"dialogue_id": "d0", "db_id": "warehouse", "turns": []}]
        with pytest.raises(DataError, match="warehouse"):
            load_corpus(*self.write_inputs(tmp_path, records))

    def test_missing_keys_rejected(self, tmp_path):
        records = [{"dialogue_id": "d0", "db_id": "fleet",
                    "turns": [{"question": "no sql here"}]}]
        with pytest.raises(DataError, match="turn 1"):
            load_corpus(*self.write_inputs(tmp_path, records))

    def test_turns_not_a_list_rejected(self, tmp_path):
        records = [{"dialogue_id": "d0", "db_id": "fleet", "turns": 5}]
        dialogues, schemas = self.write_inputs(tmp_path, records)
        with pytest.raises(DataError, match=r"dialogues\.json: dialogue #0: turns"):
            load_corpus(dialogues, schemas)

    def test_turn_not_an_object_rejected(self, tmp_path):
        records = [{"dialogue_id": "d0", "db_id": "fleet",
                    "turns": [{"question": "show capacity",
                               "sql": "SELECT capacity FROM trucks"},
                              "question sql"]}]
        dialogues, schemas = self.write_inputs(tmp_path, records)
        with pytest.raises(DataError, match=r"dialogues\.json: dialogue #0, turn 2"):
            load_corpus(dialogues, schemas)

    @pytest.mark.parametrize("key, value", [("question", 5), ("sql", 7)])
    def test_question_or_sql_not_a_string_rejected(self, tmp_path, key, value):
        turn = {"question": "show capacity", "sql": "SELECT capacity FROM trucks"}
        records = [{"dialogue_id": "d0", "db_id": "fleet",
                    "turns": [dict(turn), {**turn, key: value}]}]
        dialogues, schemas = self.write_inputs(tmp_path, records)
        with pytest.raises(DataError, match=rf"dialogues\.json: dialogue #0, turn 2: {key} "
                                            rf"is {value}, expected a string"):
            load_corpus(dialogues, schemas)

    @pytest.mark.parametrize("first_id, second_id", [("a", "a"), (1, "1")])
    def test_repeated_dialogue_id_names_both_records(self, tmp_path, first_id, second_id):
        turn = {"question": "show capacity", "sql": "SELECT capacity FROM trucks"}
        records = [{"dialogue_id": first_id, "db_id": "fleet", "turns": [turn]},
                   {"dialogue_id": second_id, "db_id": "fleet", "turns": [turn]}]
        dialogues, schemas = self.write_inputs(tmp_path, records)
        with pytest.raises(DataError, match=r"dialogues\.json: dialogue #1: dialogue_id "
                                            r"'(a|1)' repeats dialogue #0"):
            load_corpus(dialogues, schemas)

    def test_db_id_not_a_string_rejected(self, tmp_path):
        records = [{"dialogue_id": "d0", "db_id": ["fleet"], "turns": []}]
        dialogues, schemas = self.write_inputs(tmp_path, records)
        with pytest.raises(DataError, match=r"dialogue #0: unknown db_id \['fleet'\]"):
            load_corpus(dialogues, schemas)

    @pytest.mark.parametrize("value, ok", [(None, True), ("superlative", True),
                                           (3, False), (["superlative"], False)])
    def test_phenomenon_must_be_a_string(self, tmp_path, value, ok):
        turn = {"question": "show capacity", "sql": "SELECT capacity FROM trucks",
                "phenomenon": value}
        records = [{"dialogue_id": "d0", "db_id": "fleet", "turns": [turn]}]
        dialogues, schemas = self.write_inputs(tmp_path, records)
        if ok:
            assert load_corpus(dialogues, schemas).dialogues[0].turns[0].phenomenon == value
            return
        with pytest.raises(DataError,
                           match=r"dialogue #0, turn 1: phenomenon is .+, expected a string"):
            load_corpus(dialogues, schemas)

    def test_invalid_json_rejected(self, tmp_path):
        dialogues = tmp_path / "dialogues.json"
        dialogues.write_text("[{broken")
        schemas = tmp_path / "schemas.json"
        write_schemas(synthetic_schemas(), schemas)
        with pytest.raises(DataError, match="invalid JSON"):
            load_corpus(dialogues, schemas)


class TestOodSplit:
    def make_corpus(self, lengths):
        schemas = synthetic_schemas()
        dialogues = []
        for k, n in enumerate(lengths):
            turns = [Example(f"d{k}", t, ("q",), "SELECT capacity FROM trucks", ())
                     for t in range(1, n + 1)]
            dialogues.append(Dialogue(f"d{k}", "fleet", turns))
        return Corpus(dialogues, schemas)

    def test_split_boundaries(self):
        train, evaluation = ood_split(self.make_corpus([1, 2, 3, 4]))
        assert all(ex.turn_index <= 2 for ex in train.examples())
        assert len(list(train.examples())) == 1 + 2 + 2 + 2
        assert [d.dialogue_id for d in evaluation.dialogues] == ["d2", "d3"]

    def test_eval_keeps_context_turns_unscored(self):
        _, evaluation = ood_split(self.make_corpus([4]))
        turns = evaluation.dialogues[0].turns
        assert [ex.scored for ex in turns] == [False, False, True, True]
        assert [ex.turn_index for ex in turns] == [1, 2, 3, 4]

    def test_train_turns_all_scored(self):
        train, _ = ood_split(self.make_corpus([3]))
        assert all(ex.scored for ex in train.examples())


class TestGenSynthetic:
    def test_deterministic(self):
        a = gen_synthetic(11, n_dialogues=6)
        b = gen_synthetic(11, n_dialogues=6)
        assert [d.dialogue_id for d in a.dialogues] == [d.dialogue_id for d in b.dialogues]
        for da, db in zip(a.dialogues, b.dialogues):
            assert [t.gold_sql for t in da.turns] == [t.gold_sql for t in db.turns]
            assert [t.question for t in da.turns] == [t.question for t in db.turns]
        c = gen_synthetic(12, n_dialogues=6)
        assert ([t.gold_sql for d in a.dialogues for t in d.turns]
                != [t.gold_sql for d in c.dialogues for t in d.turns])

    def test_full_grammar_coverage_and_round_trip(self):
        corpus = gen_synthetic(3, n_dialogues=10)
        assert corpus.coverage() == 1.0
        for d in corpus.dialogues:
            schema = corpus.schemas[d.db_id]
            for ex in d.turns:
                parsed = sql_to_ast(ex.gold_sql, schema)
                assert tuple(ast_to_actions(parsed)) == ex.gold_actions
                assert ast_to_sql(parsed, schema) == ex.gold_sql

    def test_alternating_schemas(self):
        corpus = gen_synthetic(4, n_dialogues=4)
        assert [d.db_id for d in corpus.dialogues] == ["campus", "fleet"] * 2

    def test_share_prob_one_reuses_select(self):
        corpus = gen_synthetic(5, n_dialogues=8, share_prob=1.0)
        pairs = 0
        for d in corpus.dialogues:
            schema = corpus.schemas[d.db_id]
            for prev, cur in zip(d.turns, d.turns[1:]):
                a = sql_to_ast(prev.gold_sql, schema).children[0].children[0]
                b = sql_to_ast(cur.gold_sql, schema).children[0].children[0]
                assert a == b
                pairs += 1
        assert pairs > 0

    def test_share_prob_zero_never_forced(self):
        corpus = gen_synthetic(6, n_dialogues=8, share_prob=0.0)
        differing = 0
        for d in corpus.dialogues:
            schema = corpus.schemas[d.db_id]
            for prev, cur in zip(d.turns, d.turns[1:]):
                a = sql_to_ast(prev.gold_sql, schema).children[0].children[0]
                b = sql_to_ast(cur.gold_sql, schema).children[0].children[0]
                differing += a != b
        assert differing > 0

    def test_question_mentions_selected_column(self):
        corpus = gen_synthetic(7, n_dialogues=4)
        for d in corpus.dialogues:
            schema = corpus.schemas[d.db_id]
            for ex in d.turns:
                tree = sql_to_ast(ex.gold_sql, schema)
                agg = tree.children[0].children[0].children[0]
                col = agg.children[0].production.rhs[0]
                for piece in col.split("_"):
                    assert piece in ex.question
                assert ex.question[0] == "show"
                assert ex.question[-1] == "?"

    def test_write_and_reload_round_trip(self, tmp_path):
        corpus = gen_synthetic(8, n_dialogues=6)
        dialogues = tmp_path / "dialogues.json"
        schemas = tmp_path / "schemas.json"
        write_dialogues(corpus, dialogues)
        write_schemas(corpus.schemas, schemas)
        again = load_corpus(dialogues, schemas)
        assert again.coverage() == 1.0
        assert len(again.dialogues) == len(corpus.dialogues)
        for da, db in zip(corpus.dialogues, again.dialogues):
            assert da.db_id == db.db_id
            for ta, tb in zip(da.turns, db.turns):
                assert ta.question == tb.question
                assert ta.gold_sql == tb.gold_sql
                assert ta.gold_actions == tb.gold_actions

    @pytest.mark.parametrize("setting, message", [
        ({"n_dialogues": 0}, "n_dialogues must be at least 1, got 0"),
        ({"seed": -3}, "seed must be at least 0, got -3"),
        ({"max_turns": 0}, "max_turns must be at least 1, got 0"),
        ({"share_prob": 7.0}, "share_prob must be in [0, 1], got 7.0"),
        ({"share_prob": -0.5}, "share_prob must be in [0, 1], got -0.5"),
        ({"share_prob": float("nan")}, "share_prob must be in [0, 1], got nan"),
    ])
    def test_rejects_settings_out_of_range(self, setting, message):
        with pytest.raises(DataError) as err:
            gen_synthetic(**{"seed": 0, **setting})
        assert str(err.value) == message

    def test_accepts_share_prob_bounds_and_one_turn(self):
        for share_prob in (0.0, 1.0):
            corpus = gen_synthetic(0, n_dialogues=2, max_turns=1, share_prob=share_prob)
            assert all(len(d.turns) == 1 for d in corpus.dialogues)
