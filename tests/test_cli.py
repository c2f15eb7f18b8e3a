import argparse
import inspect
import json
import re
from pathlib import Path

import pytest

from dialsql.cli import main, read_predictions, write_predictions
from dialsql.context import load_checkpoint
from dialsql.data import gen_synthetic, load_corpus, write_dialogues, write_schemas
from dialsql.estimator import predict_corpus
from dialsql.evaluation import compute_metrics, read_report
from dialsql.nn import set_precision

TINY_FLAGS = ["--embedding-dim", "6", "--hidden-dim", "8", "--distance-dim", "4",
              "--epochs", "2", "--h", "2", "--seed", "3"]


@pytest.fixture(autouse=True)
def _f64():
    set_precision(64)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    corpus = gen_synthetic(seed=13, n_dialogues=5, max_turns=3)
    write_dialogues(corpus, root / "dialogues.json")
    write_schemas(corpus.schemas, root / "schemas.json")
    return root


@pytest.fixture(scope="module")
def data_args(data_dir):
    return ["--dialogues", str(data_dir / "dialogues.json"),
            "--schemas", str(data_dir / "schemas.json")]


@pytest.fixture(scope="module")
def checkpoint(data_args, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.ckpt"
    code = main(["train", *data_args, "--out", str(out), *TINY_FLAGS])
    assert code == 0
    return out


class TestTrain:
    def test_writes_checkpoint_and_log(self, checkpoint):
        assert checkpoint.exists()
        log = checkpoint.with_suffix(".log.csv")
        lines = log.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert "seed=3" in lines[0] and "precision=64" in lines[0]
        assert lines[1] == "epoch,loss,grad_norm,clipped,ques_match"
        assert len(lines) == 2 + 2          # comment, header, one row per epoch
        epoch, loss, grad_norm, clipped, ques_match = lines[2].split(",")
        assert epoch == "1" and float(loss) > 0.0 and float(grad_norm) > 0.0
        assert 0.0 <= float(clipped) <= 1.0 and ques_match == ""

    def test_same_seed_reproduces_checkpoint(self, data_args, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        assert main(["train", *data_args, "--out", str(a), *TINY_FLAGS]) == 0
        assert main(["train", *data_args, "--out", str(b), *TINY_FLAGS]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_log_path(self, data_args, tmp_path):
        out, log = tmp_path / "m.ckpt", tmp_path / "train.csv"
        code = main(["train", *data_args, "--out", str(out),
                     "--log", str(log), *TINY_FLAGS, "--epochs", "1"])
        assert code == 0 and log.exists()

    def test_config_file_sets_method(self, data_args, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"method": "gate", "epochs": 1,
                                   "embedding_dim": 6, "hidden_dim": 8,
                                   "distance_dim": 4}))
        out = tmp_path / "m.ckpt"
        assert main(["train", *data_args, "--out", str(out),
                     "--config", str(cfg)]) == 0
        assert load_checkpoint(out).config.question_method == "gate"

    def test_flag_overrides_config_file(self, data_args, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"method": "gate", "epochs": 1,
                                   "embedding_dim": 6, "hidden_dim": 8,
                                   "distance_dim": 4}))
        out = tmp_path / "m.ckpt"
        assert main(["train", *data_args, "--out", str(out),
                     "--config", str(cfg), "--method", "concat"]) == 0
        assert load_checkpoint(out).config.question_method == "concat"


class TestEvaluate:
    def test_reports_written(self, data_args, checkpoint, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(["evaluate", *data_args, "--checkpoint", str(checkpoint),
                     "--out", str(out)])
        assert code == 0
        assert out.with_suffix(".csv").exists()
        assert out.with_suffix(".json").exists()
        assert "ques_match" in capsys.readouterr().out

    def test_checkpoint_not_mutated(self, data_args, checkpoint, tmp_path):
        before = checkpoint.read_bytes()
        main(["evaluate", *data_args, "--checkpoint", str(checkpoint),
              "--out", str(tmp_path / "r")])
        assert checkpoint.read_bytes() == before

    def test_gold_previous_sql_accepted(self, data_args, checkpoint, tmp_path):
        code = main(["evaluate", *data_args, "--checkpoint", str(checkpoint),
                     "--out", str(tmp_path / "r"), "--gold-previous-sql"])
        assert code == 0

    def test_annotations_add_phenomenon_rows(self, data_dir, data_args,
                                             checkpoint, tmp_path):
        records = json.loads((data_dir / "dialogues.json").read_text())
        ann = {records[0]["dialogue_id"]: {"1": "context_independent"}}
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(ann))
        out = tmp_path / "r"
        assert main(["evaluate", *data_args, "--checkpoint", str(checkpoint),
                     "--out", str(out), "--annotations", str(ann_path)]) == 0
        report = read_report(out.with_suffix(".json"))
        assert "context_independent" in report.per_phenomenon


class TestPredict:
    def test_tsv_shape(self, data_dir, data_args, checkpoint, tmp_path):
        out = tmp_path / "pred.tsv"
        assert main(["predict", *data_args, "--checkpoint", str(checkpoint),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "dialogue_id\tturn_index\tsql\tvalid"
        corpus = load_corpus(data_dir / "dialogues.json", data_dir / "schemas.json")
        assert len(lines) == 1 + sum(len(d.turns) for d in corpus.dialogues)
        for line in lines[1:]:
            dialogue_id, turn, sql, valid = line.split("\t")
            assert turn.isdigit() and valid in ("0", "1")
            if valid == "0":
                continue
            assert sql.startswith("SELECT ")

    def test_round_trip_preserves_metrics(self, data_dir, data_args,
                                          checkpoint, tmp_path):
        out = tmp_path / "pred.tsv"
        main(["predict", *data_args, "--checkpoint", str(checkpoint),
              "--out", str(out)])
        corpus = load_corpus(data_dir / "dialogues.json", data_dir / "schemas.json")
        model = load_checkpoint(checkpoint)
        direct = compute_metrics(predict_corpus(model, corpus), corpus)
        from_file = compute_metrics(read_predictions(out, corpus), corpus)
        assert from_file.ques_match == direct.ques_match
        assert from_file.int_match == direct.int_match

    def test_read_predictions_rejects_bad_header(self, data_dir, tmp_path):
        corpus = load_corpus(data_dir / "dialogues.json", data_dir / "schemas.json")
        bad = tmp_path / "bad.tsv"
        bad.write_text("id\tturn\tsql\tok\n")
        from dialsql.data import DataError
        with pytest.raises(DataError, match="header"):
            read_predictions(bad, corpus)

    @pytest.mark.parametrize("edit, expected", [
        (lambda rows: rows[:1] + [rows[1].replace("\t1\t", "\tone\t", 1)] + rows[2:],
         "line 2: turn index 'one' is not a non-negative integer"),
        (lambda rows: rows[:1] + [rows[1].replace("\t1\t", "\t99\t", 1)] + rows[2:],
         "line 2: dialogue {first!r} has no turn 99"),
        (lambda rows: rows[:2] + [rows[1]] + rows[2:],
         "line 3: repeats dialogue {first!r} turn 1"),
    ], ids=["not_an_integer", "not_in_dialogue", "repeated"])
    def test_read_predictions_rejects_bad_turns(self, data_dir, tmp_path, edit, expected):
        corpus = load_corpus(data_dir / "dialogues.json", data_dir / "schemas.json")
        path = tmp_path / "p.tsv"
        write_predictions({}, corpus, path)
        rows = path.read_text().splitlines()
        assert rows[1].startswith(f"{corpus.dialogues[0].dialogue_id}\t1\t")
        path.write_text("\n".join(edit(rows)) + "\n")
        from dialsql.data import DataError
        with pytest.raises(DataError) as err:
            read_predictions(path, corpus)
        assert str(err.value) == f"{path} " + expected.format(
            first=corpus.dialogues[0].dialogue_id)

    def test_incoherent_tree_flagged_invalid(self, data_dir, tmp_path):
        # A grammar tree may pair a column with a table that does not
        # contain it; the writer flags such rows 0 and the reader maps
        # them back to None.
        corpus = load_corpus(data_dir / "dialogues.json", data_dir / "schemas.json")
        from dialsql.grammar import sql_to_ast
        dialogue = corpus.dialogues[0]
        schema = corpus.schemas[dialogue.db_id]
        tables = schema.tables
        foreign = next(c for c in tables[1].columns
                       if all(c.name != d.name for d in tables[0].columns))
        good = sql_to_ast(f"SELECT count({tables[0].columns[0].name}) "
                          f"FROM {tables[0].name}", schema)
        donor = sql_to_ast(f"SELECT count({foreign.name}) FROM {tables[1].name}",
                           schema)
        preds = {ex.key(): None for ex in corpus.examples()}
        preds[(dialogue.dialogue_id, 1)] = _graft(good, _find_col(donor))
        out = tmp_path / "p.tsv"
        write_predictions(preds, corpus, out)
        row = next(l for l in out.read_text().splitlines()
                   if l.startswith(f"{dialogue.dialogue_id}\t1\t"))
        assert row.endswith("\t0") and foreign.name in row
        assert read_predictions(out, corpus)[(dialogue.dialogue_id, 1)] is None


def _find_col(ast):
    from dialsql.grammar import NonTerminal
    if ast.production.lhs is NonTerminal.COL:
        return ast
    for child in ast.children:
        found = _find_col(child)
        if found is not None:
            return found
    return None


def _graft(ast, donor):
    """Replace every node sharing the donor's lhs with the donor."""
    from dialsql.grammar import AST
    if ast.production.lhs is donor.production.lhs:
        return donor
    return AST(ast.production, tuple(_graft(c, donor) for c in ast.children))


class TestOodExperiment:
    def test_outputs_and_turn_table(self, tmp_path_factory, capsys):
        root = tmp_path_factory.mktemp("ood")
        corpus = gen_synthetic(seed=11, n_dialogues=6, max_turns=4)
        write_dialogues(corpus, root / "dialogues.json")
        write_schemas(corpus.schemas, root / "schemas.json")
        out_dir = root / "run"
        code = main(["ood-experiment",
                     "--dialogues", str(root / "dialogues.json"),
                     "--schemas", str(root / "schemas.json"),
                     "--out-dir", str(out_dir), *TINY_FLAGS])
        assert code == 0
        for name in ("model.ckpt", "train.log.csv", "predictions.tsv",
                     "report.csv", "report.json"):
            assert (out_dir / name).exists()
        report = read_report(out_dir / "report.json")
        assert report.turn_match and min(report.turn_match) >= 3
        out = capsys.readouterr().out.splitlines()
        turn_lines = [line for line in out if line.startswith("turn")]
        assert [line.split()[1] for line in turn_lines] == [
            str(turn) for turn in sorted(report.turn_match)]   # the table, printed once

    def test_corpus_without_a_third_turn_is_refused(self, tmp_path, capsys):
        assert main(["synth-data", "--out-dir", str(tmp_path / "data"), "--seed", "2",
                     "--n-dialogues", "2", "--max-turns", "2"]) == 0
        dialogues = tmp_path / "data" / "dialogues.json"
        capsys.readouterr()
        code = main(["ood-experiment", "--dialogues", str(dialogues),
                     "--schemas", str(tmp_path / "data" / "schemas.json"),
                     "--out-dir", str(tmp_path / "run"), *TINY_FLAGS])
        assert code == 1
        err = capsys.readouterr().err
        assert str(dialogues) in err and "third turn" in err
        assert not (tmp_path / "run").exists()


class TestSynthData:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["synth-data", "--out-dir", str(d), "--seed", "21",
                         "--n-dialogues", "3", "--max-turns", "2"]) == 0
        assert (a / "dialogues.json").read_bytes() == (b / "dialogues.json").read_bytes()
        assert (a / "schemas.json").read_bytes() == (b / "schemas.json").read_bytes()

    def test_output_loads(self, tmp_path):
        main(["synth-data", "--out-dir", str(tmp_path), "--seed", "2",
              "--n-dialogues", "3", "--max-turns", "2"])
        corpus = load_corpus(tmp_path / "dialogues.json", tmp_path / "schemas.json")
        assert corpus.coverage() == 1.0


def public_release(tmp_path):
    tables = [{
        "db_id": "concert_singer",
        "table_names_original": ["stadium", "singer"],
        "table_names": ["stadium", "singer"],
        "column_names_original": [[-1, "*"], [0, "Stadium_ID"], [0, "Capacity"],
                                  [1, "Singer_ID"], [1, "Name"], [1, "Age"]],
        "column_names": [[-1, "*"], [0, "stadium id"], [0, "capacity"],
                         [1, "singer id"], [1, "name"], [1, "age"]],
        "column_types": ["text", "number", "number", "number", "text", "number"],
        "primary_keys": [1, 3],
        "foreign_keys": [[3, 1]],
    }]
    dialogues = [{
        "database_id": "concert_singer",
        "interaction": [
            {"utterance": "List all singer names.",
             "query": "SELECT Name FROM singer"},
            {"utterance": "Show their ages too. ",
             "query": "SELECT Name, Age FROM singer"},
        ],
        "final": {"utterance": "names and ages",
                  "query": "SELECT Name, Age FROM singer"},
    }]
    (tmp_path / "tables.json").write_text(json.dumps(tables))
    (tmp_path / "train.json").write_text(json.dumps(dialogues))
    return tmp_path / "train.json", tmp_path / "tables.json"


class TestConvert:
    def test_produces_loadable_corpus(self, tmp_path):
        dialogues, tables = public_release(tmp_path)
        out = tmp_path / "native"
        code = main(["convert", "--dialogues", str(dialogues),
                     "--tables", str(tables), "--out-dir", str(out),
                     "--prefix", "sparc"])
        assert code == 0
        corpus = load_corpus(out / "dialogues.json", out / "schemas.json")
        assert [d.dialogue_id for d in corpus.dialogues] == ["sparc-0000"]
        assert corpus.coverage() == 1.0
        schema = corpus.schemas["concert_singer"]
        assert [t.name for t in schema.tables] == ["stadium", "singer"]
        assert [c.name for c in schema.tables[1].columns] == \
            ["Singer_ID", "Name", "Age"]

    def test_foreign_keys_qualified(self, tmp_path):
        dialogues, tables = public_release(tmp_path)
        out = tmp_path / "native"
        main(["convert", "--dialogues", str(dialogues), "--tables", str(tables),
              "--out-dir", str(out)])
        schemas = json.loads((out / "schemas.json").read_text())
        assert schemas[0]["foreign_keys"] == \
            [["singer.Singer_ID", "stadium.Stadium_ID"]]

    def test_final_entry_dropped(self, tmp_path):
        dialogues, tables = public_release(tmp_path)
        out = tmp_path / "native"
        main(["convert", "--dialogues", str(dialogues), "--tables", str(tables),
              "--out-dir", str(out)])
        records = json.loads((out / "dialogues.json").read_text())
        assert len(records[0]["turns"]) == 2
        assert records[0]["turns"][1]["question"] == "Show their ages too."

    def test_unknown_database_id(self, tmp_path, capsys):
        dialogues, tables = public_release(tmp_path)
        broken = json.loads(dialogues.read_text())
        broken[0]["database_id"] = "missing_db"
        dialogues.write_text(json.dumps(broken))
        code = main(["convert", "--dialogues", str(dialogues),
                     "--tables", str(tables), "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert "missing_db" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, expected", [
        ("column_names_original", [[-1, "*"], [2, "Stadium_ID"]],
         "table index 2 is not in range(2)"),
        ("foreign_keys", [[3, 7]], "foreign-key column index 7 is not in range(6)"),
    ])
    def test_index_out_of_range_names_file_and_entry(self, tmp_path, capsys, field, value,
                                                     expected):
        dialogues, tables = public_release(tmp_path)
        raw = json.loads(tables.read_text())
        raw[0][field] = value
        if field == "column_names_original":
            raw[0]["column_types"] = ["text"] * len(value)
        tables.write_text(json.dumps(raw))
        code = main(["convert", "--dialogues", str(dialogues),
                     "--tables", str(tables), "--out-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{tables}: entry 0: {expected}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value, expected", [
        ("column_names_original", [[-1, "*"], [0]],
         "column_names_original pair 1 is [0], expected two values"),
        ("foreign_keys", [[3, 1], [3]], "foreign_keys pair 1 is [3], expected two values"),
    ])
    def test_short_pair_names_file_entry_and_pair(self, tmp_path, capsys, field, value,
                                                  expected):
        dialogues, tables = public_release(tmp_path)
        raw = json.loads(tables.read_text())
        raw[0][field] = value
        if field == "column_names_original":
            raw[0]["column_types"] = ["text"] * len(value)
        tables.write_text(json.dumps(raw))
        code = main(["convert", "--dialogues", str(dialogues),
                     "--tables", str(tables), "--out-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{tables}: entry 0: {expected}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("which, entry, expected", [
        ("tables", {"table_names_original": []}, "missing key 'db_id'"),
        ("tables", "concert_singer", "expected an object"),
        ("dialogues", {"interaction": []}, "missing key 'database_id'"),
        ("dialogues", {"database_id": "concert_singer", "interaction": [{"query": "x"}]},
         "interaction: entry 0: missing key 'utterance'"),
    ])
    def test_malformed_entry_names_file_and_index(self, tmp_path, capsys, which, entry,
                                                  expected):
        paths = dict(zip(("dialogues", "tables"), public_release(tmp_path)))
        raw = json.loads(paths[which].read_text())
        raw.append(entry)
        paths[which].write_text(json.dumps(raw))
        code = main(["convert", "--dialogues", str(paths["dialogues"]),
                     "--tables", str(paths["tables"]), "--out-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{paths[which]}: entry 1" in err and expected in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("which", ["dialogues", "tables"])
    def test_invalid_json_names_the_file(self, tmp_path, capsys, which):
        paths = dict(zip(("dialogues", "tables"), public_release(tmp_path)))
        paths[which].write_text("[\n{oops")
        code = main(["convert", "--dialogues", str(paths["dialogues"]),
                     "--tables", str(paths["tables"]), "--out-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{paths[which]}: invalid JSON at line 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("which, edit, expected", [
        ("dialogues", lambda raw: raw[0]["interaction"][1].update(utterance=None),
         "entry 0: interaction: entry 1: utterance is None, expected a string"),
        ("dialogues", lambda raw: raw[0]["interaction"][0].update(query=None),
         "entry 0: interaction: entry 0: query is None, expected a string"),
        ("dialogues", lambda raw: raw[0].update(database_id=["concert_singer"]),
         "entry 0: database_id is ['concert_singer'], expected a string"),
        ("tables", lambda raw: raw[0].update(db_id=["concert_singer"]),
         "entry 0: db_id is ['concert_singer'], expected a string"),
        ("tables", lambda raw: raw[0].update(table_names_original=5),
         "entry 0: table_names_original is 5, expected a list of strings"),
        ("tables", lambda raw: raw[0].update(column_types=None),
         "entry 0: column_types is None, expected a list of strings"),
        ("tables", lambda raw: raw[0]["column_names_original"][2].__setitem__(1, None),
         "entry 0: column name is None, expected a string"),
    ], ids=["null_utterance", "null_query", "list_database_id", "list_db_id",
            "int_table_names", "null_column_types", "null_column_name"])
    def test_non_string_field_names_file_and_entry(self, tmp_path, capsys, which, edit,
                                                   expected):
        paths = dict(zip(("dialogues", "tables"), public_release(tmp_path)))
        raw = json.loads(paths[which].read_text())
        edit(raw)
        paths[which].write_text(json.dumps(raw))
        code = main(["convert", "--dialogues", str(paths["dialogues"]),
                     "--tables", str(paths["tables"]), "--out-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{paths[which]}: {expected}" in err
        assert "Traceback" not in err


class TestAnalyze:
    def test_breakdown_files(self, data_dir, data_args, checkpoint, tmp_path,
                             capsys):
        pred = tmp_path / "pred.tsv"
        main(["predict", *data_args, "--checkpoint", str(checkpoint),
              "--out", str(pred)])
        records = json.loads((data_dir / "dialogues.json").read_text())
        ann = {records[0]["dialogue_id"]: {"1": "continuation"},
               records[1]["dialogue_id"]: {"1": "one_anaphora"}}
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(ann))
        out = tmp_path / "pheno"
        code = main(["analyze", *data_args, "--predictions", str(pred),
                     "--annotations", str(ann_path), "--out", str(out)])
        assert code == 0
        report = read_report(out.with_suffix(".csv"))
        assert set(report.per_phenomenon) == {"continuation", "one_anaphora"}
        assert "phenomenon breakdown" in capsys.readouterr().out

    def test_no_labelled_turn_exits_1(self, data_args, checkpoint, tmp_path, capsys):
        pred = tmp_path / "pred.tsv"
        main(["predict", *data_args, "--checkpoint", str(checkpoint),
              "--out", str(pred)])
        ann_path = tmp_path / "ann.json"
        ann_path.write_text("{}")
        out = tmp_path / "pheno"
        code = main(["analyze", *data_args, "--predictions", str(pred),
                     "--annotations", str(ann_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{ann_path}: no scored turn carries a phenomenon label" in err
        assert "Traceback" not in err
        assert not out.with_suffix(".csv").exists()


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, data_args, capsys):
        assert main(["train", *data_args]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["evaluate", "--dialogues", str(tmp_path / "nope.json"),
                     "--schemas", str(tmp_path / "nope2.json"),
                     "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, data_args, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"dropout": 0.5}')
        code = main(["train", *data_args, "--out", str(tmp_path / "m.ckpt"),
                     "--config", str(cfg)])
        assert code == 2
        assert "dropout" in capsys.readouterr().err

    def test_config_type_checked(self, data_args, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"lr": "fast"}')
        code = main(["train", *data_args, "--out", str(tmp_path / "m.ckpt"),
                     "--config", str(cfg)])
        assert code == 2
        assert "lr" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--eval-every", "0", "--target-ques-match", "0.5"], "eval_every must be at least 1, got 0"),
        (["--batch-size", "0"], "batch_size must be at least 1, got 0"),
        (["--lr", "nan"], "lr must be positive and finite, got nan"),
        (["--clip-norm", "nan"], "clip_norm must be positive, got nan"),
        (["--seed", "-1"], "seed must be at least 0, got -1"),
        (["--target-ques-match", "2"], "target_ques_match must be in [0, 1], got 2.0"),
        (["--target-ques-match", "nan"], "target_ques_match must be in [0, 1], got nan"),
    ])
    def test_setting_out_of_range_exits_1(self, data_args, tmp_path, capsys, flags, message):
        code = main(["train", *data_args, "--out", str(tmp_path / "m.ckpt"), *TINY_FLAGS,
                     *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-3"], "seed must be at least 0, got -3"),
        (["--max-turns", "0"], "max_turns must be at least 1, got 0"),
        (["--share-prob", "7"], "share_prob must be in [0, 1], got 7.0"),
    ])
    def test_synth_data_setting_out_of_range_exits_1(self, tmp_path, capsys, flags, message):
        code = main(["synth-data", "--out-dir", str(tmp_path / "data"), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "data").exists()

    def test_config_precision_out_of_range_names_the_file(self, data_args, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"precision": 16}')
        code = main(["train", *data_args, "--out", str(tmp_path / "m.ckpt"),
                     "--config", str(cfg)])
        assert code == 2
        assert f"{cfg}: precision must be 32 or 64" in capsys.readouterr().err

    def test_config_invalid_json(self, data_args, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        code = main(["train", *data_args, "--out", str(tmp_path / "m.ckpt"),
                     "--config", str(cfg)])
        assert code == 2
        capsys.readouterr()

    def test_turn_not_an_object_is_runtime_error(self, data_dir, tmp_path, capsys):
        records = json.loads((data_dir / "dialogues.json").read_text())
        records[0]["turns"] = ["question sql"]
        dialogues = tmp_path / "dialogues.json"
        dialogues.write_text(json.dumps(records))
        code = main(["train", "--dialogues", str(dialogues),
                     "--schemas", str(data_dir / "schemas.json"),
                     "--out", str(tmp_path / "m.ckpt"), *TINY_FLAGS])
        assert code == 1
        err = capsys.readouterr().err
        assert "dialogue #0, turn 1" in err and "Traceback" not in err

    def test_question_not_a_string_is_runtime_error(self, data_dir, tmp_path, capsys):
        records = json.loads((data_dir / "dialogues.json").read_text())
        records[0]["turns"][0]["question"] = 5
        dialogues = tmp_path / "dialogues.json"
        dialogues.write_text(json.dumps(records))
        code = main(["train", "--dialogues", str(dialogues),
                     "--schemas", str(data_dir / "schemas.json"),
                     "--out", str(tmp_path / "m.ckpt"), *TINY_FLAGS])
        assert code == 1
        err = capsys.readouterr().err
        assert "dialogue #0, turn 1: question is 5, expected a string" in err
        assert "Traceback" not in err

    def test_unknown_method_is_runtime_error(self, data_args, tmp_path, capsys):
        code = main(["train", *data_args, "--out", str(tmp_path / "m.ckpt"),
                     "--method", "psychic"])
        assert code == 1
        assert "psychic" in capsys.readouterr().err


# The CLI surface, option by option: strings -> (dest, type, default,
# choices, required). Argparse may list the options in any order.
DATA_OPTIONS = {
    ("--dialogues",): ("dialogues", None, None, None, True),
    ("--schemas",): ("schemas", None, None, None, True),
}
CONFIG_OPTIONS = {
    ("--config",): ("config", None, None, None, False),
    ("--method",): ("method", None, None, None, False),
    ("--h",): ("h", int, None, None, False),
    ("--embedding-dim",): ("embedding_dim", int, None, None, False),
    ("--hidden-dim",): ("hidden_dim", int, None, None, False),
    ("--distance-dim",): ("distance_dim", int, None, None, False),
    ("--lr",): ("lr", float, None, None, False),
    ("--epochs",): ("epochs", int, None, None, False),
    ("--batch-size",): ("batch_size", int, None, None, False),
    ("--clip-norm",): ("clip_norm", float, None, None, False),
    ("--seed",): ("seed", int, None, None, False),
    ("--max-steps",): ("max_steps", int, None, None, False),
    ("--min-freq",): ("min_freq", int, None, None, False),
    ("--embeddings",): ("embeddings", None, None, None, False),
    ("--target-ques-match",): ("target_ques_match", float, None, None, False),
    ("--eval-every",): ("eval_every", int, None, None, False),
    ("--precision",): ("precision", int, None, (32, 64), False),
}
GOLD_PREVIOUS_SQL = {("--gold-previous-sql",): ("gold_previous_sql", None, False, None, False)}
SURFACE = {
    "train": {**DATA_OPTIONS, **CONFIG_OPTIONS,
              ("--out",): ("out", None, None, None, True),
              ("--log",): ("log", None, None, None, False)},
    "evaluate": {**DATA_OPTIONS, **CONFIG_OPTIONS, **GOLD_PREVIOUS_SQL,
                 ("--checkpoint",): ("checkpoint", None, None, None, True),
                 ("--out",): ("out", None, None, None, True),
                 ("--annotations",): ("annotations", None, None, None, False)},
    "predict": {**DATA_OPTIONS, **CONFIG_OPTIONS, **GOLD_PREVIOUS_SQL,
                ("--checkpoint",): ("checkpoint", None, None, None, True),
                ("--out",): ("out", None, None, None, True)},
    "ood-experiment": {**DATA_OPTIONS, **CONFIG_OPTIONS, **GOLD_PREVIOUS_SQL,
                       ("--out-dir",): ("out_dir", None, None, None, True)},
    "synth-data": {("--out-dir",): ("out_dir", None, None, None, True),
                   ("--n-dialogues",): ("n_dialogues", int, 20, None, False),
                   ("--max-turns",): ("max_turns", int, 4, None, False),
                   ("--share-prob",): ("share_prob", float, 0.5, None, False),
                   ("--config",): ("config", None, None, None, False),
                   ("--seed",): ("seed", int, None, None, False),
                   ("--precision",): ("precision", int, None, (32, 64), False)},
    "convert": {("--dialogues",): ("dialogues", None, None, None, True),
                ("--tables",): ("tables", None, None, None, True),
                ("--out-dir",): ("out_dir", None, None, None, True),
                ("--prefix",): ("prefix", None, "dlg", None, False)},
    "analyze": {**DATA_OPTIONS, **CONFIG_OPTIONS,
                ("--predictions",): ("predictions", None, None, None, True),
                ("--annotations",): ("annotations", None, None, None, True),
                ("--out",): ("out", None, None, None, True)},
}

# Each --config key and the JSON values it takes, of a string, an
# integer, a fraction, null and a boolean.
CONFIG_KEYS = {
    "method": {"str"}, "h": {"int"}, "embedding_dim": {"int"}, "hidden_dim": {"int"},
    "distance_dim": {"int"}, "lr": {"int", "float"}, "epochs": {"int"},
    "batch_size": {"int"}, "clip_norm": {"int", "float"}, "seed": {"int"},
    "max_steps": {"int"}, "min_freq": {"int"}, "embeddings": {"str", "null"},
    "target_ques_match": {"int", "float", "null"}, "eval_every": {"int"},
    "precision": {"int"},
}
PROBES = {"str": "x", "int": 64, "float": 0.5, "null": None, "bool": True}

# What resolve_config returns when neither a file nor a flag sets anything.
DEFAULT_SETTINGS = {
    "precision": 64, "method": "none", "h": 5, "embedding_dim": 100, "hidden_dim": 200,
    "distance_dim": 100, "lr": 1e-3, "epochs": 50, "batch_size": 16, "clip_norm": 5.0,
    "seed": 0, "max_steps": 200, "min_freq": 1, "embeddings": None,
    "target_ques_match": None, "eval_every": 1,
}


def _subcommands():
    from dialsql.cli import build_arg_parser
    [sub] = [a for a in build_arg_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestSurface:
    def test_every_option_of_every_subcommand(self):
        commands = _subcommands()
        assert list(commands) == list(SURFACE)
        for name, command in commands.items():
            options = {tuple(a.option_strings): (a.dest, a.type, a.default, a.choices,
                                                 a.required)
                       for a in command._actions if not isinstance(a, argparse._HelpAction)}
            assert options == SURFACE[name], name

    def test_config_keys_and_the_values_they_take(self, tmp_path, capsys):
        from dialsql.cli import resolve_config
        cfg = tmp_path / "c.json"
        for key, kinds in CONFIG_KEYS.items():
            taken = set()
            for kind, value in PROBES.items():
                cfg.write_text(json.dumps({key: value}))
                try:
                    settings = resolve_config(argparse.Namespace(config=str(cfg)))
                except SystemExit as exc:
                    assert exc.code == 2
                else:
                    assert settings[key] == value
                    taken.add(kind)
            assert taken == kinds, key
        capsys.readouterr()

    def test_defaults_that_resolve_config_merges(self):
        from dialsql.cli import resolve_config
        assert resolve_config(argparse.Namespace()) == DEFAULT_SETTINGS


class TestSettingsAgree:
    def test_readme_lists_every_config_key(self):
        from dialsql.estimator import SqlParser
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        start = readme.index("A `--config` file is a flat JSON object")
        listed = readme[readme.index(":", start):readme.index(". Unknown keys", start)]
        assert re.findall(r"`(\w+)`", listed) == [*SqlParser().get_params(), "precision"]

    def test_synth_data_defaults_are_gen_synthetic_defaults(self):
        signature = inspect.signature(gen_synthetic).parameters
        flags = {a.dest: a.default for a in _subcommands()["synth-data"]._actions
                 if a.dest in ("n_dialogues", "max_turns", "share_prob")}
        assert flags == {name: signature[name].default for name in flags}
        assert len(flags) == 3

    def test_parser_window_and_dims_are_context_defaults(self):
        from dialsql.context import ContextConfig
        from dialsql.estimator import SqlParser
        parser, config = SqlParser(), ContextConfig()
        assert parser.h == config.h
        assert (parser.embedding_dim, parser.hidden_dim, parser.distance_dim) == \
            (config.embedding_dim, config.hidden_dim, config.distance_dim)
