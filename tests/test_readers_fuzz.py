"""Every file reader, fed structural mutations of a valid file.

A mutation replaces one node of the parsed JSON with a scalar, a list
or an object, deletes one key or list item, or truncates the text; line
files lose a line or have one field replaced. The reader must then
either succeed or raise its own package error naming the file. When it
raises, every CLI command that reads that file must exit 1 (2 for
``--config``) without a traceback.
"""

import argparse
import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dialsql.cli import convert_public, main, read_predictions, resolve_config, \
    write_predictions
from dialsql.context import ConfigError, build_model, load_checkpoint, method_config, \
    save_checkpoint
from dialsql.data import DataError, build_vocab, gen_synthetic, load_corpus, load_embeddings, \
    write_dialogues, write_schemas
from dialsql.evaluation import emit_report, load_annotations, read_report
from dialsql.grammar import sql_to_ast
from dialsql.nn import set_precision
from dialsql.schema import SchemaError, load_schemas

from test_cli import public_release
from test_evaluation import sample_report

DIMS = {"embedding": 4, "hidden": 4, "distance": 2}
SMALL = ["--embedding-dim", "4", "--hidden-dim", "4", "--distance-dim", "2",
         "--epochs", "1", "--h", "2"]

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                    st.sampled_from([0.5, -1.0, 2.0, float("nan"), float("inf")]),
                    st.text(max_size=4))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=2),
                   st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))
FIELDS = st.one_of(st.sampled_from(["", "0", "1", "-1", "99", "x", "nan", "1_0", " 2 ",
                                    "SELECT", "0.5", "٣"]), st.text(max_size=5))


def _nodes(doc, path=()):
    yield path
    children = enumerate(doc) if isinstance(doc, list) else \
        doc.items() if isinstance(doc, dict) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


@st.composite
def json_mutation(draw, text):
    """``text`` with one node replaced or deleted, or truncated."""
    action = draw(st.sampled_from(["replace", "delete", "truncate"]))
    if action == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    nodes = list(_nodes(doc))[action == "delete":]     # the root cannot be deleted
    if not nodes:
        return text[:-1]
    path = draw(st.sampled_from(nodes))
    if not path:
        return json.dumps(draw(VALUES))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(VALUES)
    return json.dumps(doc)


@st.composite
def line_mutation(draw, text, sep):
    """``text`` with one line deleted, one field replaced or dropped, or truncated."""
    lines = text.splitlines()
    action = draw(st.sampled_from(["delete", "field", "drop", "truncate"]))
    if action == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    k = draw(st.integers(0, len(lines) - 1))
    if action == "delete":
        del lines[k]
    else:
        fields = lines[k].split(sep)
        j = draw(st.integers(0, len(fields) - 1))
        if action == "drop":
            del fields[j]
        else:
            fields[j] = draw(FIELDS)
        lines[k] = sep.join(fields)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One valid file of each kind the readers take, by name."""
    set_precision(64)
    root = tmp_path_factory.mktemp("valid")
    corpus = gen_synthetic(seed=4, n_dialogues=2, max_turns=2)
    paths = {name: root / name for name in (
        "dialogues.json", "schemas.json", "model.json", "predictions.tsv", "labels.json",
        "emb.txt", "report.json", "report.csv", "config.json")}
    write_dialogues(corpus, paths["dialogues.json"])
    write_schemas(corpus.schemas, paths["schemas.json"])
    vocab = build_vocab(corpus)
    save_checkpoint(build_model(method_config("turn", h=2, dims=DIMS), vocab, 0),
                    paths["model.json"])
    schemas = {d.dialogue_id: corpus.schemas[d.db_id] for d in corpus.dialogues}
    write_predictions({ex.key(): sql_to_ast(ex.gold_sql, schemas[ex.dialogue_id])
                       for ex in corpus.examples()}, corpus, paths["predictions.tsv"])
    first = corpus.dialogues[0].dialogue_id
    paths["labels.json"].write_text(json.dumps({first: {"1": "continuation"}}))
    paths["emb.txt"].write_text("".join(f"{w} 0.5 -1 2 0\n" for w in vocab.to_list()[:4]))
    emit_report(sample_report(), "json", paths["report.json"])
    emit_report(sample_report(), "csv", paths["report.csv"])
    paths["config.json"].write_text(json.dumps({"method": "none", "epochs": 1, "h": 2,
                                                "lr": 0.01, "embeddings": None}))
    paths["tables"], paths["public"] = public_release(root)[::-1]
    return paths, corpus, vocab


def _commands(f, out, **swap):
    """The argv of each CLI command, reading the files in ``swap`` instead of ``f``'s."""
    data = ["--dialogues", str(swap.get("dialogues.json", f["dialogues.json"])),
            "--schemas", str(swap.get("schemas.json", f["schemas.json"]))]
    model = str(swap.get("model.json", f["model.json"]))
    labels = str(swap.get("labels.json", f["labels.json"]))
    predictions = str(swap.get("predictions.tsv", f["predictions.tsv"]))
    return {
        "train": ["train", *data, *SMALL, "--out", str(out / "m.json"),
                  "--embeddings", str(swap.get("emb.txt", f["emb.txt"]))],
        "evaluate": ["evaluate", *data, "--checkpoint", model, "--annotations", labels,
                     "--out", str(out / "r")],
        "predict": ["predict", *data, "--checkpoint", model, "--out", str(out / "p.tsv")],
        "ood-experiment": ["ood-experiment", *data, *SMALL, "--out-dir", str(out / "ood")],
        "analyze": ["analyze", *data, "--predictions", predictions, "--annotations", labels,
                    "--out", str(out / "a")],
        "convert": ["convert", "--dialogues", str(swap.get("public", f["public"])),
                    "--tables", str(swap.get("tables", f["tables"])),
                    "--out-dir", str(out / "c")],
        "synth-data": ["synth-data", "--config", str(swap.get("config.json", "")),
                       "--n-dialogues", "1", "--out-dir", str(out / "s")],
    }


# file name -> (mutation, reader, its error, the CLI commands that read the file)
CASES = {
    "dialogues.json": ("json", lambda p, f, c, v: load_corpus(p, f["schemas.json"]), DataError,
                       ["train", "evaluate", "predict", "ood-experiment", "analyze"]),
    "schemas.json": ("json", lambda p, f, c, v: load_schemas(p), SchemaError,
                     ["train", "evaluate", "predict", "ood-experiment", "analyze"]),
    "model.json": ("json", lambda p, f, c, v: load_checkpoint(p), ConfigError,
                   ["evaluate", "predict"]),
    "predictions.tsv": ("\t", lambda p, f, c, v: read_predictions(p, c), DataError, ["analyze"]),
    "labels.json": ("json", lambda p, f, c, v: load_annotations(p), DataError,
                    ["evaluate", "analyze"]),
    "emb.txt": (" ", lambda p, f, c, v: load_embeddings(p, v, np.zeros((len(v), 4))),
                DataError, ["train"]),
    "report.json": ("json", lambda p, f, c, v: read_report(p), DataError, []),
    "report.csv": (",", lambda p, f, c, v: read_report(p), DataError, []),
    "tables": ("json", lambda p, f, c, v: convert_public(f["public"], p, p.parent / "c", "x"),
               DataError, ["convert"]),
    "public": ("json", lambda p, f, c, v: convert_public(p, f["tables"], p.parent / "c", "x"),
               DataError, ["convert"]),
    "config.json": ("json", lambda p, f, c, v: resolve_config(argparse.Namespace(config=p)),
                    SystemExit, ["synth-data"]),
}


@pytest.mark.parametrize("name", list(CASES))
def test_reader_succeeds_or_names_the_file(files, tmp_path_factory, name):
    paths, corpus, vocab = files
    kind, reader, error, commands = CASES[name]
    text = paths[name].read_text()
    mutation = json_mutation(text) if kind == "json" else line_mutation(text, kind)
    out = tmp_path_factory.mktemp("out")

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated=mutation)
    def check(mutated):
        path = out / Path(paths[name]).name
        path.write_text(mutated)
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                reader(path, paths, corpus, vocab)
        except error as err:
            if error is SystemExit:
                assert err.code == 2 and str(path) in stderr.getvalue(), stderr.getvalue()
            else:       # convert names the other file when only the two disagree
                assert str(path) in str(err) or name in ("tables", "public") and \
                    str(paths["public" if name == "tables" else "tables"]) in str(err), err
        else:
            return
        for command in commands:
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(_commands(paths, out, **{name: path})[command])
            assert code == (2 if error is SystemExit else 1), (command, stderr.getvalue())
            assert "Traceback" not in stderr.getvalue()

    check()


@pytest.mark.parametrize("name", ["predictions.tsv", "emb.txt"])
def test_non_utf8_byte_names_file_and_offset(files, tmp_path, name):
    paths, corpus, vocab = files
    _, reader, error, commands = CASES[name]
    raw = paths[name].read_bytes()
    at = raw.index(b"\n") + 3          # inside the second line
    path = tmp_path / paths[name].name
    path.write_bytes(raw[:at] + b"\xff" + raw[at:])
    message = f"{path}: not UTF-8 text at byte {at}"
    with pytest.raises(error, match=re.escape(message)):
        reader(path, paths, corpus, vocab)
    for command in commands:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(_commands(paths, tmp_path, **{name: path})[command])
        assert code == 1, (command, stderr.getvalue())
        assert message in stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
