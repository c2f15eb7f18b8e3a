"""Self-test of the benchmark and its tracer.

    python3 bench/selftest.py

Checks, exiting non-zero on the first failure:

* ``BENCHMARK.json`` lists exactly the metrics ``run.py`` reports;
* the zero-call guard fires when a mapped layer records no calls, so a
  later rename or move of a function cannot silently zero its layer;
* a pinned model whose bytes differ from the manifest is refused;
* the SQL round trip passes a gold tree, counts a tree that names a
  column outside its table as invalid, and fails on malformed SQL;
* every workload's traced run passes: each layer the map expects on that
  workload records calls, and traced and untraced rounds give identical
  outputs (training losses, decode predictions, grad-check errors) at
  64 bits.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import common
import run


def check_benchmark_json() -> None:
    spec = json.loads((common.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert listed == list(run.END_TO_END), f"end_to_end {listed} != {run.END_TO_END}"
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expected = [(name, unit) for name, unit, _src, _w in run.PER_LAYER]
    assert listed == expected, "per_layer list differs from run.PER_LAYER"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def check_zero_call_guard() -> None:
    from tracer import Tracer

    empty = Tracer()
    base = empty.snapshot()
    rnd = {"none": {"work": 1, "seconds": 1.0}}
    for workload in run.WORKLOADS:
        try:
            run.per_layer(workload, empty, base, [rnd], 0.0)
        except common.CheckFailed as err:
            assert "recorded no calls" in str(err)
        else:
            raise AssertionError(f"{workload}: silent layers were not reported")


def check_model_refusal() -> None:
    scratch = common.BENCH_DIR / "out" / "selftest-models"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(common.MODEL_DIR, scratch)
    victim = scratch / json.loads(common.MANIFEST.read_text())["models"]["none"]["file"]
    victim.write_bytes(victim.read_bytes().replace(b'"h":2', b'"h":3', 1))
    saved = common.MODEL_DIR, common.MANIFEST
    common.MODEL_DIR, common.MANIFEST = scratch, scratch / "manifest.json"
    try:
        run._verified_models()
    except common.SetupError as err:
        assert "differs" in str(err) or "hash" in str(err), err
    else:
        raise AssertionError("a tampered model was accepted")
    finally:
        common.MODEL_DIR, common.MANIFEST = saved
        shutil.rmtree(scratch, ignore_errors=True)


def check_round_trip() -> None:
    import dialsql.grammar
    from dialsql.data import gen_synthetic
    from dialsql.grammar import AST, NonTerminal, Production, actions_to_ast, build_grammar

    corpus = gen_synthetic(seed=0, n_dialogues=1, max_turns=1)
    ex = corpus.dialogues[0].turns[0]
    schema = corpus.schemas[corpus.dialogues[0].db_id]
    tree = actions_to_ast(list(ex.gold_actions), build_grammar(schema))
    assert common.round_trip(tree, schema), "a gold tree failed the round trip"

    def aggs(node):
        yield from ((node,) if node.lhs is NonTerminal.AGG else ())
        for child in node.children:
            yield from aggs(child)

    # a column of the tree and a table that does not declare it
    column, other = next((col, t.name) for agg in aggs(tree)
                         for col in agg.children[0].terminals()
                         for t in schema.tables if t.column(col) is None)

    def foreign(node):
        if node.lhs is NonTerminal.AGG and node.children[0].terminals() == (column,):
            return AST(node.production, (node.children[0],
                                         AST(Production(NonTerminal.TAB, (other,)))))
        return AST(node.production, tuple(foreign(c) for c in node.children))

    assert common.names_foreign_column(foreign(tree), schema)
    assert not common.round_trip(foreign(tree), schema), "a foreign column was not invalid"
    render = dialsql.grammar.ast_to_sql
    dialsql.grammar.ast_to_sql = lambda t, s: render(t, s).replace("SELECT", "SELEC", 1)
    try:
        common.round_trip(tree, schema)
    except common.CheckFailed:
        pass
    else:
        raise AssertionError("malformed SQL passed the round trip")
    finally:
        dialsql.grammar.ast_to_sql = render


def check_traced_runs() -> None:
    for workload in run.WORKLOADS:
        proc = subprocess.run([sys.executable, str(common.BENCH_DIR / "run.py"),
                               "--workload", workload, "--seed", "0", "--seconds", "1",
                               "--trace", "1"], capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if lines else {}
        assert proc.returncode == 0 and result.get("correct"), \
            f"{workload} traced run failed:\n{proc.stderr}"
        print(f"selftest: {workload} traced run passed", flush=True)


def main() -> int:
    common.pin_environment()
    from dialsql.nn import set_precision

    set_precision(64)
    for check in (check_benchmark_json, check_zero_call_guard, check_model_refusal,
                  check_round_trip, check_traced_runs):
        try:
            check()
        except AssertionError as err:
            print(f"selftest: {check.__name__} FAILED: {err}", file=sys.stderr)
            return 1
        print(f"selftest: {check.__name__} passed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
