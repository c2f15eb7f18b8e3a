"""Constants and helpers shared by the benchmark scripts.

Import this module before NumPy: :func:`pin_environment` must run
before the first NumPy import so BLAS/OpenMP start with one thread.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
MODEL_DIR = BENCH_DIR / "models"
MANIFEST = MODEL_DIR / "manifest.json"
EXPECTED_DECODE = MODEL_DIR / "expected_decode.json"

# The four dialogue-context methods every timed workload cycles through:
# the plain parser, question concatenation, the turn encoder with tree
# copy, and the turn encoder with SQL attention and action copy.
METHODS = ("none", "concat", "turn+tree_copy", "turn+sql_attn+action_copy")

# Criterion-5 hyperparameters (tests/test_acceptance.py), without the
# in-loop evaluation.
RECIPE = {"embedding_dim": 16, "hidden_dim": 32, "distance_dim": 6,
          "lr": 2e-2, "batch_size": 8, "seed": 0, "h": 2}
MAX_STEPS = 200

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# Shared hosts change speed by a third within minutes: the same code on
# the same seed ran at 40 to 64 training examples per second. A fixed
# kernel of the same kind of work (small NumPy ops and Python
# bookkeeping), timed next to the workload, slows down with it, so every
# time the benchmark reports is scaled to a host on which that kernel
# takes REFERENCE_S.
REFERENCE_S = 0.025
KERNEL_REPEATS = 5


def reference_kernel_s() -> float:
    """Median seconds of the fixed host-speed kernel."""
    import time

    import numpy as np

    w = np.full((128, 32), 0.01)
    times = []
    for _ in range(KERNEL_REPEATS):
        x = np.ones(32)
        log = []
        started = time.perf_counter()
        for i in range(3000):
            z = w @ x
            x = np.tanh(z[:32]) * 0.5 + x * 0.5
            log.append((i, float(x[0])))
            if len(log) > 64:
                log.clear()
        times.append(time.perf_counter() - started)
    return sorted(times)[KERNEL_REPEATS // 2]


class SetupError(Exception):
    """The benchmark cannot run in this checkout."""


class CheckFailed(Exception):
    """An output of the program is wrong."""


def pin_environment() -> None:
    """One BLAS/OpenMP thread, and the package importable from ``src``.

    Must run before NumPy is imported. Raises SetupError when the
    package sources are missing.
    """
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    src = REPO_ROOT / "src"
    if not (src / "dialsql" / "__init__.py").is_file():
        raise SetupError(f"package sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def environment() -> dict:
    import platform

    import numpy as np

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": os.environ["OMP_NUM_THREADS"]}


def decode_reference(model, dialogue, grammar) -> list:
    """Greedy-decode one dialogue turn by turn through the public decoder
    functions, feeding back the model's own predictions.

    Returns one ``ParseResult`` per turn. This is the sequential decode
    that ``predict_corpus`` performs, with the step counts kept.
    """
    from dialsql.context import prepare_inputs
    from dialsql.decoder import encode_turn, greedy_parse

    own: dict = {}
    results = []
    for ex in dialogue.turns:
        inputs = prepare_inputs(dialogue, ex.turn_index, model.config,
                                gold_mode=False, predictions=own)
        encoded = encode_turn(model, inputs.segments, inputs.distances, inputs.precedent)
        result = greedy_parse(model, encoded, grammar, max_steps=MAX_STEPS)
        own[ex.turn_index] = result.actions if result.complete else None
        results.append(result)
    return results


def step_histogram(results) -> dict:
    """Decoder steps per turn -> number of turns, plus incomplete count."""
    hist: dict[int, int] = {}
    for r in results:
        hist[r.steps] = hist.get(r.steps, 0) + 1
    return {"turns": len(results),
            "incomplete": sum(not r.complete for r in results),
            "distinct_lengths": len(hist),
            "steps": {str(k): hist[k] for k in sorted(hist)}}


def names_foreign_column(tree, schema) -> bool:
    """Whether some ``Agg`` node pairs a column with a table that does
    not declare it."""
    from dialsql.grammar import NonTerminal

    stack = [tree]
    while stack:
        node = stack.pop()
        if node.lhs is NonTerminal.AGG:
            column, table = (child.terminals()[0] for child in node.children)
            owners = {t.name.lower() for t in schema.tables_with_column(column)}
            if table.lower() not in owners:
                return True
        stack.extend(node.children)
    return False


def round_trip(tree, schema) -> bool:
    """Render a complete decode to SQL and parse it back.

    The grammar derives a column and its table independently, so a
    decode can name a column outside its table; ``sql_to_ast`` rejects
    its SQL and ``cli.write_predictions`` flags the row invalid. Such a
    tree is a model outcome: returns False. Raises CheckFailed on any
    other failure, and when the parsed tree differs from the decode
    after ``canonicalize``.
    """
    from dialsql.grammar import GrammarError, ast_to_sql, canonicalize, sql_to_ast

    try:
        sql = ast_to_sql(tree, schema)
    except GrammarError as err:
        raise CheckFailed(f"ast_to_sql failed on a complete decode: {err}") from err
    try:
        parsed = sql_to_ast(sql, schema)
    except GrammarError as err:
        if names_foreign_column(tree, schema):
            return False
        raise CheckFailed(f"{sql!r} does not parse back: {err}") from err
    if canonicalize(parsed) != canonicalize(tree):
        raise CheckFailed(f"{sql!r} parses back to another tree")
    return True


def decode_outcome(model, corpus, grammars) -> tuple[dict, list, dict]:
    """Reference-decode every dialogue of ``corpus`` and check the trees.

    Returns the tree per turn key (None when incomplete), the decoder
    steps per turn, and a summary that the pinned models must reproduce
    exactly: turns, steps, incomplete and invalid decodes, exact set
    match, and a SHA-256 over every turn's steps and actions.
    """
    import hashlib

    from dialsql.evaluation import compute_metrics
    from dialsql.grammar import actions_to_ast, format_actions

    trees: dict = {}
    steps: list[int] = []
    invalid = 0
    digest = hashlib.sha256()
    for dialogue in corpus.dialogues:
        grammar = grammars[dialogue.db_id]
        schema = corpus.schemas[dialogue.db_id]
        for ex, result in zip(dialogue.turns, decode_reference(model, dialogue, grammar)):
            tree = actions_to_ast(list(result.actions), grammar) if result.complete else None
            trees[ex.key()] = tree
            steps.append(result.steps)
            digest.update(f"{ex.key()} {result.steps} {result.complete}\n"
                          f"{format_actions(result.actions)}\n".encode())
            if tree is not None and not round_trip(tree, schema):
                invalid += 1
    summary = {"turns": len(steps), "steps": sum(steps),
               "incomplete": sum(tree is None for tree in trees.values()),
               "invalid": invalid,
               "ques_match": compute_metrics(trees, corpus).ques_match.fraction,
               "sha256": digest.hexdigest()}
    return trees, steps, summary
