"""Train the pinned models that the benchmark's decode workload loads.

Decode work depends on the weights: models trained for 1-3 epochs emit
the same tree for every turn, so the decode workload would measure a
degenerate loop. The models are therefore trained once, with a fixed
recipe, and stored next to the benchmark; ``run.py`` refuses to run when
a stored model fails to load or no longer matches the manifest.

Run from the repository root (takes a few minutes on one core):

    python3 bench/train_models.py

It rewrites ``bench/models/*.json`` and ``bench/models/manifest.json``,
then records what the new models decode (``expect_decode.py``).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import common
import expect_decode

TRAIN_CORPUS = {"seed": 5, "n_dialogues": 20, "max_turns": 4}
# Decoding the training corpus says little about held-out behaviour, so
# the manifest also records the histogram on one held-out corpus.
HELDOUT_CORPUS = {"seed": 10_000, "n_dialogues": 40, "max_turns": 4}
EPOCHS = 60


def model_file(method: str) -> str:
    return method.replace("+", "_") + ".json"


def _histogram(model, corpus) -> dict:
    from dialsql.grammar import build_grammar

    grammars = {db: build_grammar(s) for db, s in corpus.schemas.items()}
    results = []
    for d in corpus.dialogues:
        results.extend(common.decode_reference(model, d, grammars[d.db_id]))
    return common.step_histogram(results)


def main() -> int:
    common.pin_environment()

    from dialsql.context import config_hash
    from dialsql.data import gen_synthetic
    from dialsql.estimator import SqlParser
    from dialsql.nn import set_precision

    set_precision(64)
    train = gen_synthetic(**TRAIN_CORPUS)
    heldout = gen_synthetic(**HELDOUT_CORPUS)
    common.MODEL_DIR.mkdir(exist_ok=True)
    models = {}
    for method in common.METHODS:
        started = time.perf_counter()
        fitted = SqlParser(method=method, epochs=EPOCHS, **common.RECIPE).fit(train)
        path = common.MODEL_DIR / model_file(method)
        fitted.save(path)
        entry = {
            "file": path.name,
            "config_hash": config_hash(fitted.model_.config),
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "final_loss": fitted.history_[-1]["loss"],
            "train_steps": _histogram(fitted.model_, train),
            "heldout_steps": _histogram(fitted.model_, heldout),
        }
        models[method] = entry
        print(f"{method}: {time.perf_counter() - started:.0f}s, loss "
              f"{entry['final_loss']:.4f}, held-out distinct lengths "
              f"{entry['heldout_steps']['distinct_lengths']}, incomplete "
              f"{entry['heldout_steps']['incomplete']}/{entry['heldout_steps']['turns']}",
              flush=True)
    manifest = {
        "recipe": {**common.RECIPE, "epochs": EPOCHS, "corpus": TRAIN_CORPUS,
                   "precision": 64, "max_steps": common.MAX_STEPS},
        "heldout_corpus": HELDOUT_CORPUS,
        "environment": common.environment(),
        "models": models,
    }
    common.MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    expect_decode.record()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except common.SetupError as err:
        print(f"train_models: {err}", file=sys.stderr)
        sys.exit(2)
