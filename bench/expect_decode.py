"""Record what the pinned models decode on every held-out decode corpus.

The decode workload fails unless the pinned models reproduce this
record exactly: per corpus and method, the turns, decoder steps,
incomplete and invalid decodes, exact set match, and a SHA-256 over
every turn's steps and actions (``common.decode_outcome``). A change
that stops decodes early or picks other actions therefore fails the
run instead of showing up as a speed-up.

Run from the repository root after ``train_models.py`` (which calls
it), or when a change to the package is meant to change what the
models decode:

    python3 bench/expect_decode.py

It rewrites ``bench/models/expected_decode.json``.
"""

from __future__ import annotations

import json
import sys

import common
import run


def record() -> None:
    from dialsql.grammar import build_grammar
    from dialsql.nn import set_precision

    set_precision(64)
    models, manifest = run._verified_models()
    corpora = {}
    for k in range(run.DECODE_POOL):
        corpus = run.decode_corpus(k)
        grammars = {db: build_grammar(s) for db, s in corpus.schemas.items()}
        corpora[str(k)] = {}
        for method in common.METHODS:
            _trees, steps, outcome = common.decode_outcome(models[method], corpus, grammars)
            corpora[str(k)][method] = outcome
            if k == 0:
                # corpus 0 is the held-out corpus the manifest's histogram was taken on
                heldout = manifest["models"][method]["heldout_steps"]
                histogram = {str(n): steps.count(n) for n in sorted(set(steps))}
                if histogram != heldout["steps"] or outcome["incomplete"] != heldout["incomplete"]:
                    raise common.CheckFailed(f"{method}: held-out steps differ from the manifest")
        print(f"corpus {k}: " + ", ".join(f"{m} {o['steps']} steps, {o['incomplete']} "
                                          f"incomplete, {o['invalid']} invalid"
                                          for m, o in corpora[str(k)].items()), flush=True)
    record = {"corpus": {"seed": f"{run.DECODE_SEED_OFFSET} + seed % {run.DECODE_POOL}",
                         **run.DECODE_CORPUS},
              "models": {m: manifest["models"][m]["sha256"] for m in common.METHODS},
              "corpora": corpora}
    common.EXPECTED_DECODE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")


if __name__ == "__main__":
    try:
        common.pin_environment()
        record()
    except (common.SetupError, common.CheckFailed) as err:
        print(f"expect_decode: {err}", file=sys.stderr)
        sys.exit(2)
