"""Print one SHA-256 per section of the program's observable outputs at
64 bits, then one over all sections.

A refactor that claims unchanged behaviour prints the same digests
before and after; a change that moves only gradients by summation order
changes the ``gradients`` line alone. Run it once against each source
tree and compare::

    PYTHONPATH=<tree>/src python tools/digest.py

The sections, in order:

- ``corpora``: the dialogues and schemas JSON of ``gen_synthetic`` for
  seeds 0-15;
- ``round_trip``: the same files again after a round trip through
  ``load_corpus``;
- ``losses``, ``gradients``, ``greedy``: for all 14 configurations at
  dims 6/8/4, on every turn of four synthetic dialogues, the
  teacher-forced loss, the gradient of every parameter, and the greedy
  action sequence (``max_steps`` 60, each dialogue decoded on the
  model's own previous predictions);
- ``forward``: on the same turns, without a tape, the attention memory,
  the precedent's action states and subtree embeddings, and at every
  teacher-forced step the attention weights and context vectors and the
  output probabilities, as the turn-level output call gives them. A
  forward change of a few ulps can leave the losses and greedy actions
  as they were, but it moves these values;
- ``checkpoints``: the bytes of every checkpoint in ``bench/models``
  loaded and saved again;
- ``fit``: ``SqlParser.fit`` for two configurations, 2 epochs at dims
  6/8/4, ``batch_size`` 3 on seven examples (so each epoch ends in a
  partial batch) and ``clip_norm`` 0.5 (so clipping fires): each epoch's
  ``history_`` row without its ``seconds``, then the bytes of every
  trained parameter. This covers the batch mean, clipping and Adam.

``total`` hashes the section digests in that order.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

from dialsql.context import (
    build_model,
    load_checkpoint,
    method_config,
    method_names,
    prepare_inputs,
    save_checkpoint,
)
from dialsql.data import build_vocab, gen_synthetic, load_corpus, write_dialogues, write_schemas
from dialsql.estimator import SqlParser
from dialsql.decoder import (
    advance_state,
    encode_turn,
    greedy_parse,
    initial_state,
    output_distribution,
    teacher_forced_loss,
)
from dialsql.grammar import Derivation, build_grammar, format_actions
from dialsql.nn import Tape, set_precision

MODEL_DIR = Path(__file__).resolve().parent.parent / "bench" / "models"
DIMS = {"embedding": 6, "hidden": 8, "distance": 4}
SECTIONS = ("corpora", "round_trip", "losses", "gradients", "greedy", "forward",
            "checkpoints", "fit")


def _corpus_bytes(corpus, tmp: Path) -> bytes:
    write_dialogues(corpus, tmp / "dialogues.json")
    write_schemas(corpus.schemas, tmp / "schemas.json")
    return (tmp / "dialogues.json").read_bytes() + (tmp / "schemas.json").read_bytes()


def corpora(h: dict, tmp: Path) -> None:
    for seed in range(16):
        h["corpora"].update(_corpus_bytes(gen_synthetic(seed=seed), tmp))
        reread = load_corpus(tmp / "dialogues.json", tmp / "schemas.json")
        h["round_trip"].update(_corpus_bytes(reread, tmp))


def forward(h, model, encoded, grammar, gold) -> None:
    """Hash the turn's encodings and, along the gold derivation, each
    step's attention outputs and output probabilities, the latter read
    from one turn-level :func:`output_distribution` call as
    ``teacher_forced_loss`` makes it."""
    h.update(encoded.attention.memory.values.tobytes())
    if encoded.copy.states is not None:
        h.update(encoded.copy.states.values.tobytes())
    for _root, _seq, phi in encoded.copy.subtrees:
        h.update(phi.values.tobytes())
    deriv = Derivation(grammar)
    state = initial_state(model, encoded)
    prev = model.params["bos_emb"]
    frontiers, states, weights = [], [], []
    for action in gold:
        [state], [a] = advance_state(model, encoded, state, [prev])
        frontiers.append(deriv.frontier())
        states.append(state)
        weights.append(a)
        deriv.apply(action)
        prev = encoded.embedder(action)
    probs = {}
    for dist in output_distribution(model, grammar, frontiers, states, weights, encoded):
        values = dist.probs.values
        probs.update(zip(dist.steps, [values] if values.ndim == 1 else values))
    for k, (state, a) in enumerate(zip(states, weights)):
        for t in (a, state.context, state.sql_context):
            h.update(b"-" if t is None else t.values.tobytes())
        h.update(probs[k].tobytes())


def teacher_forced_turns():
    """Every digest turn after its teacher-forced backward.

    For all 14 configurations at dims 6/8/4, on every turn of four
    synthetic dialogues, yields ``(method, model, grammar, dialogue,
    ex, inputs, loss)``. Each parameter's ``grad`` then holds that
    turn's gradient, or None where the parameter took no part.
    ``tools/grad_drift.py`` compares these gradients across two trees.
    """
    corpus = gen_synthetic(seed=3, n_dialogues=4, max_turns=4)
    vocab = build_vocab(corpus)
    grammars = {db: build_grammar(s) for db, s in corpus.schemas.items()}
    for method in method_names():
        model = build_model(method_config(method, h=2, dims=DIMS), vocab, seed=0)
        params = model.parameters()
        for dialogue in corpus.dialogues:
            grammar = grammars[dialogue.db_id]
            for ex in dialogue.turns:
                inputs = prepare_inputs(dialogue, ex.turn_index, model.config)
                for p in params:
                    p.grad = None
                with Tape() as tape:
                    encoded = encode_turn(model, inputs.segments, inputs.distances,
                                          inputs.precedent)
                    loss = teacher_forced_loss(model, encoded, grammar,
                                               list(ex.gold_actions))
                    tape.backward(loss)
                yield method, model, grammar, dialogue, ex, inputs, loss


def models(h: dict) -> None:
    current = None
    for method, model, grammar, dialogue, ex, inputs, loss in teacher_forced_turns():
        if method != current:
            for name in ("losses", "gradients", "greedy", "forward"):
                h[name].update(method.encode())
            current, predicted = method, {}     # dialogue -> the model's own predictions
        h["losses"].update(loss.values.tobytes())
        for p in model.parameters():      # None: the parameter took no part
            h["gradients"].update(b"-" if p.grad is None else p.grad.tobytes())
        encoded = encode_turn(model, inputs.segments, inputs.distances, inputs.precedent)
        forward(h["forward"], model, encoded, grammar, ex.gold_actions)

        own = predicted.setdefault(id(dialogue), {})
        inputs = prepare_inputs(dialogue, ex.turn_index, model.config,
                                gold_mode=False, predictions=own)
        encoded = encode_turn(model, inputs.segments, inputs.distances, inputs.precedent)
        result = greedy_parse(model, encoded, grammar, max_steps=60)
        own[ex.turn_index] = result.actions if result.complete else None
        h["greedy"].update(f"{result.complete} {result.steps}\n".encode())
        h["greedy"].update(format_actions(result.actions).encode())


def checkpoints(h: dict, tmp: Path) -> None:
    for path in sorted(MODEL_DIR.glob("*.json")):
        if path.name in ("manifest.json", "expected_decode.json"):
            continue
        h["checkpoints"].update(path.name.encode())
        save_checkpoint(load_checkpoint(path), tmp / "resaved.json")
        h["checkpoints"].update((tmp / "resaved.json").read_bytes())


def fit_corpus():
    """Seven examples: with ``batch_size`` 3, each epoch ends in a partial batch."""
    return gen_synthetic(seed=3, n_dialogues=4, max_turns=3)


def fit_parser(method: str, epochs: int = 2) -> SqlParser:
    """The digest's training recipe, at dims 6/8/4."""
    return SqlParser(method=method, h=2, embedding_dim=6, hidden_dim=8, distance_dim=4,
                     lr=2e-2, epochs=epochs, batch_size=3, clip_norm=0.5)


def fit(h: dict) -> None:
    corpus = fit_corpus()
    for method in ("turn+sql_attn+action_copy", "concat+tree_copy"):
        parser = fit_parser(method).fit(corpus)
        h["fit"].update(method.encode())
        for row in parser.history_:
            h["fit"].update(repr({k: v for k, v in row.items() if k != "seconds"}).encode())
        for p in parser.model_.parameters():
            h["fit"].update(p.values.tobytes())


def main() -> None:
    set_precision(64)
    h = {name: hashlib.sha256() for name in SECTIONS}
    with tempfile.TemporaryDirectory() as tmp:
        corpora(h, Path(tmp))
        models(h)
        checkpoints(h, Path(tmp))
    fit(h)
    total = hashlib.sha256()
    for name in SECTIONS:
        digest = h[name].hexdigest()
        total.update(digest.encode())
        print(f"{name:<12} {digest}")
    print(f"{'total':<12} {total.hexdigest()}")


if __name__ == "__main__":
    main()
