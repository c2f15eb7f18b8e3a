"""Scikit-learn style estimator wrapping model building, training, and
sequential per-dialogue prediction."""

from __future__ import annotations

import inspect
import logging
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .context import (
    DEFAULT_DIMS,
    ContextConfig,
    ModelBundle,
    build_model,
    config_hash,
    load_checkpoint,
    method_config,
    method_name,
    prepare_inputs,
    question_window,
    save_checkpoint,
)
from .data import Corpus, build_vocab, load_embeddings
from .decoder import MAX_STEPS, ActionEmbedder, encode_turn, greedy_parse, \
    teacher_forced_loss
from .evaluation import compute_metrics
from .grammar import AST, Grammar, actions_to_ast, build_grammar
from .nn import Adam, ContractError, Tape, Tensor, clip_global_norm, ops

logger = logging.getLogger(__name__)

__all__ = ["SqlParser", "predict_corpus"]


def _grammars(corpus: Corpus) -> dict[str, Grammar]:
    return {db_id: build_grammar(schema) for db_id, schema in corpus.schemas.items()}


def predict_corpus(model: ModelBundle, corpus: Corpus,
                   gold_previous_sql: bool = False,
                   max_steps: int = MAX_STEPS) -> dict[tuple[str, int], AST | None]:
    """Greedy-decode every turn, dialogues in order, turns sequentially.

    The precedent query fed to copy mechanisms is the model's own
    previous prediction unless ``gold_previous_sql`` asks for teacher
    forcing. Incomplete decodes yield None (scored as wrong).

    Each dialogue has one :class:`ActionEmbedder`, freed with it, which
    its turns share: the question encodings, the production embeddings,
    the precedent encodings and the linking rows. The question windows do
    not depend on predictions, so before the first turn all of them are
    encoded in one pass (one per window position under ``turn``), as
    ``fit`` encodes a batch's; under ``gold_previous_sql`` neither do the
    precedents, which then share one pass too. The encodings equal those
    of a pass per turn.
    """
    grammars = _grammars(corpus)
    out: dict[tuple[str, int], AST | None] = {}
    for dialogue in corpus.dialogues:
        embedder = ActionEmbedder(model)
        embedder.questions([question_window(dialogue, ex.turn_index, model.config)[0]
                            for ex in dialogue.turns])
        if gold_previous_sql:
            embedder.precedents([prepare_inputs(dialogue, ex.turn_index, model.config).precedent
                                 for ex in dialogue.turns])
        grammar = grammars[dialogue.db_id]
        own: dict[int, tuple | None] = {}
        for ex in dialogue.turns:
            inputs = prepare_inputs(dialogue, ex.turn_index, model.config,
                                    gold_mode=gold_previous_sql, predictions=own)
            encoded = encode_turn(model, inputs.segments, inputs.distances,
                                  inputs.precedent, embedder)
            result = greedy_parse(model, encoded, grammar, max_steps=max_steps)
            own[ex.turn_index] = result.actions if result.complete else None
            out[ex.key()] = (actions_to_ast(list(result.actions), grammar)
                             if result.complete else None)
    return out


def _help(default, text: str):
    """A setting's field whose CLI flag shows ``text`` in ``--help``."""
    return field(default=default, metadata={"help": text})


@dataclass(eq=False)
class SqlParser:
    """Context-dependent text-to-SQL parser with a fit/predict surface.

    The fields are the settings, in one list: the constructor takes them
    in this order, get_params/set_params read and write them, and the
    command line makes each a ``--<name>`` flag and a ``--config`` key.
    Fitted state lives in ``model_`` and ``history_``.
    """

    method: str = _help("none", "context method name")
    h: int = _help(ContextConfig.h, "recent-question window size")
    embedding_dim: int = DEFAULT_DIMS["embedding"]
    hidden_dim: int = DEFAULT_DIMS["hidden"]
    distance_dim: int = DEFAULT_DIMS["distance"]
    lr: float = _help(1e-3, "Adam learning rate")
    epochs: int = 50
    batch_size: int = 16
    clip_norm: float = 5.0
    seed: int = 0
    max_steps: int = _help(MAX_STEPS, "decode step budget per turn")
    min_freq: int = _help(inspect.signature(build_vocab).parameters["min_freq"].default,
                          "vocabulary frequency cutoff")
    embeddings: str | None = _help(None, "pretrained embedding text file")
    target_ques_match: float | None = _help(
        None, "stop early once training accuracy reaches this")
    eval_every: int = 1

    # -- sklearn-style parameter plumbing ---------------------------------

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params) -> "SqlParser":
        names = {f.name for f in fields(self)}
        for name, value in params.items():
            if name not in names:
                raise ContractError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    # -- fitting -----------------------------------------------------------

    def _config(self):
        return method_config(self.method, h=self.h,
                             dims={"embedding": self.embedding_dim,
                                   "hidden": self.hidden_dim,
                                   "distance": self.distance_dim})

    def fit(self, corpus: Corpus) -> "SqlParser":
        """Teacher-forced training with Adam and global-norm clipping."""
        if not 0 < self.lr < np.inf:
            raise ContractError(f"lr must be positive and finite, got {self.lr}")
        # clip_norm <= 0 would zero or negate every gradient, and NaN
        # would never clip; inf is the way to never clip.
        if not self.clip_norm > 0:
            raise ContractError(f"clip_norm must be positive, got {self.clip_norm}")
        # A target above 1 or NaN is never reached, and one below 0 stops
        # at the first evaluation.
        target = self.target_ques_match
        if target is not None and not 0 <= target <= 1:
            raise ContractError(f"target_ques_match must be in [0, 1], got {target}")
        for name, least in (("batch_size", 1), ("eval_every", 1), ("max_steps", 1),
                            ("epochs", 0), ("seed", 0)):
            value = getattr(self, name)
            if value < least:
                raise ContractError(f"{name} must be at least {least}, got {value}")
        config = self._config()
        vocab = build_vocab(corpus, min_freq=self.min_freq)
        model = build_model(config, vocab, self.seed)
        if self.embeddings:
            coverage = load_embeddings(self.embeddings, vocab,
                                       model.params["word_emb"].values)
            logger.info("pretrained embeddings cover %.1f%% of the vocabulary",
                        100.0 * coverage)
        grammars = _grammars(corpus)
        items = [(d, ex) for d in corpus.dialogues for ex in d.turns if ex.supported]
        if not items:
            raise ContractError("corpus has no supported examples to train on")

        rng = np.random.default_rng(self.seed)
        optimizer = Adam(model.parameters(), lr=self.lr)
        history: list[dict] = []
        logger.info("training %s (config %s) on %d examples",
                    self.method, config_hash(config), len(items))
        for epoch in range(1, self.epochs + 1):
            started = time.perf_counter()
            order = rng.permutation(len(items))
            epoch_loss = 0.0
            norms = []
            for lo in range(0, len(order), self.batch_size):
                batch = [items[i] for i in order[lo:lo + self.batch_size]]
                optimizer.zero_grad()
                with Tape() as tape:
                    # One embedder per batch: the parameters change only
                    # after it, so every production, question and
                    # precedent is encoded once. The batch's questions,
                    # schema names and precedents take one pass each
                    # (questions: one per window position under turn).
                    # Every gold query expands Agg -> f Col Tab, so each
                    # turn asks for all its grammar's names anyway.
                    embedder = ActionEmbedder(model)
                    batch_inputs = [prepare_inputs(dialogue, ex.turn_index, config)
                                    for dialogue, ex in batch]
                    embedder.questions([inputs.segments for inputs in batch_inputs])
                    embedder.encode_names(
                        p for db_id in dict.fromkeys(dialogue.db_id for dialogue, _ in batch)
                        for p in grammars[db_id].productions if p.schema_specific)
                    embedder.precedents([inputs.precedent for inputs in batch_inputs])
                    total = None
                    for (dialogue, ex), inputs in zip(batch, batch_inputs):
                        encoded = encode_turn(model, inputs.segments, inputs.distances,
                                              inputs.precedent, embedder)
                        loss = teacher_forced_loss(model, encoded,
                                                   grammars[dialogue.db_id],
                                                   list(ex.gold_actions))
                        total = loss if total is None else ops.add(total, loss)
                    tape.backward(ops.scale_by(total, Tensor(1.0 / len(batch))))
                norms.append(clip_global_norm(model.parameters(), self.clip_norm))
                optimizer.step()
                epoch_loss += float(total.values)
            row = {"epoch": epoch, "loss": epoch_loss / len(items),
                   "grad_norm": max(norms),
                   "clipped": sum(n > self.clip_norm for n in norms) / len(norms),
                   "seconds": time.perf_counter() - started}
            if self.target_ques_match is not None and epoch % self.eval_every == 0:
                self.model_ = model
                row["ques_match"] = self.score(corpus, gold_previous_sql=True)
            history.append(row)
            logger.info("epoch %d loss %.4f%s", epoch, row["loss"],
                        f" ques_match {row['ques_match']:.3f}"
                        if "ques_match" in row else "")
            if (self.target_ques_match is not None
                    and row.get("ques_match", -1.0) >= self.target_ques_match):
                break
        self.model_ = model
        self.history_ = history
        return self

    # -- inference ----------------------------------------------------------

    def _fitted(self) -> ModelBundle:
        model = getattr(self, "model_", None)
        if model is None:
            raise ContractError("parser is not fitted; call fit() or load()")
        return model

    def predict(self, corpus: Corpus,
                gold_previous_sql: bool = False) -> dict[tuple[str, int], AST | None]:
        return predict_corpus(self._fitted(), corpus,
                              gold_previous_sql=gold_previous_sql,
                              max_steps=self.max_steps)

    def score(self, corpus: Corpus, gold_previous_sql: bool = False) -> float:
        """Question-level exact set match accuracy."""
        report = compute_metrics(self.predict(corpus, gold_previous_sql), corpus)
        return report.ques_match.fraction

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        save_checkpoint(self._fitted(), path)

    @classmethod
    def load(cls, path) -> "SqlParser":
        model = load_checkpoint(path)
        config = model.config
        parser = cls(method=method_name(config), h=config.h,
                     embedding_dim=config.embedding_dim, hidden_dim=config.hidden_dim,
                     distance_dim=config.distance_dim)
        parser.model_ = model
        parser.history_ = []
        return parser
