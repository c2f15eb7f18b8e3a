"""Grammar-constrained decoding.

The decoder expands one nonterminal per step. Its output distribution
ranges over the frontier's legal productions, optionally mixed with
copies of actions or whole subtrees from the previous turn's query.

Functions here take the assembled model bundle (parameter dict plus
config and vocabulary) rather than owning parameters, so the same code
drives every method configuration.

The recurrence is one :func:`lstm_cell` call per greedy step or per
teacher-forced turn (:func:`advance_state`), and
:func:`output_distribution` scores a turn's steps in one call, which is
one :func:`ops.output_layer` tape entry.

What only the parameters decide belongs to the training batch or the
decoded dialogue: its :class:`ActionEmbedder` keeps the question
encodings, each production's embedding, each list of productions'
embedding matrix (a frontier's candidates, a precedent query, a
subtree) and, parameter-free, each question token's linking features
with each Col/Tab frontier's names. What the turn decides belongs to
the turn: its :class:`EncodedTurn` holds the attention memory, the
precedent's action states (the ``sql_attn`` memory), the embedder it
was encoded with, the question tokens' word embeddings and for each
frontier one :class:`FrontierRecord` holding its support list with
each production's position in it, its scorer (the linking matrix, or the embedding matrix of its
productions), its stacked subtree embeddings and its copy mask and
aggregation. An embedder encodes each group of sequences it is handed
in one encoder pass: a batch's or a decoded dialogue's questions (one
pass per window position under ``turn``), a batch's schema names, and a
batch's precedent queries with their subtrees. A turn encoded on its own
hands them over as it meets them: its precedent with its subtrees, then
each Col/Tab frontier's missing names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .encoders import (
    QuestionEncoding,
    encode_actions,
    encode_name,
    encode_question,
    gate_importances,
)
from .grammar import (
    Derivation,
    DerivationError,
    Grammar,
    GrammarError,
    IncompleteSequenceError,
    NonTerminal,
    Production,
    extract_subtrees,
)
from .nn import ContractError, Tensor, lstm_cell, ops
from .schema import linking_features, name_tokens

__all__ = [
    "FrontierError",
    "AttentionContext",
    "CopyContext",
    "DecoderState",
    "EncodedTurn",
    "OutputDistribution",
    "ParseResult",
    "SubtreeCandidate",
    "ActionEmbedder",
    "attention_context",
    "initial_state",
    "advance_state",
    "encode_turn",
    "encode_precedent",
    "output_distribution",
    "greedy_parse",
    "teacher_forced_loss",
    "linking_matrix",
]

# Decoding stops after this many actions unless the caller sets a budget.
MAX_STEPS = 200


class FrontierError(GrammarError):
    """No legal candidate exists for the current frontier."""


# ---------------------------------------------------------------------------
# Embeddings


def _embed_tokens(model, tokens: list[str]) -> Tensor:
    """Word embeddings of ``tokens``, one row each."""
    return ops.take_rows(model.params["word_emb"], [model.vocab.index(t) for t in tokens])


class ActionEmbedder:
    """Encodings that depend only on the parameters, each computed once
    per embedder.

    Production embeddings: schema-agnostic productions index a learned
    table; schema-specific ones (column and table rules) are encoded from
    their name tokens, so unseen schemas need no new parameters.
    :meth:`encode_names` encodes the names it is given that it lacks in
    one encoder pass, as :meth:`embed_all` does for a list's names, and
    :meth:`embed_all` builds each list's matrix once.

    Question encodings: :meth:`questions` encodes the segments of the
    attention windows it is given that it lacks, all of them in one pass,
    or under ``turn`` one pass per window position. There a segment's
    input ends in the turn-level state after the segments before it in
    its window, so its encoding is kept per window prefix, with that
    state; otherwise per segment.

    Precedent queries: :meth:`precedents` encodes the queries it is given
    that it lacks, with their subtrees under ``tree_copy``, in one pass,
    and keeps each one's :class:`CopyContext` per action tuple.

    Linking rows: ``link_rows`` maps each tuple of schema names to the
    dict of token rows that :func:`linking_matrix` fills, one per
    distinct question token, so each (token, names) pair is linked once
    per embedder.

    Training shares one embedder across a batch and inference across a
    dialogue: the parameters do not change in between. Before a batch's
    first example ``fit`` encodes its windows, every Col/Tab name of its
    grammars and its precedents; before a dialogue's first turn
    ``predict_corpus`` encodes its windows and, under
    ``gold_previous_sql``, its precedents. Every sequence's encoding
    equals that of a pass of its own. A turn encoded without an embedder
    gets its own.
    """

    def __init__(self, model):
        self.model = model
        self._cache: dict[Production, Tensor] = {}
        self._lists: dict[tuple[Production, ...], Tensor] = {}
        self._questions: dict[tuple, QuestionEncoding] = {}
        self._precedents: dict[tuple[Production, ...], CopyContext] = {}
        self._turn_states: dict[tuple, tuple[Tensor, Tensor]] = {}
        # The linking rows are parameter-free, yet they live no longer
        # than the embedder: not per grammar, not per process. The
        # benchmark's gradcheck workload scores every forward of every
        # round against one grammar, and its per-layer guard fails a
        # traced round in which schema.linking_features records no
        # call. A longer-lived memo would also keep every question a
        # process has linked.
        self.link_rows: dict[tuple[str, ...], dict[str, np.ndarray]] = {}

    def __call__(self, production: Production) -> Tensor:
        emb = self._cache.get(production)
        if emb is None:
            if production.schema_specific:
                self.encode_names([production])
                return self._cache[production]
            emb = self._cache[production] = ops.take_rows(
                self.model.params["action_emb"], self.model.agnostic_index[production])
        return emb

    def embed_all(self, productions) -> Tensor:
        """The embeddings of ``productions`` as one matrix, one row each."""
        key = tuple(productions)
        matrix = self._lists.get(key)
        if matrix is None:
            model = self.model
            if any(p.schema_specific for p in key):
                self.encode_names(key)
                matrix = ops.stack([self(p) for p in key])
            else:
                matrix = ops.take_rows(model.params["action_emb"],
                                       [model.agnostic_index[p] for p in key])
            self._lists[key] = matrix
        return matrix

    def encode_names(self, productions) -> None:
        """Encode the schema names among ``productions`` that it lacks, in one pass."""
        model, cache = self.model, self._cache
        names = list(dict.fromkeys(p for p in productions
                                   if p.schema_specific and p not in cache))
        if names:
            embedded = [_embed_tokens(model, name_tokens(p.rhs[0])) for p in names]
            cache.update(zip(names, encode_name(embedded, model.cell("schema_enc"))))

    def questions(self, windows: list[list[list[str]]]) -> list[list[QuestionEncoding]]:
        """Each window's question encodings, oldest segment first."""
        model = self.model
        turn = model.config.question_method == "turn"
        # A key is the window's prefix up to the segment under turn, and
        # the segment alone otherwise.
        keys = [[tuple(map(tuple, w[:k + 1] if turn else w[k:k + 1])) for k in range(len(w))]
                for w in windows]
        cache = self._questions
        fwd, bwd = model.cell("q_enc.fwd"), model.cell("q_enc.bwd")
        for k in range(max(map(len, windows), default=0) if turn else 1):
            todo = dict.fromkeys(key for ks in keys for key in (ks[k:k + 1] if turn else ks)
                                 if key not in cache)
            if todo:
                tails = [self._turn_state(key[:-1])[0] for key in todo] if turn else None
                cache.update(zip(todo, encode_question(
                    [_embed_tokens(model, key[-1]) for key in todo], fwd, bwd, tails)))
        return [[cache[key] for key in ks] for ks in keys]

    def _turn_state(self, prefix: tuple) -> tuple[Tensor, Tensor]:
        """The turn-level encoder's ``(h, c)`` after the questions of
        ``prefix``: one LSTM cell step per question vector."""
        turn_cell = self.model.cell("turn_enc")
        if not prefix:
            zero = Tensor(np.zeros(turn_cell.hidden_size))
            return zero, zero
        state = self._turn_states.get(prefix)
        if state is None:
            [state], _ = lstm_cell(turn_cell, [self._questions[prefix].question_vector],
                                   self._turn_state(prefix[:-1]))
            self._turn_states[prefix] = state
        return state

    def precedents(self, queries) -> list[CopyContext]:
        """Each precedent query's :class:`CopyContext`, an empty one for
        None or ``()``. The queries it lacks are encoded in one pass, each
        followed by its subtrees when the model copies them."""
        model, cache = self.model, self._precedents
        queries = [tuple(q) if q else () for q in queries]
        todo = [q for q in dict.fromkeys(queries) if q and q not in cache]
        if todo:
            with_subtrees = "tree_copy" in model.config.sql_methods
            trees = [extract_subtrees(q) if with_subtrees else [] for q in todo]
            encoded = iter(encode_actions(
                [self.embed_all(seq) for q, qt in zip(todo, trees)
                 for seq in chain([q], (seq for _, seq in qt))],
                model.cell("sql_enc.fwd"), model.cell("sql_enc.bwd")))
            for q, qt in zip(todo, trees):
                states, _ = next(encoded)
                # zip stops at the end of qt before it draws from encoded.
                cache[q] = CopyContext(q, states, [(root, seq, final) for (root, seq), (_, final)
                                                   in zip(qt, encoded)])
        return [cache[q] if q else EMPTY_COPY_CONTEXT for q in queries]


# ---------------------------------------------------------------------------
# Attention


@dataclass
class AttentionContext:
    """Attendable memory over one or more encoded questions."""

    memory: Tensor                 # rows: encoder state, distance-augmented if used
    tokens: list[str]              # aligned with memory rows, for linking scores
    gate_coeffs: Tensor | None = None  # per-row coefficients, constant within a question


def attention_context(segment_states: list[Tensor], tokens: list[str],
                      distances: list[int] | None = None,
                      distance_table: Tensor | None = None,
                      gate_weights: Tensor | None = None) -> AttentionContext:
    """Assemble the attention memory from per-question state matrices.

    The memory stacks the matrices' rows. With a distance table, each
    row becomes [state; distance_embedding] using that question's
    relative distance. Gate weights (one per question) are expanded to
    one coefficient per row.
    """
    counts = [s.shape[0] for s in segment_states]
    if not sum(counts):
        raise ContractError("attention needs at least one encoder state")
    memory = segment_states[0] if len(segment_states) == 1 else ops.concat(segment_states, 0)
    if distance_table is not None:
        dist_rows = ops.take_rows(distance_table, np.repeat(distances, counts))
        memory = ops.concat([memory, dist_rows], 1)
    if len(tokens) != memory.shape[0]:
        raise ContractError("token list must align with attention rows")
    coeffs = None
    if gate_weights is not None:
        coeffs = ops.expand_by_counts(gate_weights, counts)
    return AttentionContext(memory, tokens, coeffs)


# ---------------------------------------------------------------------------
# Per-turn encoding


@dataclass
class CopyContext:
    """The previous turn's query, prepared for copying."""

    actions: tuple[Production, ...]
    states: Tensor | None                    # per-action encoder states, one row each
    subtrees: list[tuple[NonTerminal, tuple[Production, ...], Tensor]]

    @property
    def empty(self) -> bool:
        return not self.actions


EMPTY_COPY_CONTEXT = CopyContext((), None, [])


@dataclass
class EncodedTurn:
    attention: AttentionContext
    init_state: Tensor             # decoder hidden initialization
    copy: CopyContext              # its states are the sql_attn memory
    embedder: ActionEmbedder       # the one it was encoded with; decoding uses it too
    # What every decoder step of this turn shares, built on first use
    # and, under a tape, recorded once per turn: "tokens" -> the
    # question tokens' word embeddings, and each frontier -> its
    # FrontierRecord. A turn is decoded against one grammar, with fixed
    # parameters. What other turns share too (question encodings and
    # production embeddings) stays with the embedder.
    memo: dict = field(default_factory=dict, repr=False)


def encode_precedent(model, actions: tuple[Production, ...],
                     embedder: ActionEmbedder) -> CopyContext:
    """The previous turn's action sequence, prepared for copy mechanisms
    by ``embedder`` (:meth:`ActionEmbedder.precedents`), which encodes it
    unless it already has."""
    [copy_ctx] = embedder.precedents([actions])
    return copy_ctx


def encode_turn(model, segments: list[list[str]], distances: list[int],
                precedent: tuple[Production, ...] | None,
                embedder: ActionEmbedder | None = None) -> EncodedTurn:
    """Encode the attention window and precedent query for one turn.

    ``segments`` lists token sequences oldest-first, the current
    question last; ``distances`` gives each segment's turn offset from
    the current one (0 for the current question). The question encodings
    and production embeddings come from ``embedder``, which encodes the
    ones it lacks; a batch or dialogue passes its own, and without one the
    turn gets a fresh one. The turn keeps it for its decoding.
    """
    if embedder is None:
        embedder = ActionEmbedder(model)
    config = model.config
    if len(segments) != len(distances):
        raise ContractError("one distance per question segment")
    [encodings] = embedder.questions([segments])

    gate_weights = None
    if config.question_method == "gate" and len(encodings) > 1:
        gate_weights = gate_importances(
            [e.question_vector for e in encodings],
            encodings[-1].question_vector,
            model.params["gate.u"], model.params["gate.w"], model.params["gate.v"])

    dist_table = model.params.get("dist_emb") if config.question_method == "turn" else None
    flat_tokens = [t for seg in segments for t in seg]
    ctx = attention_context([e.states for e in encodings], flat_tokens,
                            distances=distances, distance_table=dist_table,
                            gate_weights=gate_weights)

    copy_ctx = EMPTY_COPY_CONTEXT
    if config.sql_methods and precedent:
        copy_ctx = encode_precedent(model, precedent, embedder)
    return EncodedTurn(ctx, encodings[-1].final_state, copy_ctx, embedder)


# ---------------------------------------------------------------------------
# Decoder state


@dataclass
class DecoderState:
    h: Tensor
    cell: Tensor
    context: Tensor                 # attention context from the previous step
    sql_context: Tensor | None = None   # previous step's precedent-query context


def initial_state(model, encoded: EncodedTurn) -> DecoderState:
    """Hidden state starts at the final encoder state; contexts at zero."""
    hidden = model.config.hidden_dim
    context = Tensor(np.zeros(encoded.attention.memory.shape[1]))
    sql_context = None
    if "sql_attn" in model.config.sql_methods:
        sql_context = Tensor(np.zeros(hidden))
    return DecoderState(encoded.init_state, Tensor(np.zeros(hidden)), context, sql_context)


def advance_state(model, encoded: EncodedTurn, state: DecoderState,
                  inputs: list[Tensor]) -> tuple[list[DecoderState], list[Tensor]]:
    """Step the decoder from ``state`` over ``inputs``, each the previous
    action's embedding, as one :func:`lstm_cell` call: each step's input
    is [previous action; previous context(s)], and its new ``h`` attends
    over the questions and, under ``sql_attn``, the precedent's action
    states. Returns each step's state and question-attention weights
    (reused by linking scores)."""
    ctx = encoded.attention
    attended = [(ctx.memory, model.params["attn.we"], ctx.gate_coeffs)]
    if state.sql_context is None:
        start = (state.h, state.cell, state.context)
    else:
        start = (state.h, state.cell, state.context, state.sql_context)
        copy_states = encoded.copy.states
        attended.append(None if copy_states is None
                        else (copy_states, model.params["sql_attn.we"], None))
    steps, weights = lstm_cell(model.cell("dec"), inputs, start, attended)
    return [DecoderState(*s) for s in steps], weights


# ---------------------------------------------------------------------------
# Output distribution


@dataclass
class SubtreeCandidate:
    root: NonTerminal
    actions: tuple[Production, ...]


@dataclass
class OutputDistribution:
    """Probabilities over every legal candidate at the steps of one
    :func:`output_distribution` call that expand one frontier."""

    support: list                  # Production, then SubtreeCandidate entries (shared: read only)
    steps: list[int]               # the call's indices of those steps, in order
    probs: Tensor                  # one row per step; a vector for one step
    gen_probs: Tensor
    copy_probs: Tensor | None
    p_copy: Tensor | None          # one gate per step; a scalar for one step


def linking_matrix(tokens: list[str], names: tuple[str, ...],
                   rows: dict[str, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact and partial :func:`linking_features` of every (question
    token, schema name) pair, one row per token. Parameter-free: a pure
    function of ``tokens`` and ``names``.

    ``rows`` maps each token to its ``(exact, partial)`` pairs with
    ``names``, one row per name; the call adds the tokens it lacks.
    Without it the call computes each distinct token's row once.
    """
    if rows is None:
        rows = {}
    new = [tok for tok in dict.fromkeys(tokens) if tok not in rows]
    if new:
        pairs = [linking_features(tok, name) for tok in new for name in names]
        block = np.fromiter(chain.from_iterable(pairs), np.float64, 2 * len(pairs))
        rows.update(zip(new, block.reshape(len(new), len(names), 2)))
    grid = np.array([rows[tok] for tok in tokens]).reshape(len(tokens), len(names), 2)
    return grid[..., 0].copy(), grid[..., 1].copy()


@dataclass
class FrontierRecord:
    """What every step of a turn at one frontier shares.

    A Col/Tab frontier is ``linked``: its ``scorer`` is its linking
    matrix, one row per question token. The others' is the embedder's
    matrix of their productions, shared by every turn of a batch or
    dialogue. ``positions`` maps each production to its place in the
    support. Under ``action_copy``, ``copy_mask`` marks the precedent
    actions that expand the frontier, and ``copy_agg`` adds each one's
    copy probability to its support entry; both are None when none does.
    """

    support: list                  # productions, then the precedent's subtrees rooted here
    scorer: Tensor
    linked: bool
    positions: dict[Production, int]
    subtrees: Tensor | None = None            # the subtrees' embeddings, one per row
    copy_mask: np.ndarray | None = None
    copy_agg: np.ndarray | None = None


def _frontier_record(model, grammar: Grammar, encoded: EncodedTurn,
                     frontier: NonTerminal) -> FrontierRecord:
    """The turn's record for ``frontier``, built on its first request."""
    memo = encoded.memo
    record = memo.get(frontier)
    if record is not None:
        return record
    productions = grammar.expansions(frontier)
    if not productions:
        raise FrontierError(f"no production expands {frontier}")
    params = model.params
    embedder = encoded.embedder
    linked = productions[0].schema_specific
    if linked:
        tokens = encoded.attention.tokens
        if "tokens" not in memo:
            memo["tokens"] = _embed_tokens(model, tokens)
        names = tuple(p.rhs[0] for p in productions)
        exact, partial = linking_matrix(tokens, names,
                                        embedder.link_rows.setdefault(names, {}))
        scorer = ops.link_scores(Tensor(exact), Tensor(partial), params["link.w_exact"],
                                 params["link.w_partial"], memo["tokens"],
                                 embedder.embed_all(productions))
    else:
        scorer = embedder.embed_all(productions)     # one row per production
    record = FrontierRecord(list(productions), scorer, linked,
                            {p: i for i, p in enumerate(productions)})

    copy_ctx = encoded.copy
    sql_methods = model.config.sql_methods
    if "tree_copy" in sql_methods:
        rows = [(seq, phi) for root, seq, phi in copy_ctx.subtrees if root == frontier]
        if rows:
            record.support.extend(SubtreeCandidate(frontier, seq) for seq, _ in rows)
            record.subtrees = ops.stack([phi for _, phi in rows])
    if "action_copy" in sql_methods and not copy_ctx.empty:
        mask = np.array([act.lhs == frontier for act in copy_ctx.actions])
        if mask.any():
            agg = np.zeros((len(record.support), len(mask)), dtype=ops.active_dtype())
            for m in np.flatnonzero(mask):
                agg[record.positions[copy_ctx.actions[m]], m] = 1.0
            record.copy_mask, record.copy_agg = mask, agg
    memo[frontier] = record
    return record


def output_distribution(model, grammar: Grammar, frontiers: list[NonTerminal],
                        states: list[DecoderState], weights: list[Tensor],
                        encoded: EncodedTurn) -> list[OutputDistribution]:
    """Distributions over each step's frontier productions plus any
    copyable subtrees, mixed with the action-copy distribution when
    enabled: one per distinct frontier, in the order the steps reach them.

    Step ``k`` expands ``frontiers[k]`` from ``states[k]``, with the
    question-attention weights ``weights[k]``. Schema-specific frontiers
    score ``a · link``; the others ``rows · tanh([h; c] W_o)``. Subtree
    logits are ``phi · (h W_t)``, copy scores ``states · (h W_l)``.
    The whole call is one :func:`ops.output_layer` entry: the products
    every step shares are formed once over the call's steps, then each
    frontier's steps are scored and mixed as one group. A frontier
    reached at one step gets vectors, so a one-step call keeps vectors
    throughout.
    """
    groups: dict[NonTerminal, list[int]] = {}
    for k, frontier in enumerate(frontiers):
        groups.setdefault(frontier, []).append(k)
    records = [_frontier_record(model, grammar, encoded, frontier) for frontier in groups]
    params = model.params
    copy = None
    if "copy.wl" in params:             # read only by the frontiers with a copy mask
        copy = (params["copy.wl"], encoded.copy.states, params["copy.wc"], params["copy.bc"])
    outs = ops.output_layer(
        [s.h for s in states], [s.context for s in states], weights,
        [(steps, r.scorer, r.linked, r.subtrees, r.copy_mask, r.copy_agg)
         for steps, r in zip(groups.values(), records)],
        params.get("out.wo"), params.get("tree.wt"), copy)
    return [OutputDistribution(record.support, steps, *out)
            for steps, record, out in zip(groups.values(), records, outs)]


# ---------------------------------------------------------------------------
# Greedy inference and training loss


@dataclass
class ParseResult:
    actions: tuple[Production, ...]
    complete: bool                 # frontier emptied before hitting max_steps
    steps: int                     # decoder steps taken, forced choices included


def greedy_parse(model, encoded: EncodedTurn, grammar: Grammar,
                 max_steps: int = MAX_STEPS) -> ParseResult:
    """Argmax decoding; ties go to the lowest candidate index.

    A chosen subtree appends its whole action sequence in one step. A
    frontier whose support (its productions and the subtrees rooted
    there) holds one candidate is a forced choice: the decoder still
    steps, but the output layer is not evaluated, since the argmax of
    one candidate is that candidate whatever its score.
    """
    if max_steps < 1:
        raise ContractError("max_steps must be positive")
    embedder = encoded.embedder
    deriv = Derivation(grammar)
    state = initial_state(model, encoded)
    prev = model.params["bos_emb"]
    steps = 0
    while not deriv.is_complete and len(deriv.actions) < max_steps:
        [state], [a] = advance_state(model, encoded, state, [prev])
        frontier = deriv.frontier()
        support = _frontier_record(model, grammar, encoded, frontier).support
        if len(support) == 1:
            chosen = support[0]
        else:
            [dist] = output_distribution(model, grammar, [frontier], [state], [a], encoded)
            chosen = support[int(dist.probs.values.argmax())]
        if isinstance(chosen, SubtreeCandidate):
            deriv.apply_sequence(list(chosen.actions))
            prev = embedder(chosen.actions[-1])
        else:
            deriv.apply(chosen)
            prev = embedder(chosen)
        steps += 1
    return ParseResult(tuple(deriv.actions), deriv.is_complete, steps)


def teacher_forced_loss(model, encoded: EncodedTurn, grammar: Grammar,
                        gold: list[Production]) -> Tensor:
    """Sum of -log P(gold action), feeding gold actions back in: one pass
    over the gold derivation builds each step's frontier record and
    embeds its action, one :func:`advance_state` call steps the decoder
    through the turn, and :func:`output_distribution` scores the whole
    turn in one call."""
    embedder = encoded.embedder
    deriv = Derivation(grammar)
    frontiers: list[NonTerminal] = []
    inputs = [model.params["bos_emb"]]
    targets: list[int] = []
    for step, action in enumerate(gold, start=1):
        if deriv.is_complete:
            raise DerivationError("derivation already complete", step=step)
        frontier = deriv.frontier()
        # Built here, before the step's action is embedded, so that a
        # Col/Tab frontier encodes all its names in one pass.
        target = _frontier_record(model, grammar, encoded, frontier).positions.get(action)
        if target is None:
            raise DerivationError(f"gold action {action} is illegal here", step=step)
        targets.append(target)
        frontiers.append(frontier)
        deriv.apply(action)
        if step < len(gold):            # the last action feeds no step
            inputs.append(embedder(action))
    if not deriv.is_complete:
        raise IncompleteSequenceError("gold sequence leaves the derivation open")
    states, weights = advance_state(model, encoded, initial_state(model, encoded), inputs)
    dists = output_distribution(model, grammar, frontiers, states, weights, encoded)
    # The loss numbers its terms frontier by frontier; add them in step order.
    order = [0] * len(gold)
    for number, k in enumerate(k for dist in dists for k in dist.steps):
        order[k] = number
    return ops.nll([dist.probs for dist in dists],
                   [targets[dist.steps[0]] if dist.probs.values.ndim == 1
                    else [targets[k] for k in dist.steps] for dist in dists], order)
