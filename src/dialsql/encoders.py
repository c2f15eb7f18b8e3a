"""Recurrent encoders feeding the decoder.

All functions take already-embedded inputs, one row per position of a
matrix, so the embedding lookup policy stays with the model. Each
encoder takes a list of such matrices and encodes them all in one fused
:func:`~dialsql.nn.lstm_sequence` pass, one tape entry, returning one
result per matrix, in order; a sequence's values are the same whatever
else shares its pass. Question and action encoders are bidirectional;
the schema-name encoder runs one direction only. The turn-level encoder
is one :func:`~dialsql.nn.lstm_cell` step per question, taken by the
decoder's ``ActionEmbedder``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nn import ContractError, LSTMCellParams, Tensor, lstm_sequence, ops

__all__ = [
    "QuestionEncoding",
    "encode_question",
    "encode_actions",
    "encode_name",
    "gate_importances",
]


@dataclass
class QuestionEncoding:
    """Per-token states plus the summary vector the model needs."""

    states: Tensor                # one row per token: [forward; backward]
    question_vector: Tensor       # [backward at first token; forward at last]

    @property
    def final_state(self) -> Tensor:
        """State at the last token; initializes the decoder."""
        return ops.take_rows(self.states, self.states.shape[0] - 1)


def encode_question(embedded: list[Tensor], fwd: LSTMCellParams, bwd: LSTMCellParams,
                    turn_vecs: list[Tensor] | None = None) -> list[QuestionEncoding]:
    """BiLSTM over each question's token embeddings, one row per token.

    With ``turn_vecs`` (one turn-level state per question), each step's
    input is the embedding followed by its question's vector, in both
    directions.
    """
    return [QuestionEncoding(states, ops.concat([b_end, f_end]))
            for states, (f_end, b_end) in lstm_sequence([fwd, bwd], embedded, turn_vecs)]


def encode_actions(embedded: list[Tensor], fwd: LSTMCellParams,
                   bwd: LSTMCellParams) -> list[tuple[Tensor, Tensor]]:
    """BiLSTM over each action sequence's embeddings; returns one
    ``(states, final)`` per sequence.

    ``states`` holds one row per action, [forward; backward]. ``final``
    is [forward at last; backward at first], the two directions' final
    states, and doubles as the subtree embedding when the input is one
    subtree's action sequence.
    """
    return [(states, ops.concat(ends)) for states, ends in lstm_sequence([fwd, bwd], embedded)]


def encode_name(embedded: list[Tensor], cell: LSTMCellParams) -> list[Tensor]:
    """Final hidden state of a one-direction LSTM over each name's
    tokens, one row per token."""
    return [h for _, (h,) in lstm_sequence([cell], embedded)]


def gate_importances(history_qvecs: list[Tensor], current_qvec: Tensor,
                     u: Tensor, w: Tensor, v: Tensor) -> Tensor:
    """Softmax importance of each recent question.

    Scores follow g = v . tanh(U q_hist + W q_cur); the history list
    must include the current question itself.
    """
    if not history_qvecs:
        raise ContractError("gate needs at least one question vector")
    anchor = ops.matmul(w, current_qvec)
    scores = [ops.matmul(v, ops.tanh(ops.add(ops.matmul(u, q), anchor)))
              for q in history_qvecs]
    return ops.mixture([ops.stack(scores)])[0]
