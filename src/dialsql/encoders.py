"""Recurrent encoders feeding the decoder.

All functions take already-embedded inputs, one row per position of a
matrix, so the embedding lookup policy stays with the model. Each
encoder runs one fused :func:`~dialsql.nn.lstm_sequence` pass, one tape
entry, and returns its per-position states as one matrix. Question and
action encoders are bidirectional; the schema-name encoder runs one
direction only. The turn-level encoder is one
:func:`~dialsql.nn.lstm_cell` step per question, taken by the decoder's
``encode_turn``.
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


def encode_question(embedded: Tensor, fwd: LSTMCellParams,
                    bwd: LSTMCellParams, turn_vec: Tensor | None = None) -> QuestionEncoding:
    """BiLSTM over token embeddings, one row per token.

    With ``turn_vec`` (the turn-level state), each step's input is the
    embedding followed by that vector, in both directions.
    """
    states, (f_end, b_end) = lstm_sequence([fwd, bwd], embedded, tail=turn_vec)
    return QuestionEncoding(states, ops.concat([b_end, f_end]))


def encode_actions(embedded: Tensor, fwd: LSTMCellParams,
                   bwd: LSTMCellParams) -> tuple[Tensor, Tensor]:
    """BiLSTM over action embeddings; returns ``(states, final)``.

    ``states`` holds one row per action, [forward; backward]. ``final``
    is [forward at last; backward at first], the two directions' final
    states, and doubles as the subtree embedding when the input is one
    subtree's action sequence.
    """
    states, ends = lstm_sequence([fwd, bwd], embedded)
    return states, ops.concat(ends)


def encode_name(embedded: Tensor, cell: LSTMCellParams) -> Tensor:
    """Final hidden state of a one-direction LSTM over name tokens, one
    row per token."""
    _, (h,) = lstm_sequence([cell], embedded)
    return h


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
