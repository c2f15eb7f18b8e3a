"""Numeric substrate: tensors, tape autodiff, LSTMs, Adam, grad checks."""

from . import tensor as ops
from .gradcheck import grad_check
from .lstm import LSTMCellParams, lstm_cell, lstm_sequence
from .optim import Adam, Parameter, clip_global_norm, init_uniform
from .tensor import (
    ContractError,
    DimensionError,
    InvalidMaskError,
    NumericError,
    Tape,
    Tensor,
    TensorError,
    get_precision,
    set_precision,
)

__all__ = [
    "ops",
    "grad_check",
    "LSTMCellParams",
    "lstm_cell",
    "lstm_sequence",
    "Adam",
    "Parameter",
    "clip_global_norm",
    "init_uniform",
    "ContractError",
    "DimensionError",
    "InvalidMaskError",
    "NumericError",
    "Tape",
    "Tensor",
    "TensorError",
    "get_precision",
    "set_precision",
]
