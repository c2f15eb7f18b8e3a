"""Method configurations, model assembly, input preparation, checkpoints.

A ContextConfig names how dialogue history enters the model: through
the question side (concatenation, a turn-level encoder, or an
importance gate) and/or through the previous turn's SQL (attention,
action copy, tree copy). The named registry ships as packaged JSON so
experiment sets are reproducible against a fixed manifest.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import checks
from .data import DataError, Dialogue, Vocabulary
from .grammar import Production, agnostic_productions
from .nn import ContractError, LSTMCellParams, Parameter, get_precision, init_uniform

__all__ = [
    "ConfigError",
    "ContextConfig",
    "ModelBundle",
    "TurnInputs",
    "method_names",
    "method_config",
    "method_name",
    "build_model",
    "param_shapes",
    "question_window",
    "prepare_inputs",
    "config_hash",
    "save_checkpoint",
    "load_checkpoint",
]

QUESTION_METHODS = ("none", "concat", "turn", "gate")
SQL_METHODS = ("sql_attn", "action_copy", "tree_copy")

DEFAULT_DIMS = {"embedding": 100, "hidden": 200, "distance": 100}


class ConfigError(Exception):
    """A configuration is malformed or internally inconsistent."""


@dataclass(frozen=True)
class ContextConfig:
    question_method: str = "none"
    sql_methods: frozenset[str] = frozenset()
    h: int = 5                                   # recent-question window
    dims: tuple[tuple[str, int], ...] = tuple(sorted(DEFAULT_DIMS.items()))

    def __post_init__(self):
        if self.question_method not in QUESTION_METHODS:
            raise ConfigError(f"unknown question method {self.question_method!r}")
        bad = set(self.sql_methods) - set(SQL_METHODS)
        if bad:
            raise ConfigError(f"unknown sql methods {sorted(bad)}")
        if checks.of_type(ConfigError, "history window h", self.h, int) < 0:
            raise ConfigError("history window h must be >= 0")
        dims = dict(self.dims)
        if set(dims) != set(DEFAULT_DIMS):
            raise ConfigError(f"dims must have keys {sorted(DEFAULT_DIMS)}")
        for k, v in dims.items():
            if checks.of_type(ConfigError, f"dimension {k}", v, int) <= 0:
                raise ConfigError(f"dimension {k} must be a positive integer")
        if dims["hidden"] % 2:
            raise ConfigError("hidden dimension must be even (split across directions)")

    @property
    def embedding_dim(self) -> int:
        return dict(self.dims)["embedding"]

    @property
    def hidden_dim(self) -> int:
        return dict(self.dims)["hidden"]

    @property
    def distance_dim(self) -> int:
        return dict(self.dims)["distance"]

    @property
    def memory_dim(self) -> int:
        """Width of one attention-memory row."""
        extra = self.distance_dim if self.question_method == "turn" else 0
        return self.hidden_dim + extra

    def to_dict(self) -> dict:
        return {
            "question_method": self.question_method,
            "sql_methods": sorted(self.sql_methods),
            "h": self.h,
            "dims": dict(self.dims),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ContextConfig":
        allowed = {"question_method", "sql_methods", "h", "dims"}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        dims = dict(DEFAULT_DIMS)
        dims.update(checks.of_type(ConfigError, "dims", data.get("dims", {}), dict))
        return cls(
            question_method=data.get("question_method", cls.question_method),
            sql_methods=frozenset(checks.strings(ConfigError, "sql_methods",
                                                 data.get("sql_methods", []))),
            h=data.get("h", cls.h),
            dims=tuple(sorted(dims.items())),
        )


def _manifest() -> dict:
    text = resources.files("dialsql").joinpath("configs/methods.json").read_text("utf-8")
    return json.loads(text)


def method_names() -> list[str]:
    """All registered configurations, 'none' first."""
    return list(_manifest())


def method_config(name: str, h: int = ContextConfig.h,
                  dims: dict | None = None) -> ContextConfig:
    manifest = _manifest()
    if name not in manifest:
        raise ConfigError(f"unknown method {name!r}; choose from {', '.join(manifest)}")
    entry = dict(manifest[name])
    entry["h"] = h
    if dims is not None:
        entry["dims"] = dims
    return ContextConfig.from_dict(entry)


def method_name(config: ContextConfig) -> str:
    """The registered name of ``config``'s methods (at its own h and dims)."""
    for name in method_names():
        if method_config(name, config.h, dict(config.dims)) == config:
            return name
    raise ConfigError(f"no registered method has the config {config.to_dict()}")


def config_hash(config: ContextConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Model assembly


@dataclass
class ModelBundle:
    """Everything a decode needs: parameters, config, vocabulary."""

    config: ContextConfig
    vocab: Vocabulary
    params: dict[str, Parameter]
    _cells: dict[str, LSTMCellParams] = field(default_factory=dict, init=False,
                                              repr=False, compare=False)

    # Row of each schema-agnostic production in ``action_emb``.
    agnostic_index: ClassVar[dict[Production, int]] = {
        p: k for k, p in enumerate(agnostic_productions())}

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def cell(self, prefix: str) -> LSTMCellParams:
        """The LSTM direction stored as ``<prefix>.w_ih/.w_hh/.b``,
        validated once. Parameters change in place, so it stays current."""
        cell = self._cells.get(prefix)
        if cell is None:
            p = self.params
            cell = self._cells[prefix] = LSTMCellParams(
                p[f"{prefix}.w_ih"], p[f"{prefix}.w_hh"], p[f"{prefix}.b"])
        return cell


# Parameters that start at a constant instead of a random draw: the
# linking feature weights and the copy gate's bias.
_CONSTANT = {"link.w_exact": 1.0, "link.w_partial": 0.5, "copy.bc": 0.0}


def param_shapes(config: ContextConfig, vocab: Vocabulary) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter the configuration uses, by name, in
    the model's order. Allocates nothing, so a checkpoint's config can be
    checked against its arrays before any is built."""
    e = config.embedding_dim
    hid = config.hidden_dim
    half = hid // 2
    mem = config.memory_dim
    shapes = {"word_emb": (len(vocab), e),
              "action_emb": (len(ModelBundle.agnostic_index), e),
              "bos_emb": (e,)}

    def lstm(prefix: str, input_size: int, hidden: int) -> None:
        shapes[f"{prefix}.w_ih"] = (4 * hidden, input_size)
        shapes[f"{prefix}.w_hh"] = (4 * hidden, hidden)
        shapes[f"{prefix}.b"] = (4 * hidden,)

    q_input = e + (hid if config.question_method == "turn" else 0)
    lstm("q_enc.fwd", q_input, half)
    lstm("q_enc.bwd", q_input, half)
    lstm("schema_enc", e, e)
    if config.question_method == "turn":
        lstm("turn_enc", hid, hid)
        shapes["dist_emb"] = (config.h + 1, config.distance_dim)
    if config.question_method == "gate":
        shapes.update({"gate.u": (hid, hid), "gate.w": (hid, hid), "gate.v": (hid,)})

    lstm("dec", e + mem + (hid if "sql_attn" in config.sql_methods else 0), hid)
    shapes.update({"attn.we": (mem, hid), "out.wo": (hid + mem, e),
                   "link.w_exact": (), "link.w_partial": ()})
    if config.sql_methods:
        lstm("sql_enc.fwd", e, half)
        lstm("sql_enc.bwd", e, half)
    if "sql_attn" in config.sql_methods:
        shapes["sql_attn.we"] = (hid, hid)
    if "action_copy" in config.sql_methods:
        shapes.update({"copy.wl": (hid, hid), "copy.wc": (hid,), "copy.bc": ()})
    if "tree_copy" in config.sql_methods:
        shapes["tree.wt"] = (hid, hid)
    return shapes


def build_model(config: ContextConfig, vocab: Vocabulary, seed: int) -> ModelBundle:
    """Instantiate exactly the parameters the configuration uses."""
    rng = np.random.default_rng(seed)
    shapes = param_shapes(config, vocab)
    values = {}
    for name, shape in shapes.items():
        if name.endswith(".w_ih"):
            # An LSTM draws its bias first, then sets the forget gate's to one.
            bias = name[:-len("w_ih")] + "b"
            hidden = shape[0] // 4
            values[bias] = init_uniform(rng, shapes[bias])
            values[bias][hidden:2 * hidden] = 1.0
        if name in _CONSTANT:
            values[name] = np.asarray(_CONSTANT[name])
        elif name not in values:
            values[name] = init_uniform(rng, shape)
    return ModelBundle(config, vocab, {name: Parameter(name, values[name]) for name in shapes})


# ---------------------------------------------------------------------------
# Per-turn input preparation


@dataclass
class TurnInputs:
    """What the encoders see for one turn."""

    segments: list[list[str]]        # token sequences, oldest first, current last
    distances: list[int]             # per segment: current turn index minus its own
    precedent: tuple[Production, ...] | None  # previous turn's query, if any


def question_window(dialogue: Dialogue, turn_index: int,
                    config: ContextConfig) -> tuple[list[list[str]], list[int]]:
    """The question segments one turn attends to, oldest first, and each
    segment's distance from the turn: the last ``h`` questions and the
    turn's own, joined into one segment under ``concat``, kept apart
    under ``turn`` and ``gate``, and only the turn's own otherwise.
    Predictions play no part, so a dialogue's windows are known before
    any of its turns is decoded."""
    n = len(dialogue.turns)
    if not 1 <= turn_index <= n:
        raise ContractError(f"turn {turn_index} outside dialogue of {n} turns")
    first = max(1, turn_index - config.h)
    window = [list(dialogue.turns[j - 1].question) for j in range(first, turn_index + 1)]
    if config.question_method == "concat":
        return [[t for seg in window for t in seg]], [0]
    if config.question_method in ("turn", "gate"):
        return window, [turn_index - j for j in range(first, turn_index + 1)]
    return [window[-1]], [0]


def prepare_inputs(dialogue: Dialogue, turn_index: int, config: ContextConfig,
                   gold_mode: bool = True,
                   predictions: dict[int, tuple[Production, ...] | None] | None = None,
                   ) -> TurnInputs:
    """Select the question window (:func:`question_window`) and the
    precedent query for one turn.

    In gold mode the precedent is the previous turn's gold actions
    (teacher forcing); otherwise it is the model's own prediction for
    that turn, read from ``predictions``.
    """
    segments, distances = question_window(dialogue, turn_index, config)
    precedent: tuple[Production, ...] | None = None
    if config.sql_methods and turn_index > 1:
        if gold_mode:
            precedent = dialogue.turns[turn_index - 2].gold_actions
        elif predictions is not None:
            precedent = predictions.get(turn_index - 1)
    return TurnInputs(segments, distances, precedent)


# ---------------------------------------------------------------------------
# Checkpoints

_FORMAT = "dialsql-checkpoint-v1"


def save_checkpoint(bundle: ModelBundle, path: str | Path) -> None:
    """Write a fully deterministic JSON checkpoint (arrays as base64)."""
    arrays = {}
    for name, p in bundle.params.items():
        # ascontiguousarray promotes 0-d arrays to 1-d; keep the true shape
        data = np.ascontiguousarray(p.values)
        arrays[name] = {
            "shape": list(p.values.shape),
            "dtype": data.dtype.name,
            "data": base64.b64encode(data.tobytes()).decode("ascii"),
        }
    blob = {
        "format": _FORMAT,
        "precision": get_precision(),
        "config": bundle.config.to_dict(),
        "config_hash": config_hash(bundle.config),
        "vocab": bundle.vocab.to_list(),
        "params": arrays,
    }
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text, encoding="utf-8")


def load_checkpoint(path: str | Path) -> ModelBundle:
    """Rebuild a bundle; array bytes are restored exactly as saved.

    The parameters must be exactly those :func:`param_shapes` names for
    the saved config, with those shapes, at the active precision.
    """
    blob = checks.read_json(ConfigError, path)
    if not isinstance(blob, dict) or blob.get("format") != _FORMAT:
        raise ConfigError(f"{path}: unrecognized checkpoint format")
    checks.keyed(ConfigError, path, blob, ("precision", "config", "vocab", "params"))
    if blob["precision"] != get_precision():
        raise ConfigError(f"{path}: saved at {blob['precision']}-bit precision, "
                          f"but the active precision is {get_precision()}-bit")
    raw_config = checks.of_type(ConfigError, f"{path}: config", blob["config"], dict)
    tokens = checks.strings(ConfigError, f"{path}: vocab", blob["vocab"])
    try:
        config = ContextConfig.from_dict(raw_config)
        vocab = Vocabulary(tokens)
    except (ConfigError, DataError) as err:
        raise ConfigError(f"{path}: bad config or vocab: {err}") from err
    expected = param_shapes(config, vocab)
    saved = checks.of_type(ConfigError, f"{path}: params", blob["params"], dict)
    missing = sorted(set(expected) - set(saved))
    if missing:
        raise ConfigError(f"{path}: parameter {missing[0]!r} is missing")
    dtype = np.dtype(f"float{get_precision()}")
    params: dict[str, Parameter] = {}
    for name, spec in saved.items():
        where = f"{path}: parameter {name!r}"
        if name not in expected:
            raise ConfigError(f"{path}: unexpected parameter {name!r}")
        checks.keyed(ConfigError, where, spec, ("dtype", "shape"))
        if spec["dtype"] != dtype.name or spec["shape"] != list(expected[name]):
            raise ConfigError(f"{where}: expected {dtype.name} of shape {expected[name]}, "
                              f"got {spec['dtype']} of shape {spec['shape']}")
        data = checks.field(ConfigError, where, spec, "data", str)
        try:
            values = np.frombuffer(base64.b64decode(data, validate=True),
                                   dtype=dtype).reshape(expected[name])
        except ValueError as err:       # not base64, or the wrong number of bytes
            raise ConfigError(f"{where}: {err}") from err
        p = Parameter(name, np.zeros(values.shape, dtype=values.dtype))
        p.values = values.copy()
        params[name] = p
    return ModelBundle(config, vocab, params)
