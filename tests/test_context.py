"""Configuration registry, model construction, per-turn input
preparation, and checkpoint round trips."""

import json

import numpy as np
import pytest

from dialsql import context
from dialsql.context import (
    ConfigError,
    ContextConfig,
    build_model,
    config_hash,
    load_checkpoint,
    method_config,
    method_name,
    method_names,
    prepare_inputs,
    save_checkpoint,
)
from dialsql.data import Dialogue, Example
from dialsql.decoder import encode_turn, teacher_forced_loss
from dialsql.nn import ContractError, Tape, ops, set_precision

from test_decoder import GRAMMAR, TINY_DIMS, VOCAB, actions_for

ALL_METHODS = [
    "none", "concat", "turn", "gate", "sql_attn", "action_copy", "tree_copy",
    "concat+sql_attn", "concat+action_copy", "concat+tree_copy",
    "turn+sql_attn", "turn+action_copy", "turn+tree_copy",
    "turn+sql_attn+action_copy",
]

BASE_PARAMS = {
    "word_emb", "action_emb", "bos_emb",
    "q_enc.fwd.w_ih", "q_enc.fwd.w_hh", "q_enc.fwd.b",
    "q_enc.bwd.w_ih", "q_enc.bwd.w_hh", "q_enc.bwd.b",
    "schema_enc.w_ih", "schema_enc.w_hh", "schema_enc.b",
    "dec.w_ih", "dec.w_hh", "dec.b",
    "attn.we", "out.wo", "link.w_exact", "link.w_partial",
}
SQL_ENC_PARAMS = {"sql_enc.fwd.w_ih", "sql_enc.fwd.w_hh", "sql_enc.fwd.b",
                  "sql_enc.bwd.w_ih", "sql_enc.bwd.w_hh", "sql_enc.bwd.b"}

EXTRA_PARAMS = {
    "turn": {"turn_enc.w_ih", "turn_enc.w_hh", "turn_enc.b", "dist_emb"},
    "gate": {"gate.u", "gate.w", "gate.v"},
    "sql_attn": SQL_ENC_PARAMS | {"sql_attn.we"},
    "action_copy": SQL_ENC_PARAMS | {"copy.wl", "copy.wc", "copy.bc"},
    "tree_copy": SQL_ENC_PARAMS | {"tree.wt"},
}


def expected_params(method: str) -> set[str]:
    names = set(BASE_PARAMS)
    for part in method.split("+"):
        names |= EXTRA_PARAMS.get(part, set())
    return names


def tiny_model(method: str, seed: int = 0, h: int = 2):
    return build_model(method_config(method, h=h, dims=dict(TINY_DIMS)), VOCAB, seed)


class TestConfig:
    def test_registry_lists_all_methods(self):
        assert sorted(method_names()) == sorted(ALL_METHODS)
        assert len(method_names()) == 14

    def test_method_config_decomposition(self):
        cfg = method_config("turn+sql_attn+action_copy")
        assert cfg.question_method == "turn"
        assert cfg.sql_methods == frozenset({"sql_attn", "action_copy"})
        assert method_config("gate").sql_methods == frozenset()
        assert method_config("action_copy").question_method == "none"

    def test_method_name_inverts_method_config(self):
        for name in method_names():
            assert method_name(method_config(name, h=2, dims=dict(TINY_DIMS))) == name
        assert method_name(ContextConfig.from_dict({})) == "none"

    def test_unregistered_combination_has_no_name(self):
        config = ContextConfig(question_method="gate", sql_methods=frozenset({"tree_copy"}))
        with pytest.raises(ConfigError, match="no registered method"):
            method_name(config)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            method_config("attention_everywhere")

    def test_defaults(self):
        cfg = ContextConfig()
        assert cfg.h == 5
        assert (cfg.embedding_dim, cfg.hidden_dim, cfg.distance_dim) == (100, 200, 100)

    def test_memory_dim_includes_distance_only_for_turn(self):
        dims = dict(TINY_DIMS)
        assert method_config("turn", dims=dims).memory_dim == 4 + 2
        for name in ("none", "concat", "gate", "sql_attn"):
            assert method_config(name, dims=dims).memory_dim == 4

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ContextConfig(question_method="windows")
        with pytest.raises(ConfigError):
            ContextConfig(sql_methods=frozenset({"jpeg"}))
        with pytest.raises(ConfigError):
            ContextConfig(h=-1)
        with pytest.raises(ConfigError):
            method_config("none", dims={"embedding": 4, "hidden": 9, "distance": 2})
        with pytest.raises(ConfigError):
            method_config("none", dims={"embedding": 0, "hidden": 4, "distance": 2})
        with pytest.raises(ConfigError):
            method_config("none", dims={"embeddings": 4, "hidden": 4, "distance": 2})

    def test_dict_round_trip(self):
        cfg = method_config("turn+tree_copy", h=3, dims=dict(TINY_DIMS))
        again = ContextConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        data = method_config("none").to_dict()
        data["dropout"] = 0.5
        with pytest.raises(ConfigError):
            ContextConfig.from_dict(data)

    def test_partial_dims_merge_over_defaults(self):
        cfg = ContextConfig.from_dict({"question_method": "none", "sql_methods": [],
                                       "dims": {"hidden": 50}})
        assert cfg.hidden_dim == 50
        assert cfg.embedding_dim == 100

    def test_config_hash_stable_and_discriminating(self):
        a = method_config("turn", h=5)
        b = method_config("turn", h=5)
        c = method_config("turn", h=4)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 12
        int(config_hash(a), 16)


class TestBuildModel:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_parameter_inventory_is_minimal(self, method):
        model = tiny_model(method)
        assert set(model.params) == expected_params(method)

    def test_shapes_follow_config(self):
        e, hid, d = 3, 4, 2
        model = tiny_model("turn+sql_attn")
        mem = hid + d
        assert model.params["attn.we"].values.shape == (mem, hid)
        assert model.params["out.wo"].values.shape == (hid + mem, e)
        assert model.params["dec.w_ih"].values.shape == (4 * hid, e + mem + hid)
        assert model.params["q_enc.fwd.w_ih"].values.shape == (4 * (hid // 2), e + hid)
        assert model.params["dist_emb"].values.shape == (2 + 1, d)

        plain = tiny_model("gate")
        assert plain.params["attn.we"].values.shape == (hid, hid)
        assert plain.params["dec.w_ih"].values.shape == (4 * hid, e + hid)
        assert plain.params["q_enc.fwd.w_ih"].values.shape == (4 * (hid // 2), e)

    def test_linking_weights_and_forget_bias_init(self):
        model = tiny_model("none")
        assert float(model.params["link.w_exact"].values) == 1.0
        assert float(model.params["link.w_partial"].values) == 0.5
        hid = model.config.hidden_dim
        np.testing.assert_array_equal(model.params["dec.b"].values[hid:2 * hid], 1.0)

    def test_same_seed_reproducible(self):
        a = tiny_model("turn+sql_attn+action_copy", seed=9)
        b = tiny_model("turn+sql_attn+action_copy", seed=9)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].values, b.params[name].values)
        c = tiny_model("turn+sql_attn+action_copy", seed=10)
        assert any(not np.array_equal(a.params[n].values, c.params[n].values)
                   for n in a.params)

    def test_uniform_init_bounds(self):
        model = tiny_model("none", seed=1)
        w = model.params["dec.w_ih"].values
        assert w.min() >= -0.1 and w.max() <= 0.1
        assert w.std() > 0.01


def two_turn_dialogue() -> Dialogue:
    # The first query repeats Agg/Col/Tab rules so copy softmaxes over
    # precedent positions are non-degenerate at later turns.
    turns = [
        Example("d0", 1, ("show", "alpha", "and", "beta", "of", "t1", "?"),
                "SELECT alpha, beta FROM t1",
                actions_for("SELECT alpha, beta FROM t1")),
        Example("d0", 2, ("show", "wide", "load", "alpha", "?"),
                "SELECT alpha FROM t2",
                actions_for("SELECT alpha FROM t2")),
    ]
    return Dialogue("d0", "mini", turns)


def three_turn_dialogue() -> Dialogue:
    turns = two_turn_dialogue().turns
    turns.append(Example("d0", 3, ("show", "alpha", "of", "t1", "?"),
                         "SELECT alpha FROM t1",
                         actions_for("SELECT alpha FROM t1")))
    return Dialogue("d0", "mini", turns)


class TestNoDeadParameters:
    # The turn-level recurrence starts from a zero state, so its
    # hidden-to-hidden weights only see gradient from the second update
    # on: the loss must span a three-question window.
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_every_parameter_reaches_the_loss(self, method):
        model = tiny_model(method, seed=3)
        dialogue = three_turn_dialogue()
        for p in model.parameters():
            p.grad = None
        with Tape() as tape:
            total = None
            for turn in (1, 2, 3):
                inputs = prepare_inputs(dialogue, turn, model.config)
                enc = encode_turn(model, inputs.segments, inputs.distances,
                                  inputs.precedent)
                loss = teacher_forced_loss(model, enc, GRAMMAR,
                                           list(dialogue.turns[turn - 1].gold_actions))
                total = loss if total is None else ops.add(total, loss)
            tape.backward(total)
        dead = [p.name for p in model.parameters()
                if p.grad is None or not np.any(p.grad)]
        assert not dead, f"parameters with no gradient: {dead}"


class TestPrepareInputs:
    def four_turn_dialogue(self) -> Dialogue:
        turns = [
            Example("d1", k, (f"q{k}a", f"q{k}b"), "SELECT alpha FROM t1",
                    actions_for("SELECT alpha FROM t1"))
            for k in range(1, 5)
        ]
        return Dialogue("d1", "mini", turns)

    def test_turn_window_and_distances(self):
        cfg = method_config("turn", h=2, dims=dict(TINY_DIMS))
        inputs = prepare_inputs(self.four_turn_dialogue(), 4, cfg)
        assert inputs.segments == [["q2a", "q2b"], ["q3a", "q3b"], ["q4a", "q4b"]]
        assert inputs.distances == [2, 1, 0]

    def test_window_clipped_at_dialogue_start(self):
        cfg = method_config("turn", h=5, dims=dict(TINY_DIMS))
        inputs = prepare_inputs(self.four_turn_dialogue(), 2, cfg)
        assert inputs.segments == [["q1a", "q1b"], ["q2a", "q2b"]]
        assert inputs.distances == [1, 0]

    def test_concat_merges_window(self):
        cfg = method_config("concat", h=2, dims=dict(TINY_DIMS))
        inputs = prepare_inputs(self.four_turn_dialogue(), 3, cfg)
        assert inputs.segments == [["q1a", "q1b", "q2a", "q2b", "q3a", "q3b"]]
        assert inputs.distances == [0]

    def test_plain_methods_see_current_question_only(self):
        for name in ("none", "sql_attn", "action_copy", "tree_copy"):
            cfg = method_config(name, h=5, dims=dict(TINY_DIMS))
            inputs = prepare_inputs(self.four_turn_dialogue(), 3, cfg)
            assert inputs.segments == [["q3a", "q3b"]]
            assert inputs.distances == [0]

    def test_zero_history_keeps_current_only(self):
        cfg = method_config("turn", h=0, dims=dict(TINY_DIMS))
        inputs = prepare_inputs(self.four_turn_dialogue(), 3, cfg)
        assert inputs.segments == [["q3a", "q3b"]]
        assert inputs.distances == [0]

    def test_gold_precedent(self):
        dialogue = self.four_turn_dialogue()
        cfg = method_config("action_copy", dims=dict(TINY_DIMS))
        inputs = prepare_inputs(dialogue, 3, cfg)
        assert inputs.precedent == dialogue.turns[1].gold_actions
        assert prepare_inputs(dialogue, 1, cfg).precedent is None

    def test_question_only_config_gets_no_precedent(self):
        cfg = method_config("turn", dims=dict(TINY_DIMS))
        inputs = prepare_inputs(self.four_turn_dialogue(), 3, cfg)
        assert inputs.precedent is None

    def test_predicted_precedent(self):
        dialogue = self.four_turn_dialogue()
        cfg = method_config("tree_copy", dims=dict(TINY_DIMS))
        fake = actions_for("SELECT beta FROM t1")
        inputs = prepare_inputs(dialogue, 3, cfg, gold_mode=False,
                                predictions={2: fake})
        assert inputs.precedent == fake
        empty = prepare_inputs(dialogue, 3, cfg, gold_mode=False, predictions={})
        assert empty.precedent is None

    def test_turn_index_bounds(self):
        cfg = method_config("none", dims=dict(TINY_DIMS))
        with pytest.raises(ContractError):
            prepare_inputs(self.four_turn_dialogue(), 0, cfg)
        with pytest.raises(ContractError):
            prepare_inputs(self.four_turn_dialogue(), 5, cfg)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = tiny_model("turn+sql_attn+action_copy", seed=11)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.vocab.to_list() == model.vocab.to_list()
        assert list(loaded.params) == sorted(model.params)      # the order as saved
        for name, p in model.params.items():
            got = loaded.params[name].values
            assert got.dtype == p.values.dtype
            np.testing.assert_array_equal(got, p.values)

    def test_resave_is_byte_identical(self, tmp_path):
        model = tiny_model("concat+tree_copy", seed=12)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_checkpoint(model, first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_unrecognized_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all {")
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_records_config_hash_and_precision(self, tmp_path):
        model = tiny_model("gate", seed=13)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        blob = json.loads(path.read_text())
        assert blob["config_hash"] == config_hash(model.config)
        assert blob["precision"] == 64
        assert blob["format"] == "dialsql-checkpoint-v1"

    def test_precision_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model32.json"
        set_precision(32)
        try:
            save_checkpoint(tiny_model("none", seed=15), path)
        finally:
            set_precision(64)
        with pytest.raises(ConfigError, match=r"model32\.json.*32-bit.*64-bit"):
            load_checkpoint(path)

    def test_32_bit_round_trip_keeps_float32(self, tmp_path):
        path = tmp_path / "model32.json"
        set_precision(32)
        try:
            save_checkpoint(tiny_model("tree_copy", seed=16), path)
            loaded = load_checkpoint(path)
        finally:
            set_precision(64)
        assert {p.values.dtype for p in loaded.parameters()} == {np.dtype(np.float32)}

    @staticmethod
    def _broken(blob):
        """Break one part of a saved checkpoint; returns what the error names."""
        params = blob["params"]
        return [
            ([1], "format"),
            ({k: v for k, v in blob.items() if k != "config"}, "'config'"),
            ({k: v for k, v in blob.items() if k != "params"}, "'params'"),
            ({**blob, "vocab": 5}, "vocab"),
            ({**blob, "config": {**blob["config"], "dims": 5}}, "config"),
            ({**blob, "params": {k: v for k, v in params.items() if k != "out.wo"}},
             "'out.wo'"),
            ({**blob, "params": {**params, "out.wo": {**params["out.wo"], "shape": [3, 4]}}},
             "'out.wo'"),
            ({**blob, "params": {**params, "out.wo": params["bos_emb"]}}, "'out.wo'"),
            ({**blob, "params": {**params, "out.wo": {**params["out.wo"], "dtype": "int64"}}},
             "'out.wo'"),
            ({**blob, "params": {**params, "out.wo": 5}}, "'out.wo'"),
            ({**blob, "params": {**params, "extra": params["bos_emb"]}}, "'extra'"),
        ]

    def test_malformed_checkpoint_names_file_and_key(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(tiny_model("none", seed=17), path)
        blob = json.loads(path.read_text())
        for k, (broken, name) in enumerate(self._broken(blob)):
            bad = tmp_path / f"bad{k}.json"
            bad.write_text(json.dumps(broken))
            with pytest.raises(ConfigError) as exc:
                load_checkpoint(bad)
            assert str(bad) in str(exc.value) and name in str(exc.value), exc.value

    @pytest.mark.parametrize("method, key, value", [
        ("turn", "h", 1.5), ("none", "embedding", True),
        ("concat", "h", True), ("none", "distance", True),
    ])
    def test_ill_typed_config_names_the_file(self, tmp_path, method, key, value):
        path = tmp_path / "model.json"
        save_checkpoint(tiny_model(method, seed=18), path)
        blob = json.loads(path.read_text())
        (blob["config"] if key == "h" else blob["config"]["dims"])[key] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)
        assert f"{key} is {value!r}, expected an integer" in str(exc.value)

    def test_huge_dims_rejected_before_any_allocation(self, tmp_path):
        import tracemalloc

        path = tmp_path / "model.json"
        save_checkpoint(tiny_model("turn+sql_attn", seed=19), path)
        blob = json.loads(path.read_text())
        blob["config"]["dims"]["hidden"] = 10 ** 6
        path.write_text(json.dumps(blob))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as exc:
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(path) in str(exc.value)
        assert peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_shapes_are_those_of_the_built_model(self):
        for method in ALL_METHODS:
            model = tiny_model(method)
            shapes = context.param_shapes(model.config, model.vocab)
            assert list(shapes) == list(model.params)
            assert shapes == {name: p.shape for name, p in model.params.items()}

    def test_loaded_model_decodes_identically(self, tmp_path):
        from dialsql.decoder import greedy_parse

        model = tiny_model("action_copy", seed=14)
        dialogue = two_turn_dialogue()
        inputs = prepare_inputs(dialogue, 2, model.config)
        enc = encode_turn(model, inputs.segments, inputs.distances, inputs.precedent)
        before = greedy_parse(model, enc, GRAMMAR)

        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        enc2 = encode_turn(loaded, inputs.segments, inputs.distances, inputs.precedent)
        after = greedy_parse(loaded, enc2, GRAMMAR)
        assert before.actions == after.actions
