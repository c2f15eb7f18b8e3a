"""dialsql benchmark: ``train``, ``decode`` and ``gradcheck`` workloads.

Each workload drives the public API from one process, closed loop with
one client: the next call starts when the previous one returns. It
repeats whole rounds of a fixed amount of work until ``--seconds`` have
passed, checks every output, and prints its metrics, one per line with
its unit, then one JSON object as the last line.

    python3 bench/run.py --workload train --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one at a time

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
round untraced, then the same rounds with the span tracer installed
(``tracer.py``), checks that both give identical outputs, and reports
the per-layer metrics and the tracing overhead. Metric definitions and
the layer map are in ``bench/README.md``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import common  # noqa: E402

WORKLOADS = ("train", "decode", "gradcheck")
SETUP_REPEATS = 5

TRAIN_CORPUS = {"n_dialogues": 20, "max_turns": 4}
TRAIN_EPOCHS = 2
# Held-out decode corpora never coincide with the training corpus (seed 5).
# The seed picks one of DECODE_POOL corpora, so that what the pinned
# models decode on each of them is known in advance
# (models/expected_decode.json, written by expect_decode.py).
DECODE_SEED_OFFSET = 10_000
DECODE_POOL = 16
DECODE_CORPUS = {"n_dialogues": 40, "max_turns": 4}
# Grad-check input: on the first synthetic database, the two-turn dialogue
# with the shortest gold queries and questions, so that every seed checks
# a turn of about the same size. Its two queries differ: when the second
# repeats the first, action copy alone nearly predicts it and the loss
# halves.
GRADCHECK_CORPUS = {"n_dialogues": 400, "max_turns": 2}
# The reported loss is the checked models' loss on the last turn of every
# two-turn dialogue on that database (about 100): the loss of the checked
# turn alone follows the seed's inputs (interquartile range 18 % of the
# median over 20 seeds); the mean over all of them ranged over 1.8 % on
# seeds 0-9.
GRADCHECK_DIMS = {"embedding": 3, "hidden": 4, "distance": 2}
GRADCHECK_TOLERANCE = 1e-5           # acceptance criterion 3
# The plain parser, and action copy, which adds the precedent encoder and
# the copy mixture to every step.
GRADCHECK_METHODS = ("none", "action_copy")

END_TO_END = (("setup_s", "s"), ("throughput_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_p90", "ms"), ("loss", "nats/action"), ("peak_rss_mb", "MB"))
WORK_UNIT = {"train": ("train_steps_per_s", "teacher-forced decoder step",
                       "decoder step within a batch of 8"),
             "decode": ("decode_steps_per_s", "decoder step", "dialogue turn"),
             "gradcheck": ("gradcheck_forwards_per_s", "loss forward", "loss forward")}

ALL = WORKLOADS
# (metric, unit, span or counter it is read from, workloads on which that
# span or counter must record calls). Counts and seconds are per round.
PER_LAYER = (
    ("nn.tensor.Tape.backward.self_s", "s", "nn.tensor.Tape.backward", ("train", "gradcheck")),
    ("nn.tensor.tape_entries_per_example", "count", "nn.tensor.Tape.backward",
     ("train", "gradcheck")),
    ("nn.tensor.op_calls_per_step", "count", "decoder.advance_state", ALL),
    ("nn.lstm.lstm_cell.calls", "count", "nn.lstm.lstm_cell", ALL),
    ("nn.lstm.lstm_cell.self_s", "s", "nn.lstm.lstm_cell", ALL),
    ("decoder.advance_state.self_s", "s", "decoder.advance_state", ALL),
    ("decoder.output_distribution.self_s", "s", "decoder.output_distribution", ALL),
    ("schema.linking_features.calls", "count", "schema.linking_features", ALL),
    ("decoder.encode_turn.self_s", "s", "decoder.encode_turn", ALL),
    ("decoder.encode_precedent.self_s", "s", "decoder.encode_precedent", ALL),
    ("encoders.encode_question.calls_per_example", "count", "encoders.encode_question", ALL),
    ("encoders.encode_name.calls_per_example", "count", "encoders.encode_name", ALL),
    ("grammar.build_grammar.calls", "count", "grammar.build_grammar", ("train", "decode")),
    ("grammar.extract_subtrees.calls", "count", "grammar.extract_subtrees", ("train", "decode")),
    ("grammar.Derivation.apply.self_s", "s", "grammar.Derivation.apply", ALL),
    ("grammar.actions_to_ast.self_s", "s", "grammar.actions_to_ast", ("decode",)),
    ("context.prepare_inputs.self_s", "s", "context.prepare_inputs", ALL),
    ("context.load_checkpoint.s", "s", "context.load_checkpoint", ("decode",)),
    ("data.gen_synthetic.s", "s", "data.gen_synthetic", ALL),
    ("nn.optim.Adam.step.self_s", "s", "nn.optim.Adam.step", ("train",)),
    ("nn.optim.clip_global_norm.self_s", "s", "nn.optim.clip_global_norm", ("train",)),
    ("nn.optim.clip_rate", "share", "nn.optim.clip_global_norm", ("train",)),
    ("nn.gradcheck.grad_check.self_s", "s", "nn.gradcheck.grad_check", ("gradcheck",)),
    ("nn.gradcheck.forwards", "count", "nn.gradcheck.grad_check", ("gradcheck",)),
    ("decoder.steps", "count", "decoder.greedy_parse", ("decode",)),
    ("decoder.incomplete", "count", "decoder.greedy_parse", ("decode",)),
    ("decoder.steps_per_turn_p90", "count", "decoder.greedy_parse", ("decode",)),
    ("evaluation.compute_metrics.self_s", "s", "evaluation.compute_metrics", ("decode",)),
    ("evaluation.ques_match", "share", "evaluation.compute_metrics", ("decode",)),
    ("estimator.SqlParser.fit.self_s", "s", "estimator.SqlParser.fit", ("train",)),
    ("estimator.predict_corpus.self_s", "s", "estimator.predict_corpus", ("decode",)),
    ("trace.overhead", "share", None, ()),
)
# Set-up spans are reported once per run, not per round.
SETUP_METRICS = {"context.load_checkpoint.s", "data.gen_synthetic.s"}


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Set-up: corpus generation, grammar build, model build or load


def _verified_models() -> tuple[dict, dict]:
    """Load the pinned decode models; refuse any that do not match the
    manifest. Returns the models and the manifest."""
    import hashlib

    from dialsql.context import config_hash, load_checkpoint

    try:
        manifest = json.loads(common.MANIFEST.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise common.SetupError(f"cannot read {common.MANIFEST}: {err}") from err
    models = {}
    for method in common.METHODS:
        entry = manifest["models"].get(method)
        if entry is None:
            raise common.SetupError(f"manifest has no model for {method!r}")
        path = common.MODEL_DIR / entry["file"]
        try:
            raw = path.read_bytes()
            model = load_checkpoint(path)
        except Exception as err:  # any failure to load refuses the run
            raise common.SetupError(f"pinned model {path} failed to load: {err}") from err
        if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
            raise common.SetupError(f"pinned model {path} differs from the manifest")
        if config_hash(model.config) != entry["config_hash"]:
            raise common.SetupError(f"pinned model {path}: config hash "
                                    f"{config_hash(model.config)} != {entry['config_hash']}")
        models[method] = model
    return models, manifest


def _expected_decode(seed: int, manifest: dict) -> dict:
    """What the pinned models must decode on the corpus of ``seed``."""
    try:
        expected = json.loads(common.EXPECTED_DECODE.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise common.SetupError(f"cannot read {common.EXPECTED_DECODE}: {err}") from err
    for method in common.METHODS:
        if expected["models"].get(method) != manifest["models"][method]["sha256"]:
            raise common.SetupError(f"{common.EXPECTED_DECODE} was recorded for another "
                                    f"{method!r} model")
    return expected["corpora"][str(seed % DECODE_POOL)]


def decode_corpus(seed: int):
    from dialsql.data import gen_synthetic

    return gen_synthetic(seed=DECODE_SEED_OFFSET + seed % DECODE_POOL, **DECODE_CORPUS)


def setup(workload: str, seed: int) -> dict:
    import dialsql.estimator  # noqa: F401  (imports the whole package)
    from dialsql.data import Corpus, build_vocab, gen_synthetic
    from dialsql.grammar import build_grammar

    if workload == "train":
        corpus = gen_synthetic(seed=seed, **TRAIN_CORPUS)
        return {"corpus": corpus}
    if workload == "decode":
        corpus = decode_corpus(seed)
        grammars = {db: build_grammar(s) for db, s in corpus.schemas.items()}
        models, manifest = _verified_models()
        return {"corpus": corpus, "grammars": grammars, "models": models,
                "expected": _expected_decode(seed, manifest)}

    from dialsql.context import build_model, method_config

    corpus = gen_synthetic(seed=seed, **GRADCHECK_CORPUS)
    db_id = min(corpus.schemas)
    candidates = [d for d in corpus.dialogues if len(d.turns) == 2 and d.db_id == db_id
                  and d.turns[0].gold_actions != d.turns[1].gold_actions]
    if not candidates:
        raise common.SetupError(f"seed {seed} generated no two-turn dialogue on {db_id}")
    dialogue = min(candidates, key=lambda d: (
        len(d.turns[1].gold_actions), len(d.turns[0].gold_actions),
        len(d.turns[1].question) + len(d.turns[0].question)))
    schema = corpus.schemas[db_id]
    vocab = build_vocab(Corpus([dialogue], {db_id: schema}))
    models = {m: build_model(method_config(m, h=common.RECIPE["h"], dims=GRADCHECK_DIMS),
                             vocab, seed) for m in GRADCHECK_METHODS}
    return {"dialogue": dialogue, "grammar": build_grammar(schema), "models": models,
            "loss_dialogues": [d for d in corpus.dialogues
                               if len(d.turns) == 2 and d.db_id == db_id]}


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time of fresh processes, import included, each
    scaled by the host-speed kernel timed right after it."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, __file__, "--setup-only", "--workload", workload,
                              "--seed", str(seed)], capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Units of work. A round runs one unit per method, and every round repeats
# the same units. A unit returns its seconds, its work, one latency per
# operation, its attempted and failed operations, and its output, which
# must be identical in every round.


def train_unit(state: dict, method: str, log, tracer=None) -> dict:
    import dialsql.estimator as estimator
    from dialsql.nn import Adam

    items = state["corpus"].supported_examples()
    batches = TRAIN_EPOCHS * math.ceil(len(items) / common.RECIPE["batch_size"])
    work = TRAIN_EPOCHS * sum(len(ex.gold_actions) for ex in items)
    unit = {"attempted": batches, "failed": 0}
    stamps: list[float] = []
    steps: list[int] = []
    zero_grad = Adam.zero_grad
    loss = estimator.teacher_forced_loss

    def stamped_zero_grad(self):
        # fit calls zero_grad once at the start of every batch
        stamps.append(time.perf_counter())
        steps.append(0)
        return zero_grad(self)

    def counted_loss(model, encoded, grammar, gold, *args, **kwargs):
        steps[-1] += len(gold)
        return loss(model, encoded, grammar, gold, *args, **kwargs)

    Adam.zero_grad = stamped_zero_grad
    estimator.teacher_forced_loss = counted_loss
    started = time.perf_counter()
    try:
        parser = estimator.SqlParser(method=method, epochs=TRAIN_EPOCHS,
                                     **common.RECIPE).fit(state["corpus"])
    except Exception:
        log(traceback.format_exc())
        unit["failed"] = batches
        return unit
    finally:
        Adam.zero_grad = zero_grad
        estimator.teacher_forced_loss = loss
    ended = time.perf_counter()
    if len(stamps) != batches:
        raise common.CheckFailed(f"{method}: {len(stamps)} batches, expected {batches}")
    if sum(steps) != work:
        raise common.CheckFailed(f"{method}: fit's teacher_forced_loss calls covered "
                                 f"{sum(steps)} gold actions, expected {work}")
    bounds = stamps + [ended]
    # Work and batch latency are counted per teacher-forced decoder step
    # (gold action), not per example or batch: both would otherwise move
    # with the seed's query lengths.
    unit.update(seconds=ended - started, work=work,
                op_ms=[1000.0 * (b - a) / n for a, b, n in zip(bounds, bounds[1:], steps)],
                output=[row["loss"] for row in parser.history_])
    return unit


def decode_unit(state: dict, method: str, log, tracer=None) -> dict:
    """Decoder steps are counted once, by the output check, which fills
    in the work afterwards."""
    from dialsql.data import Corpus
    from dialsql.estimator import predict_corpus
    from dialsql.evaluation import compute_metrics

    corpus = state["corpus"]
    model = state["models"][method]
    unit = {"attempted": len(corpus.dialogues), "failed": 0, "seconds": 0.0,
            "work": None, "op_ms": []}
    predictions = {}
    for k, dialogue in enumerate(corpus.dialogues):
        one = Corpus([dialogue], {dialogue.db_id: corpus.schemas[dialogue.db_id]})
        if tracer is not None:
            tracer.request = ("dialogue", method, k)
        started = time.perf_counter()
        try:
            predicted = predict_corpus(model, one, max_steps=common.MAX_STEPS)
        except Exception:
            log(traceback.format_exc())
            unit["failed"] += 1
            continue
        elapsed = time.perf_counter() - started
        unit["seconds"] += elapsed
        unit["op_ms"].append(1000.0 * elapsed / len(dialogue.turns))
        predictions.update(predicted)
    unit["output"] = predictions
    if not unit["failed"]:
        unit["ques_match"] = compute_metrics(predictions, corpus).ques_match.fraction
    return unit


def _loss_fn(model, dialogue, grammar, times: list, tracer=None):
    from dialsql.context import prepare_inputs
    from dialsql.decoder import encode_turn, teacher_forced_loss

    last = dialogue.turns[-1]
    gold = list(last.gold_actions)

    def loss_fn():
        if tracer is not None:
            tracer.request = ("forward", len(times))
        started = time.perf_counter()
        inputs = prepare_inputs(dialogue, last.turn_index, model.config)
        encoded = encode_turn(model, inputs.segments, inputs.distances, inputs.precedent)
        loss = teacher_forced_loss(model, encoded, grammar, gold)
        times.append(time.perf_counter() - started)
        return loss

    return loss_fn


def gradcheck_unit(state: dict, method: str, log, tracer=None) -> dict:
    from dialsql.nn import grad_check

    model = state["models"][method]
    expected = 1 + 2 * sum(p.values.size for p in model.parameters())
    unit = {"attempted": expected, "failed": 0}
    times: list[float] = []
    loss_fn = _loss_fn(model, state["dialogue"], state["grammar"], times, tracer)
    started = time.perf_counter()
    try:
        result = grad_check(loss_fn, model.parameters(), names=list(model.params))
    except Exception:
        log(traceback.format_exc())
        unit["failed"] = expected
        return unit
    seconds = time.perf_counter() - started
    if len(times) != expected:
        raise common.CheckFailed(f"{method}: {len(times)} forwards, expected {expected}")
    unit.update(seconds=seconds, work=expected, op_ms=[1000.0 * t for t in times],
                output=(result.max_rel_error, result.worst))
    return unit


UNITS = {"train": (common.METHODS, train_unit),
         "decode": (common.METHODS, decode_unit),
         "gradcheck": (GRADCHECK_METHODS, gradcheck_unit)}


def run_round(workload: str, state: dict, log, tracer=None) -> dict:
    """One unit per method, each bracketed by the host-speed kernel.

    A unit's times are scaled by ``REFERENCE_S`` over the mean of the
    kernel times just before and after it (see ``common.REFERENCE_S``).
    """
    methods, run_unit = UNITS[workload]
    units = {}
    before = common.reference_kernel_s()
    for method in methods:
        unit = run_unit(state, method, log, tracer)
        after = common.reference_kernel_s()
        scale = common.REFERENCE_S / ((before + after) / 2)
        if not unit["failed"]:
            unit["scale"] = scale
            unit["seconds"] *= scale
            unit["op_ms"] = [t * scale for t in unit["op_ms"]]
        units[method] = unit
        before = after
    return units


def outputs(rnd: dict) -> dict:
    return {method: unit["output"] for method, unit in rnd.items()}


def throughput(rounds: list) -> float:
    """Work per second of the median round: each unit's seconds is its
    median over rounds, so a burst of host noise in one round is dropped."""
    units = rounds[0]
    seconds = sum(statistics.median(r[m]["seconds"] for r in rounds) for m in units)
    return sum(u["work"] for u in units.values()) / seconds


def op_latency(rounds: list, q: float) -> float:
    """Quantile ``q`` of one operation's latency, averaged over methods.

    Every round repeats the same operations in the same order, so each
    operation's latency is its median over rounds, and the quantile is
    taken over a method's operations: it describes the work, not the
    host's slowest moments. Averaging the methods' quantiles keeps the
    result away from the boundaries between methods of different speed.
    """
    per_method = []
    for method in rounds[0]:
        ops = zip(*(r[method]["op_ms"] for r in rounds))
        per_method.append(quantile([statistics.median(ms) for ms in ops], q))
    return statistics.fmean(per_method)


def round_seconds(rnd: dict) -> float:
    return sum(unit["seconds"] for unit in rnd.values())


# ---------------------------------------------------------------------------
# Output checks, run once after the measured rounds


def check_train(state: dict, rnd: dict) -> float:
    """Every training loss is finite; returns the last-epoch loss per
    gold action, averaged over methods."""
    items = state["corpus"].supported_examples()
    per_action = len(items) / sum(len(ex.gold_actions) for ex in items)
    finals = []
    for method, losses in outputs(rnd).items():
        if not all(math.isfinite(x) for x in losses):
            raise common.CheckFailed(f"{method}: non-finite training loss {losses}")
        finals.append(losses[-1] * per_action)
    return statistics.fmean(finals)


def check_decode(state: dict, rnd: dict) -> dict:
    """Predictions equal a turn-by-turn reference decode, which must
    reproduce the recorded outcome of the pinned models exactly, and
    complete decodes survive the SQL round trip (``common.round_trip``).

    Returns the decoder steps per turn and the invalid trees per method,
    and the teacher-forced loss per gold action averaged over methods.
    """
    from dialsql.context import prepare_inputs
    from dialsql.decoder import encode_turn, teacher_forced_loss

    corpus, grammars = state["corpus"], state["grammars"]
    steps: dict[str, list[int]] = {}
    invalid: dict[str, int] = {}
    losses = []
    for method in common.METHODS:
        model = state["models"][method]
        trees, steps[method], outcome = common.decode_outcome(model, corpus, grammars)
        if rnd[method]["output"] != trees:
            raise common.CheckFailed(f"{method}: predictions differ from the reference decode")
        if outcome != state["expected"][method]:
            raise common.CheckFailed(f"{method}: decode outcome {outcome} differs from the "
                                     f"recorded {state['expected'][method]}")
        invalid[method] = outcome["invalid"]
        total = actions = 0.0
        for dialogue in corpus.dialogues:
            grammar = grammars[dialogue.db_id]
            for ex in dialogue.turns:
                inputs = prepare_inputs(dialogue, ex.turn_index, model.config)
                encoded = encode_turn(model, inputs.segments, inputs.distances,
                                      inputs.precedent)
                loss = teacher_forced_loss(model, encoded, grammar, list(ex.gold_actions))
                total += float(loss.values)
                actions += len(ex.gold_actions)
        losses.append(total / actions)
    return {"loss": statistics.fmean(losses), "steps": steps, "invalid": invalid}


def check_gradcheck(state: dict, rnd: dict) -> float:
    """Every max relative error is below the criterion-3 tolerance; returns
    the loss per gold action of the checked models on the last turns of
    ``loss_dialogues``, averaged over methods."""
    losses = []
    dialogues = state["loss_dialogues"]
    gold = sum(len(d.turns[-1].gold_actions) for d in dialogues)
    for method, (max_rel, worst) in outputs(rnd).items():
        if not max_rel < GRADCHECK_TOLERANCE:
            raise common.CheckFailed(f"{method}: max relative gradient error {max_rel:.3e} "
                                     f"at {worst}")
        model = state["models"][method]
        total = sum(float(_loss_fn(model, d, state["grammar"], [])().values) for d in dialogues)
        losses.append(total / gold)
    return statistics.fmean(losses)


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(workload: str, state: dict, rounds: list, setup_s: float,
               rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, plus extra facts printed for people."""
    first = rounds[0]
    extra = {}
    if workload == "train":
        loss = check_train(state, first)
        items = state["corpus"].supported_examples()
        extra["train_examples_per_s"] = (throughput(rounds) * len(items)
                                         / sum(len(ex.gold_actions) for ex in items))
    elif workload == "decode":
        checked = check_decode(state, first)
        loss = checked["loss"]
        all_steps = [s for m in common.METHODS for s in checked["steps"][m]]
        for rnd in rounds:
            for method, unit in rnd.items():
                unit["work"] = sum(checked["steps"][method])
        predictions = [p for m in common.METHODS for p in first[m]["output"].values()]
        extra["decode_turns_per_round"] = len(all_steps)
        extra["decode_steps_per_turn_p90"] = quantile(all_steps, 0.9)
        extra["decode_incomplete_per_round"] = sum(p is None for p in predictions)
        extra["decode_invalid_per_round"] = sum(checked["invalid"].values())
        extra["decode_ques_match"] = statistics.fmean(u["ques_match"] for u in first.values())
    else:
        loss = check_gradcheck(state, first)
    for rnd in rounds[1:]:
        if outputs(rnd) != outputs(first):
            raise common.CheckFailed("a repeated round gave different outputs")
    extra["rounds"] = len(rounds)
    extra["host_scale"] = statistics.median(u["scale"] for r in rounds for u in r.values())
    extra["operations_per_round"] = sum(len(u["op_ms"]) for u in first.values())
    metrics = {"setup_s": setup_s, "throughput_per_s": throughput(rounds),
               "op_ms_p50": op_latency(rounds, 0.5), "op_ms_p90": op_latency(rounds, 0.9),
               "loss": loss, "peak_rss_mb": rss_mb}
    return metrics, extra


def per_layer(workload: str, tracer, base: dict, rounds: list, overhead: float) -> dict:
    """Per-round layer numbers from the tracer's aggregates after set-up
    (``base`` is the snapshot taken when set-up ended)."""
    n = len(rounds)
    calls = {k: (v - base["calls"].get(k, 0)) / n for k, v in tracer.calls.items()}
    self_s = {k: (v - base["self_s"].get(k, 0.0)) / n for k, v in tracer.self_s.items()}
    setup_total = base["total_s"]
    steps = calls.get("decoder.advance_state", 0.0)
    examples = (calls.get("decoder.teacher_forced_loss", 0.0)
                + calls.get("decoder.greedy_parse", 0.0))
    tape_examples = tracer.tape_examples - base["tape_examples"]
    clip_calls = tracer.clip_calls - base["clip_calls"]
    greedy = tracer.greedy_steps[len(base["greedy_steps"]):]
    op_calls = sum(v for k, v in calls.items() if k.startswith("nn.tensor.")
                   and k != "nn.tensor.Tape.backward")
    ques = [u["ques_match"] for r in rounds for u in r.values() if "ques_match" in u]

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "nn.tensor.Tape.backward.self_s": self_s.get("nn.tensor.Tape.backward", 0.0),
        "nn.tensor.tape_entries_per_example":
            ratio(tracer.tape_entries - base["tape_entries"], tape_examples),
        "nn.tensor.op_calls_per_step": ratio(op_calls, steps),
        "nn.lstm.lstm_cell.calls": calls.get("nn.lstm.lstm_cell", 0.0),
        "nn.lstm.lstm_cell.self_s": self_s.get("nn.lstm.lstm_cell", 0.0),
        "decoder.advance_state.self_s": self_s.get("decoder.advance_state", 0.0),
        "decoder.output_distribution.self_s": self_s.get("decoder.output_distribution", 0.0),
        "schema.linking_features.calls": calls.get("schema.linking_features", 0.0),
        "decoder.encode_turn.self_s": self_s.get("decoder.encode_turn", 0.0),
        "decoder.encode_precedent.self_s": self_s.get("decoder.encode_precedent", 0.0),
        "encoders.encode_question.calls_per_example":
            ratio(calls.get("encoders.encode_question", 0.0), examples),
        "encoders.encode_name.calls_per_example":
            ratio(calls.get("encoders.encode_name", 0.0), examples),
        "grammar.build_grammar.calls": calls.get("grammar.build_grammar", 0.0),
        "grammar.extract_subtrees.calls": calls.get("grammar.extract_subtrees", 0.0),
        "grammar.Derivation.apply.self_s": self_s.get("grammar.Derivation.apply", 0.0),
        "grammar.actions_to_ast.self_s": self_s.get("grammar.actions_to_ast", 0.0),
        "context.prepare_inputs.self_s": self_s.get("context.prepare_inputs", 0.0),
        "context.load_checkpoint.s": setup_total.get("context.load_checkpoint", 0.0),
        "data.gen_synthetic.s": setup_total.get("data.gen_synthetic", 0.0),
        "nn.optim.Adam.step.self_s": self_s.get("nn.optim.Adam.step", 0.0),
        "nn.optim.clip_global_norm.self_s": self_s.get("nn.optim.clip_global_norm", 0.0),
        "nn.optim.clip_rate": ratio(tracer.clipped - base["clipped"], clip_calls),
        "nn.gradcheck.grad_check.self_s": self_s.get("nn.gradcheck.grad_check", 0.0),
        "nn.gradcheck.forwards": (sum(u["work"] for u in rounds[0].values())
                                  if workload == "gradcheck" else 0.0),
        "decoder.steps": ratio(sum(greedy), n),
        "decoder.incomplete": ratio(tracer.greedy_incomplete - base["greedy_incomplete"], n),
        "decoder.steps_per_turn_p90": quantile(greedy, 0.9) if greedy else 0.0,
        "evaluation.compute_metrics.self_s": self_s.get("evaluation.compute_metrics", 0.0),
        "evaluation.ques_match": statistics.fmean(ques) if ques else 0.0,
        "estimator.SqlParser.fit.self_s": self_s.get("estimator.SqlParser.fit", 0.0),
        "estimator.predict_corpus.self_s": self_s.get("estimator.predict_corpus", 0.0),
        "trace.overhead": overhead,
    }
    silent = []
    for name, _unit, source, workloads in PER_LAYER:
        if workload not in workloads:
            continue
        recorded = (base["calls"].get(source, 0) if name in SETUP_METRICS
                    else calls.get(source, 0.0))
        if not recorded:
            silent.append(f"{name} (no calls to {source})")
    if silent:
        raise common.CheckFailed("layers recorded no calls: " + ", ".join(silent))
    return values


# ---------------------------------------------------------------------------
# Entry point


def run_workload(args, log) -> dict:
    common.pin_environment()
    from dialsql.nn import set_precision

    set_precision(64)
    if args.setup_only:
        setup(args.workload, args.seed)
        elapsed = time.perf_counter() - STARTED
        return {"setup_s": elapsed * common.REFERENCE_S / common.reference_kernel_s()}

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = setup(args.workload, args.seed)
    if tracer is not None:
        tracer.uninstall()
        base = tracer.snapshot()
    deadline = time.perf_counter() + args.seconds
    rounds_run = [run_round(args.workload, state, log)]
    if tracer is not None:
        tracer.install()
    while len(rounds_run) < 1 + (tracer is not None) or time.perf_counter() < deadline:
        rounds_run.append(run_round(args.workload, state, log, tracer))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference, rounds = rounds_run[0], rounds_run
    if tracer is not None:
        tracer.uninstall()
        rounds = rounds_run[1:]
    units = [u for r in rounds_run for u in r.values()]
    failed = sum(u["failed"] for u in units)
    result = {"attempted": sum(u["attempted"] for u in units), "failed": failed,
              "extra": {}}
    if failed:
        result["correct"] = False
        return result
    if tracer is None:
        setup_s = measure_setup(args.workload, args.seed)
        result["metrics"], result["extra"] = end_to_end(args.workload, state, rounds,
                                                        setup_s, rss_mb)
        metric_units = dict(END_TO_END)
    else:
        for rnd in rounds:
            if outputs(rnd) != outputs(reference):
                raise common.CheckFailed("traced and untraced rounds gave different outputs")
        traced_s = statistics.median(round_seconds(r) for r in rounds)
        overhead = traced_s / round_seconds(reference) - 1.0
        result["metrics"] = per_layer(args.workload, tracer, base, rounds, overhead)
        result["extra"] = {"rounds": len(rounds), "untraced_round_s": round_seconds(reference),
                           "traced_round_s": traced_s, "spans": len(tracer.spans),
                           "host_scale": statistics.median(u["scale"] for u in units)}
        out_dir = common.BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        metric_units = {name: unit for name, unit, _s, _w in PER_LAYER}
    result["units"] = metric_units
    result["correct"] = True
    return result


def report(workload: str, result: dict) -> dict:
    """Print every metric with its unit; return the contract's JSON object."""
    units = result.get("units", {})
    for name, value in result.get("metrics", {}).items():
        print(f"{workload:9s} {name:44s} {value:14.6g} {units[name]}")
    if "throughput_per_s" in result.get("metrics", {}):
        name, unit, op = WORK_UNIT[workload]
        print(f"{workload:9s} {name:44s} {result['metrics']['throughput_per_s']:14.6g} "
              f"1/s ({unit} per second; op_ms is per {op})")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"{workload:9s} {'error_rate':44s} {rate:14.6g} share")
    for name, value in result["extra"].items():
        print(f"{workload:9s} {name:44s} {value!s:>14}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in result.get("metrics", {}).items()}}


def run_all(args) -> int:
    """Each workload in its own process, one at a time."""
    combined = {}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True,
                              timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            combined[workload] = {"correct": False, "exit": proc.returncode}
            continue
        combined[workload] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0 if all(r.get("correct") for r in combined.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    def log(text):
        print(text, file=sys.stderr, flush=True)

    try:
        result = run_workload(args, log)
    except common.SetupError as err:
        log(f"bench: cannot run: {err}")
        return 2
    except common.CheckFailed as err:
        log(f"bench: check failed: {err}")
        result = {"correct": False, "attempted": 1, "failed": 0, "extra": {}}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    if not args.trace:
        result["extra"]["environment"] = common.environment()
    print(json.dumps(report(args.workload, result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
