"""Span tracer installed around the package's public functions.

Nothing in the package changes: the tracer wraps every public function
of each ``dialsql`` module (``cli`` excepted) plus a few methods, and
patches every namespace that holds the original object, because several
names are imported by value into other modules (``estimator`` imports
``encode_turn``, ``decoder`` imports ``lstm_cell`` and so on).

Each call into a wrapped function is one span: name, start, end, parent
and request id (the dialogue, batch or forward being served). Spans
stay in memory until :meth:`Tracer.write`. Self time is a span's
duration minus the time covered by its child spans. Functions called
far more often than once per decoder step (the tensor ops and the
schema-linking helpers) are counted only, so their time stays in the
self time of the span that called them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import pkgutil
import sys
import time

COUNT_ONLY = {"schema.linking_features", "schema.name_tokens"}
# Tensor-module functions that are not operations on tensors.
NOT_OPS = {"set_precision", "get_precision", "active_dtype"}
METHODS = {
    "nn.tensor": ("Tape.backward",),
    "nn.optim": ("Adam.step", "Adam.zero_grad"),
    "grammar": ("Derivation.apply",),
    "estimator": ("SqlParser.fit",),
}


def layer_of(module_name: str) -> str | None:
    """``dialsql.nn.lstm`` -> ``nn.lstm``; the grammar package is one layer."""
    if not module_name.startswith("dialsql.") or module_name == "dialsql.cli":
        return None
    layer = module_name[len("dialsql."):]
    return "grammar" if layer.startswith("grammar.") else layer


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, request]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.request = None
        self.tape_depth = 0
        self.tape_examples = 0            # teacher-forced losses built under a tape
        self.tape_entries = 0             # tape length summed over backward calls
        self.clip_calls = 0
        self.clipped = 0
        self.greedy_steps: list[int] = []
        self.greedy_incomplete = 0
        self._stack: list[list] = []      # [name, start, child_time, span index]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        total_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1][3] if stack else -1, self.request])
            frame = [name, 0.0, 0.0, index]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                record = spans[index]
                record[1], record[2] = start, end
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks for the layer ratios -----------------------------------------

    def _tape_enter(self, fn):
        @functools.wraps(fn)
        def wrapper(tape):
            self.tape_depth += 1
            return fn(tape)
        return wrapper

    def _tape_exit(self, fn):
        @functools.wraps(fn)
        def wrapper(tape, *exc):
            self.tape_depth -= 1
            return fn(tape, *exc)
        return wrapper

    def _hooks(self, name: str):
        if name == "decoder.teacher_forced_loss":
            def before(args):
                if self.tape_depth:
                    self.tape_examples += 1
            return before, None
        if name == "nn.tensor.Tape.backward":
            def after(args, result):
                self.tape_entries += len(args[0])
            return None, after
        if name == "nn.optim.clip_global_norm":
            def after(args, norm):
                self.clip_calls += 1
                self.clipped += norm > args[1]
            return None, after
        if name == "decoder.greedy_parse":
            def after(args, result):
                self.greedy_steps.append(result.steps)
                self.greedy_incomplete += not result.complete
            return None, after
        if name == "nn.optim.Adam.zero_grad":
            def before(args):
                self.request = ("batch", self.calls[name])
            return before, None
        return None, None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and listed method of the loaded
        ``dialsql`` modules, and patch every namespace holding one."""
        import dialsql

        for info in pkgutil.walk_packages(dialsql.__path__, "dialsql."):
            if layer_of(info.name) is not None:
                importlib.import_module(info.name)
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name.startswith("dialsql") and mod is not None}
        replacement: dict[int, object] = {}
        for mod_name, mod in modules.items():
            layer = layer_of(mod_name)
            if layer is None:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod_name):
                    continue
                name = f"{layer}.{attr}"
                if layer == "nn.tensor":
                    if attr in NOT_OPS:
                        continue
                    replacement[id(obj)] = self._counter(name, obj)
                elif name in COUNT_ONLY:
                    replacement[id(obj)] = self._counter(name, obj)
                else:
                    replacement[id(obj)] = self._span(name, obj, *self._hooks(name))
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = vars(mod).get(cls_name)
                if cls is None or cls.__module__ != mod_name:
                    continue
                name = f"{layer}.{qual}"
                self._patch(cls, meth, self._span(name, getattr(cls, meth),
                                                  *self._hooks(name)))
            if layer == "nn.tensor":
                self._patch(mod.Tape, "__enter__", self._tape_enter(mod.Tape.__enter__))
                self._patch(mod.Tape, "__exit__", self._tape_exit(mod.Tape.__exit__))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = replacement.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        """Copy of every aggregate, to subtract set-up from measured work."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                **{k: getattr(self, k) for k in ("tape_examples", "tape_entries",
                                                 "clip_calls", "clipped",
                                                 "greedy_incomplete")},
                "greedy_steps": list(self.greedy_steps)}

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for k, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
