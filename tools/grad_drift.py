"""Compare the digest's gradients between two source trees.

Runs, once per tree and each in its own subprocess, the teacher-forced
gradient loop of ``tools/digest.py`` (14 configurations at dims 6/8/4,
every turn of four synthetic dialogues, 64 bits) and the first batch of
the digest's ``fit`` recipe for each of the 14 configurations
(``batch_size`` 3, the batch's summed gradients before clipping). For
each of the two it prints how many parameter gradients moved and the
largest relative difference ``max|Δ| / max|g|`` with its configuration
and parameter::

    python tools/grad_drift.py <old tree>/src <new tree>/src

A refactor that changes only summation order moves gradients by a few
ulps; one that changes the model moves them by far more. A parameter
that took no part in a turn (a None gradient) counts as a zero
gradient, so a change that drops an operation whose gradient is zero
moves nothing. Per-turn gradients see one example at a
time; the first batch also sees how ``fit`` combines a batch's examples.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


class _FirstBatchDone(Exception):
    pass


def first_batch_gradients() -> dict:
    """Each configuration's parameter gradients after ``fit``'s first
    batch, keyed ``method|fit|parameter``, read where ``fit`` clips them."""
    from digest import fit_corpus, fit_parser

    import dialsql.estimator as estimator
    from dialsql.context import method_names

    grads = {}
    clip = estimator.clip_global_norm
    corpus = fit_corpus()
    for method in method_names():
        def snapshot(params, max_norm):
            for p in params:
                grads[f"{method}|fit|{p.name}"] = p.grad.copy()
            raise _FirstBatchDone

        estimator.clip_global_norm = snapshot
        try:
            fit_parser(method, epochs=1).fit(corpus)
        except _FirstBatchDone:
            pass
        finally:
            estimator.clip_global_norm = clip
    return grads


def dump(path: Path) -> None:
    """Save every per-turn gradient, keyed ``method|dialogue|turn|parameter``,
    a None one as zeros, and the first-batch gradients."""
    from digest import teacher_forced_turns

    from dialsql.nn import set_precision

    set_precision(64)
    grads = {}
    for method, model, _grammar, dialogue, ex, _inputs, _loss in teacher_forced_turns():
        for name, p in model.params.items():
            key = f"{method}|{dialogue.dialogue_id}|{ex.turn_index}|{name}"
            grads[key] = np.zeros_like(p.values) if p.grad is None else p.grad
    grads.update(first_batch_gradients())
    np.savez(path, **grads)


def run_tree(src: Path, out: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    subprocess.run([sys.executable, __file__, "--dump", str(out), "--expect", str(src)],
                   env=env, check=True)
    with np.load(out) as data:
        return {k: data[k] for k in data.files}


def drift(old: dict, new: dict, keys: list[str]) -> tuple[int, float, str | None] | None:
    """How many of ``keys`` moved, the largest relative move and its key;
    None after printing the first key whose shapes differ."""
    moved, worst, where = 0, 0.0, None
    for key in keys:
        g, h = old[key], new[key]
        if g.shape != h.shape:
            print(f"{key}: shape {g.shape} -> {h.shape}")
            return None
        if np.array_equal(g, h):
            continue
        moved += 1
        scale = np.abs(g).max()
        rel = np.abs(h - g).max() / scale if scale else np.inf
        if rel > worst:
            worst, where = rel, key
    return moved, worst, where


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", nargs="?", type=Path, help="the old tree's src directory")
    ap.add_argument("new", nargs="?", type=Path, help="the new tree's src directory")
    ap.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--expect", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.dump is not None:
        import dialsql

        where = Path(dialsql.__file__).resolve()
        if args.expect is not None and args.expect.resolve() not in where.parents:
            sys.exit(f"grad_drift: imported {where}, not from {args.expect}")
        dump(args.dump)
        return 0
    if args.old is None or args.new is None:
        ap.error("need the old and the new src directory")

    with tempfile.TemporaryDirectory() as tmp:
        old = run_tree(args.old, Path(tmp) / "old.npz")
        new = run_tree(args.new, Path(tmp) / "new.npz")
    if old.keys() != new.keys():
        differ = sorted(set(old) ^ set(new))
        print(f"the trees differ in which gradients exist: {len(differ)} keys, "
              f"first {differ[:3]}")
        return 1
    fit_keys = [key for key in old if key.split("|")[1] == "fit"]
    turn_keys = [key for key in old if key.split("|")[1] != "fit"]
    for keys, what in ((turn_keys, "per-turn parameter gradients"),
                       (fit_keys, "first-batch fit gradients")):
        result = drift(old, new, keys)
        if result is None:
            return 1
        moved, worst, where = result
        print(f"moved    {moved} of {len(keys)} {what}")
        if where is None:
            print("largest  0")
            continue
        method, *place, param = where.split("|")
        place = "first batch" if place == ["fit"] else f"dialogue {place[0]}, turn {place[1]}"
        print(f"largest  {worst:.2g} max|Δ|/max|g| ({method}, {param}; {place})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
