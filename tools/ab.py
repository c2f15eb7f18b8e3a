"""Time the rounds of one benchmark workload for two source trees,
interleaved in one process.

Runs in separate processes drift more between runs than a change of a
few per cent, so comparing two benchmark runs cannot show such a change.
Here both trees run in one process, round after round in alternating
order (A B, B A, A B, ...), each round the work of one round of
``bench/run.py``: its units, set-up and recipes (``bench/common.py``,
read and not changed), one unit per method, without the host-speed
kernel::

    python tools/ab.py <old tree>/src <new tree>/src --workload train --pairs 20

Each tree's ``dialsql`` is loaded under its own package name and, while
that tree runs, also stands as ``dialsql`` for the benchmark's imports.
Prints each tree's median round seconds with its quartiles, the median
change per pair, and a verdict by the rule for claiming a gain
(:func:`verdict`), with the number of pairs each tree won: one run-to-run
comparison that is not read against that rule can mislead, since on a
shared host one tree timed against a copy of itself can differ by
several per cent. Exits 1 when a round's outputs differ between the
trees or between rounds.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import pkgutil
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

for _var in common._THREAD_VARS:       # one BLAS thread, before NumPy loads
    os.environ[_var] = "1"

import run  # noqa: E402


def load_tree(src: Path, name: str) -> dict:
    """Import ``src/dialsql`` and all its submodules as package ``name``;
    returns the modules keyed by their name under ``dialsql``."""
    package_dir = src.resolve() / "dialsql"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    # Resource reads name the package "dialsql": let them find this tree.
    sys.modules["dialsql"] = package
    spec.loader.exec_module(package)
    for info in pkgutil.walk_packages(package.__path__, name + "."):
        importlib.import_module(info.name)
    return {"dialsql" + key[len(name):]: module for key, module in sys.modules.items()
            if key == name or key.startswith(name + ".")}


def one_round(workload: str, state: dict, log) -> tuple[float, str] | None:
    """The round's seconds and outputs, as text that compares across
    trees (whose classes differ); None when a unit failed (its traceback
    went to ``log``)."""
    methods, run_unit = run.UNITS[workload]
    units = {method: run_unit(state, method, log) for method in methods}
    if any(unit["failed"] for unit in units.values()):
        return None
    outputs = repr(sorted(run.outputs(units).items()))
    return sum(unit["seconds"] for unit in units.values()), outputs


def verdict(old: list[float], new: list[float]) -> str:
    """Whether paired round seconds show the new tree faster or slower:
    it must win (or lose) at least nine tenths of the pairs, ties
    counting for neither, and the medians must differ by more than the
    old tree's interquartile range."""
    pairs = list(zip(old, new))
    q1, median, q3 = (run.quantile(old, q) for q in (0.25, 0.5, 0.75))
    gap = run.quantile(new, 0.5) - median
    faster = sum(b < a for a, b in pairs)
    slower = sum(b > a for a, b in pairs)
    if 10 * faster >= 9 * len(pairs) and -gap > q3 - q1:
        side = "new tree faster"
    elif 10 * slower >= 9 * len(pairs) and gap > q3 - q1:
        side = "new tree slower"
    else:
        side = "no difference shown"
    return (f"verdict: {side} (faster in {faster}, slower in {slower} of {len(pairs)} "
            f"pairs, nine tenths needed; medians differ by {gap:+.4f} s, the old tree's "
            f"interquartile range is {q3 - q1:.4f} s)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, help="the old tree's src directory")
    ap.add_argument("new", type=Path, help="the new tree's src directory")
    ap.add_argument("--workload", choices=run.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    # 10 pairs of sub-second rounds flip verdicts on a shared host.
    ap.add_argument("--pairs", type=int, default=20)
    args = ap.parse_args(argv)

    def log(text):
        print(text, file=sys.stderr, flush=True)

    trees = {}
    for label, src in (("old", args.old), ("new", args.new)):
        modules = load_tree(src, f"dialsql_ab_{label}")
        sys.modules.update(modules)
        modules["dialsql.nn"].set_precision(64)
        state = run.setup(args.workload, args.seed)
        trees[label] = (modules, state)
    seconds = {label: [] for label in trees}
    first = {}
    for pair in range(args.pairs + 1):             # pair 0 warms both trees up
        for label in (("old", "new") if pair % 2 else ("new", "old")):
            modules, state = trees[label]
            sys.modules.update(modules)
            result = one_round(args.workload, state, log)
            if result is None:
                print(f"{label}: a unit of {args.workload} failed")
                return 1
            took, out = result
            if first.setdefault(label, out) != out:
                print(f"{label}: a repeated round gave different outputs")
                return 1
            if pair:
                seconds[label].append(took)
    if first["old"] != first["new"]:
        print("the two trees' outputs differ")
        return 1
    for label, values in seconds.items():
        q1, med, q3 = (run.quantile(values, q) for q in (0.25, 0.5, 0.75))
        print(f"{label}  median {med:.4f} s  quartiles {q1:.4f}-{q3:.4f} s  "
              f"({len(values)} rounds of {args.workload}, seed {args.seed})")
    change = statistics.median(b / a - 1 for a, b in zip(seconds["old"], seconds["new"]))
    print(f"median change per pair {100 * change:+.1f} %; outputs identical")
    print(verdict(seconds["old"], seconds["new"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
