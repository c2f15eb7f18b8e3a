"""Compare two source trees on one benchmark workload by running each
tree's own ``bench/run.py`` in turn::

    python tools/ab.py <old tree> <new tree> --workload train [--seed S] [--pairs N]

Each tree is a checkout root. The old tree runs first in odd pairs and
the new tree in even ones, 10 pairs by default. Every run is the
command of the old tree's ``BENCHMARK.json`` with ``--trace 0`` and
``--seconds`` set to its ``run_seconds``, at the benchmark's own default
seed unless ``--seed`` is given. The tool prints each tree's failed
share, then one line per ``end_to_end`` metric of that file: both
medians, the old runs' quartiles and spread (interquartile range over
the median), the pairs the new tree won and a verdict (:func:`compare`).
It relies only on the benchmark's command line and the JSON object on
the last line of its output, so the benchmark's internals can change
freely. A run that exits non-zero, reports ``"correct": false`` or ends
in a malformed line stops the tool with exit 1. Whether two trees give
the same outputs is ``tools/digest.py``'s check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def compare(metric: dict, old: list[float], new: list[float]) -> str:
    """One line for ``metric``, an ``end_to_end`` entry of ``BENCHMARK.json``,
    from the values of paired runs, ending in its verdict:

    - ``better``: the new tree wins at least nine tenths of the pairs
      (ties count for neither) and the medians differ by more than the
      old runs' interquartile range;
    - ``worse``: the new median is worse than the old one by more than
      ``bound`` times the old median;
    - ``unresolved``: the old runs' spread is wider than ``bound``, unless
      every new run beats every old one;
    - ``no regression``: otherwise.
    """
    sign = 1 if metric["better"] == "higher" else -1
    bound = metric["bound"]
    q1, median, q3 = statistics.quantiles(old, n=4, method="inclusive")
    new_median = statistics.median(new)
    gain = sign * (new_median - median)
    wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    if 10 * wins >= 9 * len(old) and gain > q3 - q1:
        word = "better"
    elif -gain > bound * abs(median):
        word = "worse"
    elif (q3 - q1 > bound * abs(median)
          and min(sign * b for b in new) <= max(sign * a for a in old)):
        word = "unresolved"
    else:
        word = "no regression"
    return (f"{metric['name']} ({metric['unit']}, {metric['better']} is better, bound "
            f"{bound:.0%} of the old median): old {median:.6g} [{q1:.6g}, {q3:.6g}], spread "
            f"{(q3 - q1) / median:.1%}; new {new_median:.6g}; new won {wins} of {len(old)} "
            f"pairs: {word}")


def run(tree: Path, pair: int, command: list[str], names: list[str]) -> dict:
    """One benchmark run in ``tree``: the named metrics' values and the
    run's ``failed`` and ``attempted`` operations, from its last line."""
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    last = proc.stdout.splitlines()[-1:]
    try:
        report = json.loads(last[0])
        if proc.returncode == 0 and report["correct"] is True:
            return {"failed": report["failed"], "attempted": report["attempted"],
                    **{name: float(report["metrics"][name]["value"]) for name in names}}
    except (IndexError, ValueError, TypeError, KeyError):
        pass
    tail = "\n".join(proc.stderr.splitlines()[-10:])
    raise SystemExit(f"{tree}, pair {pair}: the run failed (exit {proc.returncode}, "
                     f"last line {last!r}); its stderr ends:\n{tail}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, help="the old tree's checkout root")
    ap.add_argument("new", type=Path, help="the new tree's checkout root")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, help="default: the benchmark's own")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    spec = json.loads((args.old / "BENCHMARK.json").read_text())
    command = spec["command"] + ["--workload", args.workload, "--trace", "0",
                                 "--seconds", str(spec["run_seconds"])]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    names = [metric["name"] for metric in spec["end_to_end"]]
    trees = {"old": args.old, "new": args.new}
    runs = {"old": [], "new": []}
    for pair in range(1, args.pairs + 1):
        for label in ("old", "new") if pair % 2 else ("new", "old"):
            runs[label].append(run(trees[label], pair, command, names))
        print(f"pair {pair} of {args.pairs} run", file=sys.stderr, flush=True)
    print(f"{args.workload}, {args.pairs} pairs: {' '.join(command)}")
    for label, results in runs.items():
        failed, attempted = (sum(r[key] for r in results) for key in ("failed", "attempted"))
        print(f"{label} {trees[label]}: failed {failed} of {attempted} operations")
    for metric in spec["end_to_end"]:
        print(compare(metric, *([r[metric["name"]] for r in runs[label]]
                                for label in ("old", "new"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
