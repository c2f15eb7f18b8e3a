"""Run every workload on ten seeds, twice, and record the results.

    python3 bench/record.py

Each set runs ``run.py`` once per workload and seed (0-9), untraced, one
process at a time, for BENCHMARK.json's ``run_seconds``; the second set
starts when the first has ended. For each end-to-end metric it records
each set's values, median, quartiles and spread (interquartile distance
over the median, the quantity the bounds in BENCHMARK.json limit), and
how far the second median lies from the first, as a share of the first,
next to the metric's bound. It then makes one traced run per workload on
seed 0 for the per-layer numbers, counts the lines of every module under
``src``, and writes everything to ``bench/baseline.json``. Two sets take
about 40 minutes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import common
import run

SEEDS = range(10)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(common.BENCH_DIR / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def line_counts() -> dict:
    src = common.REPO_ROOT / "src" / "dialsql"
    counts = {str(p.relative_to(src)): sum(1 for _ in p.open(encoding="utf-8"))
              for p in sorted(src.rglob("*.py"))}
    return {"total": sum(counts.values()), "modules": counts}


def one_set(workload: str, seconds: int) -> dict:
    values: dict[str, list[float]] = {}
    for seed in SEEDS:
        out = run_once(workload, seed, seconds, 0)
        if not out["correct"] or out["failed"]:
            raise SystemExit(f"{workload} seed {seed}: {out}")
        for name, metric in out["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
    return {name: summary(v) for name, v in values.items()}


def main() -> int:
    common.pin_environment()
    spec = json.loads((common.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = [{w: one_set(w, seconds) for w in run.WORKLOADS} for _ in range(SETS)]
    results = {}
    for workload in run.WORKLOADS:
        end_to_end = {}
        for name in sets[0][workload]:
            first, second = (s[workload][name] for s in sets)
            end_to_end[name] = {
                "bound": bounds[name], "sets": [first, second],
                "median_change": (second["median"] - first["median"]) / first["median"]}
            print(f"{workload:9s} {name:18s} median {first['median']:12.5g} "
                  f"{second['median']:12.5g} change {end_to_end[name]['median_change']:+.3f} "
                  f"spread {first['spread']:.3f} {second['spread']:.3f} "
                  f"bound {bounds[name]}", flush=True)
        traced = run_once(workload, SEEDS[0], seconds, 1)
        results[workload] = {"end_to_end": end_to_end,
                             "per_layer": {k: m["value"] for k, m in traced["metrics"].items()}}
    record = {"seeds": list(SEEDS), "seconds": seconds, "environment": common.environment(),
              "src_lines": line_counts(), "workloads": results}
    with open(common.BENCH_DIR / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
