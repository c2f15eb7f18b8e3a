"""``tools/ab.py``: the verdict rule per end-to-end metric, and the driving
of two trees' ``bench/run.py`` (here stubs that print a fixed report)."""

import ast
import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_under_test", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OLD = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
# Quartiles 1.0 and 1.5 around a median of 1.25: a 40 % spread.
WIDE = [0.9, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 1.5, 1.6]


def verdict(ab, old, new, better, bound):
    line = ab.compare({"name": "m", "unit": "u", "better": better, "bound": bound}, old, new)
    return line.rsplit(": ", 1)[1]


CASES = [
    # Every pair better, by far more than the spread: a gain.
    (OLD, [x - 0.10 for x in OLD], 0.05, "better"),
    (OLD, [x + 0.10 for x in OLD], 0.05, "worse"),
    # Nine of ten pairs is enough.
    (OLD, [x - 0.10 for x in OLD[:9]] + [OLD[9] + 0.01], 0.05, "better"),
    # Eight of ten is not, however large the change.
    (OLD, [x - 0.10 for x in OLD[:8]] + [x + 0.01 for x in OLD[8:]], 0.05, "no regression"),
    # Every pair better, but by less than the old runs' interquartile range.
    (OLD, [x - 0.005 for x in OLD], 0.05, "no regression"),
    # A tree against itself: every pair a tie.
    (OLD, list(OLD), 0.05, "no regression"),
    # The bound is relative to the old median: 10 % worse is within 0.25,
    # 30 % worse is not.
    (OLD, [x * 1.10 for x in OLD], 0.25, "no regression"),
    (OLD, [x * 1.30 for x in OLD], 0.25, "worse"),
    # The old runs spread wider than the bound: nothing can be told...
    (WIDE, list(WIDE), 0.25, "unresolved"),
    # ...unless every new run beats every old one.
    (WIDE, [0.85] * 10, 0.25, "no regression"),
]


@pytest.mark.parametrize("old, new, bound, word", CASES)
def test_verdict_lower_is_better(ab, old, new, bound, word):
    assert verdict(ab, old, new, "lower", bound) == word


@pytest.mark.parametrize("old, new, bound, word", CASES)
def test_verdict_higher_is_better(ab, old, new, bound, word):
    # Mirrored about 2, each case keeps its medians' distance, quartiles
    # and wins, with higher now the better side.
    mirror = [2 - x for x in old], [2 - x for x in new]
    assert verdict(ab, *mirror, "higher", bound) == word


def test_line_reports_medians_quartiles_spread_and_wins(ab):
    line = ab.compare({"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                      OLD, [x - 0.10 for x in OLD])
    assert line == ("setup_s (s, lower is better, bound 25% of the old median): old 1 "
                    "[0.9825, 1.0175], spread 3.5%; new 0.9; new won 10 of 10 pairs: better")


BENCH_STUB = """\
import json, sys
from pathlib import Path
name = Path.cwd().name
with open({log!r}, "a") as log:
    log.write(name + " " + " ".join(sys.argv[1:]) + "\\n")
mode = json.loads(Path("mode.json").read_text())
if mode.get("stderr"):
    print(mode["stderr"], file=sys.stderr)
sys.stdout.write(mode["last"] if "last" in mode else json.dumps(mode["report"]) + "\\n")
sys.exit(mode.get("exit", 0))
"""

SPEC = {"command": [sys.executable, "bench/run.py"], "run_seconds": 3,
        "end_to_end": [{"name": "throughput_per_s", "unit": "1/s", "better": "higher",
                        "bound": 0.25},
                       {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}]}


def report(throughput, op_ms):
    return {"correct": True, "attempted": 40, "failed": 0, "metrics": {
        "throughput_per_s": {"value": throughput, "unit": "1/s"},
        "op_ms_p50": {"value": op_ms, "unit": "ms"}}}


@pytest.fixture
def trees(tmp_path):
    """Two stub trees, ``old`` and ``new``; each run appends its tree's name
    and arguments to ``runs.log`` and prints its tree's ``mode.json``."""
    log = tmp_path / "runs.log"
    made = {}
    for name, throughput in (("old", 100.0), ("new", 150.0)):
        tree = tmp_path / name
        (tree / "bench").mkdir(parents=True)
        (tree / "bench" / "run.py").write_text(BENCH_STUB.format(log=str(log)))
        (tree / "BENCHMARK.json").write_text(json.dumps(SPEC))
        (tree / "mode.json").write_text(json.dumps({"report": report(throughput, 1.0)}))
        made[name] = tree
    return (made["old"], made["new"]), log


def test_runs_alternate_and_medians_are_parsed(ab, trees, capsys):
    (old, new), log = trees
    started = time.perf_counter()
    assert ab.main([str(old), str(new), "--workload", "train", "--pairs", "3"]) == 0
    assert time.perf_counter() - started < 1.0
    order = [line.split()[0] for line in log.read_text().splitlines()]
    assert order == ["old", "new", "new", "old", "old", "new"]
    assert log.read_text().splitlines()[0].split()[1:] == [
        "--workload", "train", "--trace", "0", "--seconds", "3"]
    out = capsys.readouterr().out
    assert f"old {old}: failed 0 of 120 operations" in out
    assert ("throughput_per_s (1/s, higher is better, bound 25% of the old median): old 100 "
            "[100, 100], spread 0.0%; new 150; new won 3 of 3 pairs: better") in out
    assert "op_ms_p50 (ms, lower is better, bound 25% of the old median): old 1 " in out


def test_seed_is_passed_only_when_given(ab, trees):
    (old, new), log = trees
    ab.main([str(old), str(new), "--workload", "decode", "--seed", "7", "--pairs", "2"])
    assert all(line.endswith("--seconds 3 --seed 7") for line in log.read_text().splitlines())


@pytest.mark.parametrize("mode", [
    {"report": report(150.0, 1.0), "exit": 1, "stderr": "Traceback: boom"},
    {"report": {**report(150.0, 1.0), "correct": False}, "stderr": "check failed: boom"},
    {"last": "throughput 150\n", "stderr": "boom"},
    {"last": "", "stderr": "boom"},
    {"report": {"correct": True, "attempted": 1, "failed": 0, "metrics": {}},
     "stderr": "boom"},
])
def test_failed_run_stops_the_tool(ab, trees, mode, capsys):
    (old, new), log = trees
    (new / "mode.json").write_text(json.dumps(mode))
    with pytest.raises(SystemExit) as stop:
        ab.main([str(old), str(new), "--workload", "train"])
    message = str(stop.value.code)
    assert message.startswith(f"{new}, pair 1: the run failed")
    assert message.endswith("boom")
    # The old tree ran first in pair 1; nothing ran after the failure.
    assert [line.split()[0] for line in log.read_text().splitlines()] == ["old", "new"]


def test_ab_imports_nothing_from_bench():
    """The tool drives the benchmark through its command line only, so the
    benchmark's modules stay free to change."""
    bench = {path.stem for path in (ROOT / "bench").glob("*.py")} | {"bench"}
    imported = set()
    for node in ast.walk(ast.parse(AB.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert not imported & bench, imported & bench
