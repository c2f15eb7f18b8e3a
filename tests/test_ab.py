"""The verdict of ``tools/ab.py``: the rule for claiming a gain from paired rounds."""

import importlib.util
import sys
from pathlib import Path

import pytest

AB = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


@pytest.fixture
def ab(monkeypatch):
    # ab.py puts bench/ on the path, pins the BLAS thread variables and
    # imports the benchmark's modules: undo all three afterwards.
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("ab_under_test", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before:
        del sys.modules[name]


OLD = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize("new, side", [
    # Every pair faster, by far more than the spread: a gain.
    ([x - 0.10 for x in OLD], "new tree faster"),
    ([x + 0.10 for x in OLD], "new tree slower"),
    # Nine of ten pairs is enough.
    ([x - 0.10 for x in OLD[:9]] + [OLD[9] + 0.01], "new tree faster"),
    # Eight of ten is not, however large the change.
    ([x - 0.10 for x in OLD[:8]] + [x + 0.01 for x in OLD[8:]], "no difference shown"),
    # Every pair faster, but by less than the old tree's interquartile range.
    ([x - 0.005 for x in OLD], "no difference shown"),
    # A tree against itself: every pair a tie.
    (list(OLD), "no difference shown"),
])
def test_verdict(ab, new, side):
    line = ab.verdict(OLD, new)
    assert line.startswith(f"verdict: {side} (")
    faster = sum(b < a for a, b in zip(OLD, new))
    assert f"faster in {faster}," in line
