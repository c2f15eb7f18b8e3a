"""Package surface: every advertised export exists."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import dialsql


def test_every_public_name_resolves():
    modules = [dialsql] + [importlib.import_module(info.name) for info in
                           pkgutil.walk_packages(dialsql.__path__, "dialsql.")]
    assert len(modules) > 10
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"


# Public tensor ops that only tests call, each kept for a reason.
TEST_ONLY_OPS = {
    # The tests' loss algebra: with reduce_sum, the only way to form a
    # full-rank weighted sum over a matrix (``dot`` takes vectors).
    "mul": "elementwise weights for matrix-valued test losses",
    "reduce_sum": "sums a matrix-valued output into a scalar test loss",
}


def test_every_public_op_has_a_caller_in_the_package():
    """Each public op in ``dialsql.nn.tensor`` is called from another
    module of the package, as ``ops.<name>(...)`` or through a direct
    import; an op that only tests reach is deleted, or listed above."""
    from dialsql.nn import tensor

    not_ops = {"set_precision", "get_precision", "active_dtype"}
    public = {name for name, fn in vars(tensor).items()
              if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
              and not name.startswith("_") and name not in not_ops}
    called = set()
    for path in Path(dialsql.__file__).parent.rglob("*.py"):
        if path.name == "tensor.py" and path.parent.name == "nn":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module is not None
                    and node.module.split(".")[-1] in ("nn", "tensor")
                    for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                    and fn.value.id == "ops"):
                called.add(fn.attr)
            elif isinstance(fn, ast.Name) and fn.id in imported:
                called.add(fn.id)
    assert public - called == set(TEST_ONLY_OPS)
