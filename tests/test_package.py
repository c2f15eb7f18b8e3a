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
    # full-rank weighted sum over a matrix (``matmul`` contracts one axis).
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


def _private_op_uses(source: str) -> set[str]:
    """The ``ops._<name>`` attributes that ``source`` reaches."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "ops" and node.attr.startswith("_")}


def test_no_module_reaches_a_private_op():
    """``ops._<name>`` is private to ``nn/tensor.py``: another module
    calls a public op, or the helper becomes one."""
    assert _private_op_uses("x = ops._join(parts, 0) + ops.concat(parts)") == {"_join"}
    found = {}
    for path in sorted(Path(dialsql.__file__).parent.rglob("*.py")):
        if path.name == "tensor.py" and path.parent.name == "nn":
            continue
        names = _private_op_uses(path.read_text(encoding="utf-8"))
        if names:
            found[path.name] = sorted(names)
    assert found == {}


# Functions in ``dialsql.nn`` that still form a dense outer product,
# each kept for a reason. A vjp returns a matrix input's rank-1 delta as
# its factors ``(u, v)``; the tape forms the sum of a backward's factors
# as one matrix product. None is kept today.
DENSE_OUTER_PRODUCTS: dict[str, str] = {}


def _dense_outer_products(source: str) -> set[str]:
    """Qualified names of the functions in ``source`` that form
    ``u[:, None] * v`` or call ``np.outer``."""
    found = set()

    def is_column(node):
        return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                and len(node.slice.elts) == 2
                and isinstance(node.slice.elts[0], ast.Slice)
                and isinstance(node.slice.elts[1], ast.Constant)
                and node.slice.elts[1].value is None)

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            scope = scope + [getattr(node, "name", "<lambda>")]
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) \
                and (is_column(node.left) or is_column(node.right)):
            found.add(".".join(scope))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "outer"):
            found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_no_vjp_forms_a_dense_outer_product():
    sample = "def op(a, b):\n    def vjp(g):\n        return g[:, None] * b, np.outer(a, g)\n"
    assert _dense_outer_products(sample) == {"op.vjp"}
    found = set()
    for path in sorted((Path(dialsql.__file__).parent / "nn").glob("*.py")):
        found |= {f"{path.stem}.{name}"
                  for name in _dense_outer_products(path.read_text(encoding="utf-8"))}
    assert found == set(DENSE_OUTER_PRODUCTS)
