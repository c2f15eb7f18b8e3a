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


# Functions, methods and classes of the package that no module of
# ``src``, ``bench`` or ``tools`` names, each kept for a reason.
UNNAMED = {
    # The tests' loss algebra: with reduce_sum, the only way to form a
    # full-rank weighted sum over a matrix (``matmul`` contracts one axis).
    "src/dialsql/nn/tensor.py:mul": "elementwise weights for matrix-valued test losses",
    "src/dialsql/nn/tensor.py:reduce_sum": "sums a matrix-valued output into a scalar test loss",
    # link_scores multiplies by a transposed view itself; the tests'
    # reference compositions of the Col/Tab scorer transpose the names.
    "src/dialsql/nn/tensor.py:transpose":
        "the name matrix of criterion 3's linking reference and of link_scores' composition",
    # lstm_cell runs attention's halves and output_layer the products
    # and row blocks of rows_matmul and partition; the tests compose
    # their references from the ops.
    "src/dialsql/nn/tensor.py:attention":
        "criterion 3 gradchecks it; the tests compose lstm_cell's per-step reference from it",
    "src/dialsql/nn/tensor.py:rows_matmul":
        "the tests compose output_layer's reference, and criterion 3's products, from it",
    "src/dialsql/nn/tensor.py:partition":
        "hands each frontier its rows in the tests' composition of output_layer",
    "src/dialsql/estimator.py:SqlParser.set_params":
        "the scikit-learn parameter protocol, with get_params",
    "src/dialsql/evaluation.py:read_report":
        "reads back what emit_report writes, for users of the reports",
    "src/dialsql/evaluation.py:report_schema":
        "the shipped JSON schema of the json report, for its users",
}


def _module_names(tree: ast.Module, package: str) -> dict[str, str]:
    """Each name that an import of ``tree``, a module of ``package``,
    binds to a module, with that module's name. A name imported from a
    module of ``dialsql`` is looked up; one imported from elsewhere
    counts as no module."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name if alias.asname else alias.name.split(".")[0]
                modules[alias.asname or top] = top
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")[:len(package.split(".")) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            if base.split(".")[0] != "dialsql":
                continue
            for alias in node.names:
                value = getattr(importlib.import_module(base), alias.name, None)
                if inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value.__name__
    return modules


def _owner(node: ast.expr, modules: dict[str, str]) -> str | None:
    """The dotted module path an expression names (``ops``,
    ``dialsql.nn.tensor``), given the module names bound by imports, or
    None when it names no module."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute):
        inner = _owner(node.value, modules)
        return None if inner is None else f"{inner}.{node.attr}"
    return None


def _unnamed(sources: dict[str, str], defining: set[str]) -> set[str]:
    """``<file>:<qualified name>`` of each function, method and class
    defined in a file of ``defining`` whose name no module of
    ``sources`` uses outside the definition's own body: as a name, an
    attribute or an import. An attribute names a module-level function
    only when its base is a module of ``dialsql`` or of ``sources``, as
    in ``ops.attention``, not an object's field, as in
    ``encoded.attention``, nor another library's function, as in
    ``np.tanh``; a name that is assigned
    to, as a dataclass field is, is no use. A name inside a function
    that has a parameter of that name is the parameter. Dunder methods
    are called implicitly."""
    defs, uses = [], {}     # uses: name -> (file, line, whether a module-level function is meant)

    def visit(node, path, scope, modules, params=frozenset()):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if path in defining and not (node.name.startswith("__")
                                         and node.name.endswith("__")):
                function = not scope and not isinstance(node, ast.ClassDef)
                defs.append((path, ".".join(scope + [node.name]), node, function))
            scope = scope + [node.name]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = params | {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                               + [a for a in (args.vararg, args.kwarg) if a]}
        if isinstance(node, ast.Name):      # a binding (a dataclass field) is no use
            names = [] if node.id in params or isinstance(node.ctx, ast.Store) \
                else [(node.id, True)]
        elif isinstance(node, ast.Attribute):
            owner = _owner(node.value, modules)
            names = [(node.attr, owner is not None and owner.split(".")[0] in local)]
        elif isinstance(node, ast.ImportFrom):
            names = [(alias.name, True) for alias in node.names]
        else:
            names = []
        for name, of_module in names:
            uses.setdefault(name, []).append((path, node.lineno, of_module))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope, modules, params)

    local = {"dialsql"} | {Path(path).stem for path in sources}
    for path, source in sources.items():
        tree = ast.parse(source)
        package = ".".join(Path(path).parts[1:-1]) if path.startswith("src/") else ""
        visit(tree, path, [], _module_names(tree, package))
    return {f"{path}:{qualname}" for path, qualname, node, function in defs
            if all((path == where and node.lineno <= line <= node.end_lineno)
                   or (function and not of_module)
                   for where, line, of_module in uses.get(node.name, ()))}


def test_every_public_op_has_a_caller_in_the_package():
    """Every function, method and class of the package is named by a
    module of ``src``, ``bench`` or ``tools``, or is listed above: what
    only tests reach is deleted."""
    sample = ("def used():\n    return 1\n"
              "def unused():\n    return unused()\n"
              "def shadowed():\n    return 2\n"
              "def f(shadowed):\n    return shadowed or used()\n"
              "class C:\n    def __len__(self):\n        return f(0)\n"
              "    def method(self):\n        return 3\n"
              "def field():\n    return 4\n"
              "def called():\n    return 5\n"
              "def tanh():\n    return 6\n"
              "class D:\n    field: int = 0\n")
    # A field, a method and another library's function share names with
    # functions of m.py: only the attributes of a module of the package
    # (m, or ops of dialsql) name those.
    caller = ("import m\nimport numpy as np\nfrom dialsql.nn import ops\n"
              "def g(x):\n    return x.field, x.method(), np.tanh(0), m.called(), m.D, ops.field\n")
    unnamed = {"m.py:unused", "m.py:shadowed", "m.py:C", "m.py:tanh"}
    assert _unnamed({"m.py": sample, "n.py": caller}, {"m.py"}) == unnamed
    assert _unnamed({"m.py": sample, "n.py": caller.replace(", ops.field", "")}, {"m.py"}) \
        == unnamed | {"m.py:field"}

    package = Path(dialsql.__file__).resolve().parent
    repo = package.parent.parent
    sources = {path.relative_to(repo).as_posix(): path.read_text(encoding="utf-8")
               for top in (package, repo / "bench", repo / "tools")
               for path in sorted(top.rglob("*.py"))}
    defining = {path for path in sources if path.startswith("src/")}
    assert _unnamed(sources, defining) == set(UNNAMED)


def _private_nn_uses(source: str, package: str = "dialsql") -> set[str]:
    """The private names (``_<name>``) of ``dialsql.nn`` modules that
    ``source``, a module of ``package``, imports from one, or reaches as
    an attribute of one bound by its imports (``ops``, ``nn.lstm``, ...)."""
    def is_nn(name):
        return name == "dialsql.nn" or name.startswith("dialsql.nn.")

    tree = ast.parse(source)
    modules, found = _module_names(tree, package), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")[:len(package.split(".")) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            if is_nn(base):
                found.update(alias.name for alias in node.names if alias.name.startswith("_"))
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and is_nn(_owner(node.value, modules) or ""):
            found.add(node.attr)
    return found


def test_no_module_reaches_a_private_op():
    """The ``_<name>`` helpers of ``dialsql.nn`` are private to
    ``src/dialsql/nn/``: another module calls a public op, or the helper
    becomes one."""
    assert _private_nn_uses("from .nn import ops\n"
                            "x = ops._join(parts, 0) + ops.concat(parts)") == {"_join"}
    assert _private_nn_uses("from .nn.lstm import _step") == {"_step"}
    assert _private_nn_uses("from .nn import lstm, ops\nimport dialsql.nn.optim as optim\n"
                            "lstm._gate_factors(); dialsql.nn.tensor._tls; optim._BETA1\n"
                            "lstm._step; ops.Tape._PAUSE; tape._entries\n"
                            "import dialsql\ndialsql.nn.tensor._tls\n") \
        == {"_gate_factors", "_BETA1", "_step", "_PAUSE", "_tls"}
    assert _private_nn_uses("from ..grammar import _private\nfrom .. import nn\n"
                            "nn.lstm._bptt", "dialsql.grammar") == {"_bptt"}
    assert _private_nn_uses("from .schema import _split\nschema._words") == set()
    found = {}
    package = Path(dialsql.__file__).parent
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        if parts[:2] == ("dialsql", "nn"):
            continue
        names = _private_nn_uses(path.read_text(encoding="utf-8"), ".".join(parts[:-1]))
        if names:
            found[path.relative_to(package).as_posix()] = sorted(names)
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
