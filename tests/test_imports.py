"""The package's modules import one another at module level only, and
without a cycle: each module can be read after the modules it imports."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "intdiffop"


def modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_no_import_inside_a_function():
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in modules().items()
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def test_the_package_imports_form_no_cycle():
    # every relative import counts, at module level or not
    graph = {
        name: {
            dep for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
            for dep in ([node.module] if node.module else [a.name for a in node.names])
        }
        for name, tree in modules().items()
    }
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle {exc.args[1]}") from None
    assert order.index("sparse") < order.index("i1") < order.index("tensor") < order.index("opparser")
