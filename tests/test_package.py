"""Tests for the package's layout: its modules import one another without a cycle."""

import ast
from pathlib import Path

import rydgate

PACKAGE = Path(rydgate.__file__).parent
MODULES = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}


def parsed(name: str) -> ast.Module:
    return ast.parse(MODULES[name].read_text(), filename=str(MODULES[name]))


def relative_imports(tree: ast.Module) -> set:
    """The package modules that a module's `from .x import` and `from .
    import x` statements name, wherever they stand."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            imported.update(name.split(".")[0] for name in names if name.split(".")[0] in MODULES)
    return imported


def function_imports(tree: ast.Module) -> list:
    """The line numbers of the import statements inside function bodies."""
    return [
        inner.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]


class TestImportGraph:
    def test_reads_module_and_function_level_imports(self):
        tree = ast.parse(
            "from .model import x\nfrom . import errors\ndef f():\n    from .metrics import y\n"
        )
        assert relative_imports(tree) == {"model", "errors", "metrics"}
        assert function_imports(tree) == [4]

    def test_no_module_imports_inside_a_function(self):
        found = {name: function_imports(parsed(name)) for name in MODULES}
        assert {name: lines for name, lines in found.items() if lines} == {}

    def test_the_intra_package_import_graph_is_acyclic(self):
        graph = {name: relative_imports(parsed(name)) for name in MODULES}
        # Depth-first search: a module met again while on the path closes a cycle.
        done, path = set(), []

        def visit(name):
            assert name not in path, f"import cycle: {' -> '.join(path + [name])}"
            if name in done:
                return
            path.append(name)
            for imported in sorted(graph[name]):
                visit(imported)
            path.pop()
            done.add(name)

        for name in graph:
            visit(name)
        assert graph["propagate"] and graph["stochastic"]
