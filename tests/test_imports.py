"""Module hygiene: no module of the package imports another's private
names, the package's modules import each other without a cycle, and every
import sits at module level."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heafusion"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _trees() -> dict[str, ast.Module]:
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _targets(node: ast.AST, modules: set[str]) -> list[str]:
    """The package modules an import statement loads; a name imported from
    the package itself that is no module comes from `__init__`."""
    if isinstance(node, ast.Import):
        parts = [alias.name.split(".") for alias in node.names]
        return [p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "heafusion"]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "heafusion":
            return []
        rest = parts[1:]
    else:
        rest = node.module.split(".") if node.module else []
    if rest:
        return [rest[0]]
    return [alias.name if alias.name in modules else "__init__" for alias in node.names]


def import_graph() -> dict[str, set[str]]:
    """Module -> the package modules it imports, at module level or in a
    function body."""
    trees = _trees()
    modules = set(trees)
    return {
        name: {t for node in ast.walk(tree) for t in _targets(node, modules) if t != name}
        for name, tree in trees.items()
    }


def find_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One import cycle as a path of modules, or [] when the graph is a DAG."""
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(node: str) -> list[str]:
        state[node] = 1
        path.append(node)
        for succ in sorted(graph.get(node, ())):
            if state.get(succ) == 1:
                return path[path.index(succ):] + [succ]
            if succ not in state:
                cycle = visit(succ)
                if cycle:
                    return cycle
        path.pop()
        state[node] = 2
        return []

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return []


def test_no_private_imports_across_modules():
    offenders = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("heafusion"):
                continue
            offenders.extend(
                f"{name}.py:{node.lineno}: {alias.name} from {'.' * node.level}{node.module or ''}"
                for alias in node.names
                if _private(alias.name)
            )
    assert offenders == []


def test_import_graph_is_acyclic():
    graph = import_graph()
    assert find_cycle(graph) == []
    assert graph["evaluation"] >= {"fusion", "inference"}


def test_find_cycle_reports_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []


def test_no_imports_inside_functions():
    offenders = set()
    for name, tree in _trees().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                offenders.update(
                    f"{name}.py:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert sorted(offenders) == []
