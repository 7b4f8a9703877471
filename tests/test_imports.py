"""Module hygiene: no module of the package imports another's private
names, the package's modules import each other without a cycle, every
import sits at module level, one module reads CSV and one module knows
the key layout."""

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


_CSV_READERS = ("reader", "DictReader")


def csv_readers(tree: ast.Module) -> list[int]:
    """Lines that name a reader of the csv module: `csv.reader`,
    `csv.DictReader` or an import of either from csv."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _CSV_READERS
        and isinstance(node.value, ast.Name) and node.value.id == "csv"
        or isinstance(node, ast.ImportFrom) and node.module == "csv"
        and any(alias.name in _CSV_READERS for alias in node.names)
    ]


def test_only_alloys_reads_csv():
    """Every input format goes through `alloys.read_blocks`, so its header,
    encoding and width checks cannot fork."""
    trees = _trees()
    assert csv_readers(trees["alloys"])
    offenders = [f"{name}.py:{line}" for name, tree in trees.items() if name != "alloys" for line in csv_readers(tree)]
    assert offenders == []
    assert csv_readers(ast.parse("import csv\nrows = csv.reader(fh)\n")) == [2]
    assert csv_readers(ast.parse("from csv import DictReader\n")) == [1]


# calls that turn a sequence of symbols into bit positions
_BIT_NAMERS = ("enumerate", "reindexed", "counts_to_store", "SimilarityStore")


def _names_universe(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == "universe" or isinstance(n, ast.Attribute) and n.attr == "universe"
        for n in ast.walk(node)
    )


def universe_bit_maps(tree: ast.Module) -> list[int]:
    """Lines that name mask bits after a universe: a call of `enumerate`,
    `reindexed`, `counts_to_store` or `SimilarityStore` with an argument
    that names a `universe`."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)) in _BIT_NAMERS
        and any(_names_universe(arg) for arg in (*node.args, *(k.value for k in node.keywords)))
    ]


def test_only_alloys_maps_a_universe_to_bits():
    """`Dataset.element_index` defines the one bit order (sorted symbols),
    so no other module may derive bits from a universe's own order."""
    trees = _trees()
    assert universe_bit_maps(trees["alloys"])
    offenders = [
        f"{name}.py:{line}" for name, tree in trees.items() if name != "alloys" for line in universe_bit_maps(tree)
    ]
    assert offenders == []
    assert universe_bit_maps(ast.parse("index = {e: i for i, e in enumerate(ds.universe)}\n")) == [1]
    assert universe_bit_maps(ast.parse("bits = dict(enumerate(sorted(universe)))\n")) == [1]
    assert universe_bit_maps(ast.parse("store.reindexed(dataset.universe)\n")) == [1]
    assert universe_bit_maps(ast.parse("md.counts_to_store(c, 0.1, elements=ds.universe)\n")) == [1]
    assert universe_bit_maps(ast.parse("store.reindexed(dataset.bit_names)\nenumerate(elements)\n")) == []


_POPCOUNT_CALLERS = {"md_evidence.informative_pairs", "md_evidence.largest_side"}


def popcount_callers(tree: ast.Module, module: str) -> set[str]:
    """`module.function` of every function that calls `bitwise_count`
    (`np.bitwise_count` or the name imported from numpy); a call outside
    any function counts as `module.<module>`."""
    callers = set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{module}.{node.name}"
        elif isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute) and node.func.attr == "bitwise_count"
            or isinstance(node.func, ast.Name) and node.func.id == "bitwise_count"
        ):
            callers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, f"{module}.<module>")
    return callers


def test_one_informative_pair_predicate():
    """Only the pair generator counts the elements of masks to decide
    which pairs are informative (`md_evidence.largest_side` sizes store keys),
    so the scan, the kernel and the γ estimate cannot fork the predicate."""
    callers = set().union(*(popcount_callers(tree, name) for name, tree in _trees().items()))
    assert callers == _POPCOUNT_CALLERS
    source = "def f(m):\n    return np.bitwise_count(m)\nclass K:\n    def g(self):\n        return bitwise_count(1)\n"
    assert popcount_callers(ast.parse(source), "m") == {"m.f", "m.g"}
    assert popcount_callers(ast.parse("n = numpy.bitwise_count(x)\n"), "m") == {"m.<module>"}


_HALF_MASK = (1 << 32) - 1


def _is_32(node: ast.AST) -> bool:
    """A literal 32, bare or wrapped in one call such as `np.uint64(32)`."""
    if isinstance(node, ast.Call) and len(node.args) == 1:
        node = node.args[0]
    return isinstance(node, ast.Constant) and node.value == 32


def key_layout_literals(tree: ast.Module) -> list[int]:
    """Lines that spell out the key layout: a shift by a literal 32 or the
    literal 0xFFFFFFFF, the two halves of a packed key word."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.LShift, ast.RShift))
        and _is_32(node.right if isinstance(node, ast.BinOp) else node.value)
        or isinstance(node, ast.Constant) and type(node.value) is int and node.value == _HALF_MASK
    )


def test_only_md_evidence_knows_the_key_layout():
    """A key word packs word w of both side masks, 32 bits each; only
    `md_evidence` may split it, through its `_WORD` and `_LOW`, so the
    layout cannot fork."""
    offenders = [
        f"{name}.py:{line}" for name, tree in _trees().items() if name != "md_evidence"
        for line in key_layout_literals(tree)
    ]
    assert offenders == []
    source = "a = k >> np.uint64(32)\nb = k & np.uint64(0xFFFFFFFF)\nc = 1 << 32\nd <<= 32\ne = k >> 31\n"
    assert key_layout_literals(ast.parse(source)) == [1, 2, 3, 4]


def constructor_calls(tree: ast.Module, name: str) -> list[int]:
    """Lines that call `name`, bare or as an attribute such as
    `md_evidence.CombinationPair`."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == name
            or isinstance(node.func, ast.Attribute) and node.func.attr == name
        )
    )


def test_analysis_builds_no_pair_objects():
    """The distance matrices look pairs up a block of key rows at a time,
    so `analysis` constructs no `CombinationPair`."""
    assert constructor_calls(_trees()["analysis"], "CombinationPair") == []
    source = "p = CombinationPair(a, b)\nq = md_evidence.CombinationPair(a, b)\nr = pairs(a)\n"
    assert constructor_calls(ast.parse(source), "CombinationPair") == [1, 2]


def _called_names(node: ast.AST) -> set[str]:
    """Names of the calls inside a node: `f(...)` and `x.f(...)` call `f`."""
    return {
        call.func.id if isinstance(call.func, ast.Name) else call.func.attr
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))
    }


def permutation_sorts(tree: ast.Module, root: str) -> tuple[set[str], set[str]]:
    """The module-level functions that `root` reaches through calls of
    module-level functions, and those of them that call `argsort` or
    `lexsort` (by name or as an attribute)."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in functions and name not in reached:
            reached.add(name)
            todo.extend(_called_names(functions[name]))
    return reached, {name for name in reached if _called_names(functions[name]) & {"argsort", "lexsort"}}


def test_pair_counts_sort_by_value():
    """The scan counts pairs by sorting their key values, never by a
    permutation, so `pair_counts` and the merge it calls make no `argsort`
    or `lexsort` call."""
    reached, sorting = permutation_sorts(_trees()["md_evidence"], "pair_counts")
    assert {"pair_counts", "informative_pairs", "_batch_counts", "_merge", "_runs"} <= reached
    assert sorting == set()
    source = "def f(k):\n    return g(k) + k.h()\ndef g(k):\n    return np.argsort(k)\ndef h(k):\n    return lexsort(k)\n"
    assert permutation_sorts(ast.parse(source), "f") == ({"f", "g", "h"}, {"g", "h"})
