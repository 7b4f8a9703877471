"""Module hygiene: no module of the package imports another's private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heafusion"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_imports_across_modules():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("heafusion"):
                continue
            offenders.extend(
                f"{path.name}:{node.lineno}: {alias.name} from {'.' * node.level}{node.module or ''}"
                for alias in node.names
                if _private(alias.name)
            )
    assert offenders == []
