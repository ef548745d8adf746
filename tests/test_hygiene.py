"""Source checks that need only the standard library."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "xms"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_unused_import_check_sees_its_cases():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "from .errors import ConfigError\n"
        "__all__ = ['ConfigError']\n"
        "def f():\n"
        "    import math\n"
        "    return os.path.join(dumps(1), str(math.pi))\n"
    )
    assert unused_imports(source) == ["line 3: np", "line 4: loads"]


def test_no_unused_imports():
    # the package's __init__ imports only to re-export
    modules = sorted(path for path in PACKAGE.rglob("*.py") if path != PACKAGE / "__init__.py")
    assert len(modules) > 10
    found = {
        str(path.relative_to(PACKAGE)): names
        for path in modules
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}
