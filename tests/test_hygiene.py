"""Source checks: unused imports, orphaned private helpers, private names taken from
``xms.methods`` by other modules, and the module attributes the benchmark's tracer patches."""

import ast
import importlib
import types
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "xms"
CALLTRACE = PACKAGE.parent.parent / "benchmarks" / "calltrace.py"


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


def names_read(node: ast.AST):
    """Every name read under ``node``: bare names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def orphaned_private_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes (a leading underscore, not a dunder) that no
    module of ``sources`` reads outside their own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = Counter(name for tree in trees.values() for name in names_read(tree))
    return [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and read[node.name] == Counter(names_read(node))[node.name]
    ]


def test_orphaned_private_helper_check_sees_its_cases():
    sources = {
        "a.py": (
            "def _orphan():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "def _called():\n"
            "    return 2\n"
            "def _imported():\n"
            "    return 3\n"
            "class _Patched:\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    return _called()\n"
            "def public():\n"
            "    def _nested():\n"
            "        return 4\n"
            "    return 5\n"
        ),
        "b.py": "from .a import _imported\nimport a\na._Patched = None\n",
    }
    assert orphaned_private_helpers(sources) == ["a.py: _orphan", "a.py: _recursive"]


def test_no_orphaned_private_helpers():
    sources = {str(path.relative_to(PACKAGE)): path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}
    assert len(sources) > 10
    assert orphaned_private_helpers(sources) == []


def private_method_imports(sources: dict[str, str]) -> list[str]:
    """Underscore-prefixed names that a module outside ``xms.methods`` imports from ``xms.methods``
    or one of its submodules; ``sources`` maps paths under ``src/``, such as ``xms/bench.py``, to
    their source.  Every other module reaches the method layer through its public names."""
    found = []
    for path, source in sources.items():
        package = path.split("/")[:-1]
        if package[:2] == ["xms", "methods"]:
            continue
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = package[: len(package) + 1 - node.level] if node.level else []
            module = ".".join(base + (node.module.split(".") if node.module else []))
            if module == "xms.methods" or module.startswith("xms.methods."):
                found += [f"{path}: {module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_private_method_import_check_sees_its_cases():
    sources = {
        "xms/bench.py": (
            "from .methods import SplitContext, _check_dim\n"
            "from .methods.model import _own_config\n"
            "from .dataset_io import _integer_labels\n"
            "from . import methods\n"
        ),
        "xms/methods/gma.py": "from .model import _fit_closed_form\nfrom ..methods import _pca_options\n",
        "xms/tools/probe.py": "from ..methods import _pca_options, fit_method\nfrom xms.methods.gma import _blm_blocks\n",
    }
    assert private_method_imports(sources) == [
        "xms/bench.py: xms.methods._check_dim",
        "xms/bench.py: xms.methods.model._own_config",
        "xms/tools/probe.py: xms.methods._pca_options",
        "xms/tools/probe.py: xms.methods.gma._blm_blocks",
    ]


def test_no_private_method_imports():
    # a fit request is checked by one public function, check_request, at every entrance
    sources = {str(path.relative_to(PACKAGE.parent)): path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}
    assert len(sources) > 10
    assert private_method_imports(sources) == []


def test_every_trace_patch_point_resolves():
    # the traced benchmark wraps each (module, attribute) pair; a refactor that drops one
    # otherwise shows only as "layers missing" in a traced run.  Executed from its source,
    # so no bytecode cache is written next to it.
    calltrace = types.ModuleType("calltrace")
    exec(compile(CALLTRACE.read_text(), str(CALLTRACE), "exec"), calltrace.__dict__)
    assert calltrace.PATCH_POINTS
    unresolved = [
        f"{module}.{attr}"
        for module, attr, _, _ in calltrace.PATCH_POINTS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert unresolved == []
