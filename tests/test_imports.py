"""Every module-level import in the package, the tests, the demos and the
scripts is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/packdiag", "tests", "demos", "scripts")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that nothing in the module reads.

    A name listed in `__all__` counts as read; `from __future__` is exempt.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}"
            for name, line in sorted(bound.items(), key=lambda kv: (kv[1], kv[0]))
            if name not in used]


def test_scanner_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "import numpy as np\n"
              "from dataclasses import dataclass, field as dataclass_field\n"
              "from .errors import ConfigError\n"
              "__all__ = ['ConfigError']\n"
              "x = np.zeros(os.path.sep.count('/'))\n"
              "@dataclass\n"
              "class A:\n"
              "    n: int\n")
    assert unused_imports(source) == ["line 2: math", "line 5: dataclass_field"]


def test_no_unused_module_imports():
    hits = [f"{path.relative_to(ROOT)} {hit}"
            for d in SCANNED for path in sorted((ROOT / d).rglob("*.py"))
            for hit in unused_imports(path.read_text(encoding="utf-8"))]
    assert hits == []
