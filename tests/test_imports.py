"""Every module-level import in the package is used by its module, and only
container.py packs or unpacks bytes."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sdfshapes"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_detector_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport sys\nfrom dataclasses import dataclass, field as f\n"
              "@dataclass\nclass A:\n    x: int = 0\n"
              "def g():\n    return sys.argv\n")
    assert unused_imports(source) == [(2, "os"), (4, "f")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def byte_framing(source: str):
    """Lines that import struct or call frombuffer."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if "struct" in names or "frombuffer" in names:
            lines.append(node.lineno)
    return sorted(lines)


def test_framing_detector():
    source = ("import os\nimport struct\nfrom struct import pack\n"
              "import numpy as np\nx = np.frombuffer(b'', 'u1')\ny = np.zeros(1)\n")
    assert byte_framing(source) == [2, 3, 5]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "container.py"], ids=lambda p: p.name)
def test_only_container_frames_bytes(path):
    assert byte_framing(path.read_text(encoding="utf-8")) == []
