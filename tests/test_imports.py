"""Every module-level import in the package is used by its module, every
module-level private name is read somewhere in the package, only
container.py packs or unpacks bytes or lands files on disk, and only blas.py
reads the machine's cores and physical memory."""

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


def unread_private_names(sources: dict):
    """(module, name) of the private names that a module binds at module level
    (def, class or assignment; dunders aside) and that no module of
    `sources`, a {module: source} map, reads as a name or an attribute."""
    bound, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            bound += [(module, n) for n in names
                      if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in bound if name[1] not in read)


def test_private_name_detector():
    sources = {"a.py": ("import b\n_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
                        "def _f():\n    return _A\n"
                        "class _K:\n    pass\n"
                        "def _g():\n    _local = 1\n    return _local\n"),
               "b.py": "import a\nx = a._K\ny = a._f()\n"}
    assert unread_private_names(sources) == [("a.py", "_B"), ("a.py", "_C"),
                                             ("a.py", "_g")]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


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

RESOURCE_READS = {"physical_memory", "usable_cores", "sysconf", "sched_getaffinity",
                  "cpu_count"}


def resource_reads(source: str):
    """Lines that name a reader of the machine's cores or physical memory,
    as a name, an attribute or an imported name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        else:
            continue
        if RESOURCE_READS.intersection(names):
            lines.append(node.lineno)
    return sorted(lines)


def test_resource_read_detector():
    source = ("import os\nfrom .blas import physical_memory, pool_map\n"
              "n = os.cpu_count()\nm = blas.usable_cores()\nk = len(sched_getaffinity(0))\n"
              "p = os.sysconf('SC_PHYS_PAGES')\nq = blas.worker_count()\n"
              "'physical memory and usable cores'\n")
    assert resource_reads(source) == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "blas.py"], ids=lambda p: p.name)
def test_only_blas_sizes_resources(path):
    assert resource_reads(path.read_text(encoding="utf-8")) == []



def file_landings(source: str):
    """The source text of every call that puts bytes in a file, in source
    order: os.replace, os.rename, write_bytes, write_text, and open with a
    write or append mode or with a mode that is not a literal."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        method = isinstance(f, ast.Attribute)
        name = f.attr if method else getattr(f, "id", None)
        if name == "open":
            at = 0 if method else 1  # path.open(mode), open(file, mode)
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[at] if len(node.args) > at else ast.Constant("r"))
            lands = not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))
        else:
            lands = name in ("write_bytes", "write_text") or (
                method and name in ("replace", "rename")
                and isinstance(f.value, ast.Name) and f.value.id == "os")
        if lands:
            calls.append(node)
    return [ast.unparse(n) for n in sorted(calls, key=lambda n: (n.lineno, n.col_offset))]


def test_file_landing_detector():
    source = ("import os\nfrom dataclasses import replace\n"
              "a = open(p)\nb = open(p, 'rb')\nc = open(p, 'w', encoding='utf-8')\n"
              "d = open(p, mode='ab')\ne = open(p, m)\nf = Path(p).open('r+')\n"
              "g = Path(p).open()\nPath(p).write_bytes(b'')\nq.write_text(t)\n"
              "os.replace(a, b)\nos.rename(a, b)\ns = 'x'.replace('x', 'y')\n"
              "k = replace(cfg, epochs=0)\nh = Path(p).read_text()\n")
    assert file_landings(source) == [
        "open(p, 'w', encoding='utf-8')", "open(p, mode='ab')", "open(p, m)",
        "Path(p).open('r+')", "Path(p).write_bytes(b'')", "q.write_text(t)",
        "os.replace(a, b)", "os.rename(a, b)"]


# train appends its metrics CSV row by row, as the run's progress log
LANDING_EXCEPTIONS = {"training.py": ["open(metrics, mode, encoding='utf-8')"]}


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "container.py"], ids=lambda p: p.name)
def test_only_container_lands_files(path):
    assert file_landings(path.read_text(encoding="utf-8")) == LANDING_EXCEPTIONS.get(path.name, [])
