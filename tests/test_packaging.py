"""Packaging metadata: pyproject.toml, src layout, dynamic version;
and no definition under ``src/repro`` that nothing references."""

import ast
import re
import subprocess
import sys
import tomllib
from pathlib import Path

from setuptools import find_packages

REPO = Path(__file__).resolve().parent.parent

#: where a reference to a ``src/repro`` definition may live
REFERENCE_ROOTS = ("src", "tests", "benchmarks", "perfbench", "examples")


def load_pyproject() -> dict:
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_pyproject_names_the_package():
    data = load_pyproject()
    assert data["project"]["name"] == "repro"
    assert "version" in data["project"]["dynamic"]
    attr = data["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "repro._version.__version__"


def test_src_layout_discovers_every_package():
    data = load_pyproject()
    assert data["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    found = set(find_packages(where=str(REPO / "src")))
    assert "repro" in found
    assert "repro.sat" in found, "the SAT subsystem must ship"
    assert "repro.api" in found
    assert "repro.netlist" in found


def test_setup_py_resolves_metadata_offline():
    # the classic path (no wheel needed) must read name and the dynamic
    # version straight from pyproject.toml
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = [l for l in out.stdout.strip().splitlines() if l and not l.startswith("/")]
    from repro._version import __version__

    assert lines[-2:] == ["repro", __version__]


def test_every_definition_is_referenced():
    # every function, method and class under src/repro must be named as
    # a whole word on some line other than a line that defines that
    # name (dunder methods are called by the interpreter, so they are
    # skipped); a definition nothing names is dead code
    lines: dict[tuple[Path, int], str] = {}
    for root in REFERENCE_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                lines[path, lineno] = line
    def_lines: dict[str, set[tuple[Path, int]]] = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    def_lines.setdefault(node.name, set()).add(
                        (path, node.lineno))
    words = re.compile(r"\w+")
    referenced = set()
    for where, line in lines.items():
        for word in set(words.findall(line)) & def_lines.keys():
            if where not in def_lines[word]:
                referenced.add(word)
    unreferenced = sorted(def_lines.keys() - referenced)
    assert not unreferenced, "unreferenced: " + ", ".join(unreferenced)


def test_no_unused_imports():
    # every name a module's top-level imports bind must be read somewhere
    # in that module; package ``__init__`` files re-export, so they are
    # skipped, and ``__future__`` imports bind no usable name
    unused = []
    for root in ("src/repro", "tests"):
        for path in sorted((REPO / root).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            imported: dict[str, int] = {}
            for node in tree.body:
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if isinstance(node, ast.ImportFrom) and (
                        node.module == "__future__"):
                    continue
                for alias in node.names:
                    if alias.name != "*":
                        name = alias.asname or alias.name.split(".")[0]
                        imported[name] = node.lineno
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
            unused += [
                f"{path.relative_to(REPO)}:{lineno} {name}"
                for name, lineno in imported.items() if name not in used
            ]
    assert not unused, "unused imports: " + ", ".join(unused)
