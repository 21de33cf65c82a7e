"""Checks on the package's layout: which module owns the processes, and that
README's module table names every module."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clusterup"
PROCESS_CALLS = {("os", "fork"), ("os", "pipe"), ("os", "waitpid"), ("mmap", "mmap")}


def test_only_workers_starts_processes():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    callers = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and (func.value.id, func.attr) in PROCESS_CALLS):
                callers.setdefault(name, set()).add(f"{func.value.id}.{func.attr}")
    assert callers == {"workers.py": {"os.fork", "os.pipe", "os.waitpid", "mmap.mmap"}}

    imported = []
    for node in ast.walk(trees["workers.py"]):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not [m for m in imported if m.startswith((".", "clusterup"))], imported


def test_readme_names_every_module():
    # The first column of each row of the "Library layout" table names one
    # or more modules: `clusterup.config` / `checkpoint`.
    section = (ROOT / "README.md").read_text().split("## Library layout", 1)[1]
    rows = re.findall(r"^\| ([^|]*) \|", section.split("\n\n", 2)[1], re.MULTILINE)
    named = {re.sub(r"^clusterup\.", "", m) for row in rows for m in re.findall(r"`([^`]+)`", row)}
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules - named == set()
