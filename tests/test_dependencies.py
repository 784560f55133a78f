import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

ROOT = pathlib.Path(__file__).resolve().parents[1]


def third_party_imports() -> set:
    """The top-level names of the modules src/momentalign imports from outside
    the standard library, at module level or inside a function."""
    names = set()
    for path in (ROOT / "src" / "momentalign").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names
            if name not in sys.stdlib_module_names and name != "momentalign"}


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"]}
    imported = third_party_imports()
    assert {"numpy", "orjson"} <= imported  # orjson is imported inside a function
    assert imported <= declared, f"imported but not declared: {sorted(imported - declared)}"
