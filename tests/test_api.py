"""The top-level API is what the README's examples and the demos import."""

import ast
import re
from pathlib import Path

import cachecost

REPO = Path(__file__).resolve().parent.parent
ERRORS = {"ConfigError", "TraceFormatError", "InvariantViolation"}


def _top_level_imports(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "cachecost"
        for alias in node.names
    }


def test_all_is_what_readme_and_demos_import_plus_the_errors():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    used = set(ERRORS)
    for source in blocks + [p.read_text(encoding="utf-8") for p in (REPO / "demos").glob("*.py")]:
        used |= _top_level_imports(source)
    assert set(cachecost.__all__) == used
    assert len(cachecost.__all__) == len(used)


def test_every_exported_name_imports():
    namespace: dict = {}
    exec(f"from cachecost import {', '.join(cachecost.__all__)}", namespace)
    assert set(cachecost.__all__) <= namespace.keys()
