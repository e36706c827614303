"""Packaging: the library declares every third-party module it imports."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _declared() -> set[str]:
    """Names in pyproject's ``[project] dependencies`` list.

    Read as text, so the test also runs on Python 3.10 (no ``tomllib``).
    """
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert block is not None, "pyproject.toml declares no dependencies"
    return {
        re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0].lower()
        for spec in re.findall(r'"([^"]+)"', block.group(1))
    }


def _third_party_imports() -> set[str]:
    """Top-level package of every absolute import under ``src/``."""
    found: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(str(node.module).partition(".")[0])
    return found - set(sys.stdlib_module_names) - {"repro"}


def test_every_third_party_import_is_declared():
    imported = _third_party_imports()
    assert {"numpy", "scipy"} <= imported
    missing = imported - _declared()
    assert not missing, f"imported by src/ but not declared in pyproject: {missing}"
