"""Packaging: the library declares every third-party module it imports,
and loads networkx only where a graph is built."""

from __future__ import annotations

import ast
import os
import re
import subprocess
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


def test_radio_less_paths_do_not_load_networkx():
    # Only network runs build or search a graph; the offline, streaming
    # and duty-cycled runners and the paper drivers import without it.
    code = (
        "import sys\n"
        "import repro.scenario.runner, repro.scenario.streaming\n"
        "import repro.analysis.experiments\n"
        "sys.exit('networkx' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr or "networkx was imported"
