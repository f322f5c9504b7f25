"""Every third-party package ``src/repro`` imports is a declared dependency."""

from __future__ import annotations

import ast
import importlib.util
import re
import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STDLIB = Path(sysconfig.get_paths()["stdlib"]).resolve()


def _declared() -> set:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.S | re.M)
    assert block is not None, "pyproject.toml has no dependencies list"
    return {
        re.split(r"[<>=!~;\[ ]", spec.strip())[0].lower().replace("-", "_")
        for spec in re.findall(r'"([^"]+)"', block.group(1))
    }


def _is_stdlib(name: str) -> bool:
    spec = importlib.util.find_spec(name)
    if spec is None:
        return False
    if spec.origin in ("built-in", "frozen"):
        return True
    origin = Path(spec.origin or next(iter(spec.submodule_search_locations or []), ""))
    resolved = origin.resolve()
    return STDLIB in resolved.parents and "site-packages" not in resolved.parts


def _imported_top_levels() -> dict:
    found: dict = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], path.relative_to(ROOT).as_posix())
    return found


def test_third_party_imports_are_declared():
    declared = _declared()
    undeclared = {
        name: where
        for name, where in _imported_top_levels().items()
        if name not in ("repro", "__future__")
        and not _is_stdlib(name)
        and name.lower() not in declared
    }
    assert undeclared == {}, f"imported but not declared in pyproject.toml: {undeclared}"
