import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gpq"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of source (__future__ aside)
    that no expression in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def assert_lines(source: str) -> list[int]:
    """Lines of the assert statements in source: each is an exit-1 traceback
    when it fires, and python -O drops it."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom dataclasses import dataclass, field\n"
                          "@dataclass\nclass A:\n    x: int = os.sep\n") == ["field"]


def test_guard_sees_an_assert():
    assert assert_lines("def f(x):\n    if x:\n        assert x > 0\n") == [3]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(name):
    assert unused_imports((SRC / name).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_no_asserts(name):
    assert assert_lines((SRC / name).read_text(encoding="utf-8")) == []
