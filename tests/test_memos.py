"""Every cache that outlives a call is declared.  A cache across calls can
show a benchmark gain between ops that a user running each input once would
not see, so the perfbench README ("Repeated inputs") asks each one to be
named; the README's memo paragraph names them."""

import ast
from pathlib import Path

import frsurf

PACKAGE = Path(frsurf.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def _memoized(tree):
    """Names of the functions decorated with functools.lru_cache or cache."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in ("lru_cache", "cache"):
                    yield node.name


def test_declared_memos():
    found = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _memoized(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {"padic._power", "padic._chunk_tables"}
    paragraph = next(
        p for p in README.read_text(encoding="utf-8").split("\n\n") if "pure functions" in p and "memo" in p
    )
    for name in found:
        assert f"`{name}`" in paragraph, name
