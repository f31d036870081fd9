"""Every cache that outlives a call is declared, and so is every piece of
state kept on a value.  A cache across calls can show a benchmark gain
between ops that a user running each input once would not see, so the
perfbench README ("Repeated inputs") asks each one to be named; state set on
a value outside its constructor arguments (a dataclass field declared
`init=False`) is derived from those arguments, is named beside the memos,
and is written by one function.  The README's memo paragraph names them all."""

import ast
from pathlib import Path

import frsurf

PACKAGE = Path(frsurf.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def _name(node):
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def _memoized(tree):
    """Names of the functions decorated with functools.lru_cache or cache."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_name(dec) in ("lru_cache", "cache") for dec in node.decorator_list):
                yield node.name


def _kept_fields(tree):
    """Class-qualified names of the dataclass fields declared with
    field(init=False)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                value = getattr(stmt, "value", None)
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(value, ast.Call)
                    and _name(value) == "field"
                    and any(
                        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
                        for kw in value.keywords
                    )
                ):
                    yield f"{node.name}.{stmt.target.id}"


def _memo_paragraph():
    return next(
        p for p in README.read_text(encoding="utf-8").split("\n\n") if "pure functions" in p and "memo" in p
    )


def _declared(collect):
    return {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in collect(ast.parse(path.read_text(encoding="utf-8")))
    }


def test_declared_memos():
    found = _declared(_memoized)
    assert found == {"padic._power", "padic._chunk_tables", "graphs._factored", "rationals.parse_rational"}
    paragraph = _memo_paragraph()
    for name in found:
        assert f"`{name}`" in paragraph, name


def test_declared_state_on_values():
    found = {name.split(".", 1)[1] for name in _declared(_kept_fields)}
    assert found == {"LogPair._surgery", "LogPair.den", "LogPair.num"}
    paragraph = _memo_paragraph()
    for name in found:
        assert f"`{name}`" in paragraph, name


def _writers(tree, module):
    """(field, module.function) for each object.__setattr__(obj, "<field>", ...)
    call, named by the innermost function that makes it."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and _name(child) == "__setattr__"
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "object"
                and len(child.args) == 3
                and isinstance(child.args[1], ast.Constant)
            ):
                found.add((child.args[1].value, f"{module}.{function}"))
            visit(child, function)

    visit(tree, None)
    return found


def test_each_kept_field_has_one_writer():
    kept = {name.rsplit(".", 1)[1] for name in _declared(_kept_fields)}
    writers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for field_name, function in _writers(ast.parse(path.read_text(encoding="utf-8")), path.stem):
            if field_name in kept:
                writers.setdefault(field_name, set()).add(function)
    assert writers == {
        "_surgery": {"bstar.surgery"},
        "den": {"graphs.__post_init__"},
        "num": {"graphs.__post_init__"},
    }
