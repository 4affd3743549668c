"""Code that only tests call belongs in tests/: every non-dunder function,
method and property of a src/h2plus module is named in src/, scripts/ or
perfbench/ outside its own body.  A method counts only as an attribute
(`x.coeffs`), so that a local variable of its name does not keep it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ("module:qualified name", reason it stays although the program never names it)
EXEMPT = ()


def _definitions(path):
    """('module:qualified name', node, is a method) of each function and method."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(top, ast.FunctionDef):
            yield f"{path.stem}:{top.name}", top, False
        for member in top.body if isinstance(top, ast.ClassDef) else ():
            if isinstance(member, ast.FunctionDef):
                yield f"{path.stem}:{top.name}.{member.name}", member, True


def test_every_definition_is_used_outside_tests():
    uses = {}  # name -> [(path, line, is an attribute)]
    for path in (p for top in ("src", "scripts", "perfbench") for p in (ROOT / top).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute)):
                attribute = isinstance(node, ast.Attribute)
                name = node.attr if attribute else node.id
                uses.setdefault(name, []).append((path, node.lineno, attribute))
    unused, exempt = [], dict(EXEMPT)
    for path in sorted((ROOT / "src" / "h2plus").glob("*.py")):
        for key, node, method in _definitions(path):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or exempt.pop(key, None):
                continue
            if not any((attribute or not method)
                       and (user != path or not node.lineno <= line <= node.end_lineno)
                       for user, line, attribute in uses.get(name, ())):
                unused.append(key)
    assert not unused, "named only in tests or nowhere: " + ", ".join(unused)
    assert not exempt, f"exempt but not defined: {sorted(exempt)}"
