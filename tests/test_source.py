"""Source hygiene of the package, checked with ast (no linter is a dependency).

- No `assert` statement carries library logic: under `python -O` it vanishes.
- Every public module-level function and class of the package is referenced
  by name somewhere outside its own definition, in src/ or scripts/ (or
  pyproject.toml, for entry points): a test alone does not keep library code
  alive.
- No module in src/, scripts/ or tests/ imports a name it never uses.
- Within the package only geometry imports sympy, and only inside functions:
  importing the package does not import sympy.  No other import runs inside
  a function: a package module imports what it uses at its top.
- Only two places catch every exception: the check guard of the table
  verifier (dataset._guard), which tells a defect from a failed check, and
  the CLI's last resort (cli.main).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ncconic"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _uses(node: ast.AST, module: str | None) -> set[tuple[str | None, str]]:
    """(module, name) pairs that node refers to: names imported from a package
    module, names used inside the package module itself, and attribute names
    (module None: an attribute may belong to any module)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom) and sub.module:
            source = sub.module.rsplit(".", 1)[-1]
            out |= {(source, alias.name) for alias in sub.names}
        elif isinstance(sub, ast.Attribute):
            out.add((None, sub.attr))
        elif isinstance(sub, ast.Name) and module is not None:
            out.add((module, sub.id))
    return out


def test_no_assert_statements_in_package():
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in library code: {found}"


def _files(dirs=("src", "scripts", "tests")) -> list[Path]:
    return [p for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]


def test_every_public_definition_is_referenced():
    files = _files(("src", "scripts"))
    defined: list[tuple[str, str]] = []
    # console-script entry points name their functions in pyproject.toml
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    used = set(re.findall(r"ncconic\.(\w+):(\w+)", pyproject))
    for path in files:
        module = path.stem if path.parent == PACKAGE else None
        for top in _parse(path).body:
            if (
                module is not None
                and isinstance(top, (ast.FunctionDef, ast.ClassDef))
                and not top.name.startswith("_")
            ):
                defined.append((module, top.name))
                # a definition's own body does not count as a use of it
                used |= _uses(top, module) - {(module, top.name), (None, top.name)}
            else:
                used |= _uses(top, module)
    unused = sorted(
        f"{module}.{name}"
        for module, name in defined
        if (module, name) not in used and (None, name) not in used
    )
    assert not unused, f"public definitions nothing refers to: {unused}"


def test_no_unused_imports():
    found = []
    for path in _files():
        imported: dict[str, int] = {}
        used = set()
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    # `import a.b` binds `a`
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
        found += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert not found, f"imported names never used: {found}"


def _sympy_imports(node: ast.AST, in_function: bool = False):
    """(import node, whether it runs inside a function) for every import of
    sympy under node."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        names = []
    if any(name.split(".")[0] == "sympy" for name in names):
        yield node, in_function
    inside = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    for child in ast.iter_child_nodes(node):
        yield from _sympy_imports(child, inside)


def test_only_geometry_imports_sympy():
    # one boundary to sympy: every Scalar <-> sympy conversion is in geometry;
    # and it is imported on first use, so importing the package (every CLI
    # start) does not pay for it
    importers = set()
    at_import = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, in_function in _sympy_imports(_parse(path)):
            importers.add(path.stem)
            if not in_function:
                at_import.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert importers == {"geometry"}, importers
    assert not at_import, f"sympy imported at module import time: {at_import}"


def _function_imports(node: ast.AST, in_function: bool = False):
    """Every import statement under node that runs inside a function."""
    if in_function and isinstance(node, (ast.Import, ast.ImportFrom)):
        yield node
    inside = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    for child in ast.iter_child_nodes(node):
        yield from _function_imports(child, inside)


def test_package_imports_run_at_module_level():
    # sympy's first-use imports (the rule above) are the one exception
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        sympy = [node for node, _ in _sympy_imports(tree)]
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno}"
            for node in _function_imports(tree)
            if not any(node is s for s in sympy)
        ]
    assert not found, f"imports inside functions: {found}"


def _broad_handlers(node: ast.AST, where: str):
    """where (module.function) for each handler under node that catches
    Exception, BaseException or everything."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{where.split('.')[0]}.{child.name}"
        if isinstance(child, ast.ExceptHandler):
            caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
            if any(t is None or (isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")) for t in caught):
                yield f"{inner}:{child.lineno}"
        yield from _broad_handlers(child, inner)


def test_only_the_guard_and_the_cli_catch_every_exception():
    found = [
        site
        for path in sorted(PACKAGE.glob("*.py"))
        for site in _broad_handlers(_parse(path), path.stem)
    ]
    assert sorted(site.split(":")[0] for site in found) == ["cli.main", "dataset._guard"], found
