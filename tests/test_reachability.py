"""Reachability ratchet: every module under ``src/repro/`` is imported —
directly, lazily or through a chain of imports — by the CLI.

A module nothing reads is surface the test matrix, the linter and every
refactor pay for without a user.  The walk is static (AST, so a
function-level ``import`` counts as much as a module-level one) and starts
at the two entry points.  A re-export does not make a reader: an import in
an ``__init__.py`` counts only when that file *uses* the imported name in
code (``eig/__init__`` building ``SOLVERS``), not when it merely lists it
in ``__all__``.  The allowlist is empty on purpose — wire a new module to a
command, a solve / serve path or a gated document, or do not add it.
"""

import ast
import pathlib

from tests import execution_census as census

SRC = pathlib.Path(__file__).parent.parent / "src"
ROOTS = ("repro.cli", "repro.__main__")

#: module -> why it may exist without a reader
ALLOWED: dict[str, str] = {}


def _modules(root: pathlib.Path, package: str) -> dict[str, pathlib.Path]:
    out = {}
    for path in sorted((root / package).rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        out[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return out


def _imports(tree: ast.AST):
    """``(module, name | None, bound name)`` per absolute import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.name, None, (a.asname or a.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                yield node.module, a.name, a.asname or a.name


def import_graph(root: pathlib.Path, package: str) -> dict[str, set[str]]:
    """``module -> modules of `package` it reads`` for every ``.py`` file
    under ``root/package``.  ``from pkg import name`` reads the module that
    defines ``name`` (looked up through ``pkg/__init__``'s own imports), and
    importing a sub-module also runs each parent package's ``__init__``."""
    modules = _modules(root, package)
    trees = {name: ast.parse(path.read_text()) for name, path in modules.items()}
    inits = {name for name, path in modules.items() if path.name == "__init__.py"}
    exports = {
        name: {bound: (mod, orig) for mod, orig, bound in _imports(trees[name]) if orig}
        for name in inits
    }

    def resolve(module: str, name: str | None) -> str:
        if name is None:
            return module
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        if name in exports.get(module, {}):
            return resolve(*exports[module][name])
        return module

    graph: dict[str, set[str]] = {}
    for name, tree in trees.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        edges: set[str] = set()
        for module, orig, bound in _imports(tree):
            target = resolve(module, orig)
            if target in modules and (name not in inits or bound in used):
                parts = target.split(".")
                edges.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        graph[name] = edges - {name}
    return graph


def unreachable(graph: dict[str, set[str]], roots=ROOTS) -> list[str]:
    seen, stack = set(), [r for r in roots if r in graph]
    while stack:
        module = stack.pop()
        if module not in seen:
            seen.add(module)
            stack.extend(graph[module] - seen)
    return sorted(set(graph) - seen)


def test_every_module_has_a_reader():
    orphans = [m for m in unreachable(import_graph(SRC, "repro")) if m not in ALLOWED]
    assert not orphans, (
        "no import chain from repro.cli reaches these modules (an __init__ "
        f"re-export is not a reader) — wire them to a reader or delete them: {orphans}"
    )
    assert not ALLOWED, "the allowlist stays empty"


#: the execution census's allowlist may only shrink: lower this with it
CENSUS_ALLOWED_MAX = 18


def test_census_allowlist_only_shrinks():
    """Static half of ``tests/execution_census.py``: every allowlisted
    function exists, each for a reason from the closed set, and there are
    no more of them than before."""
    functions = census.functions()
    assert not [key for key in census.ALLOWLIST if key not in functions], "stale entries"
    assert {key: why for key, why in census.ALLOWLIST.items() if why not in census.REASONS} == {}
    assert len(census.ALLOWLIST) <= CENSUS_ALLOWED_MAX


def test_graph_builder_finds_the_orphan(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    # re-exports both; only `used` is read by code in the __init__
    (pkg / "__init__.py").write_text("")
    (pkg / "sub" / "__init__.py").write_text(
        "from pkg.sub.used import f\nfrom pkg.sub.orphan import g\n"
        "TABLE = {'f': f}\n__all__ = ['f', 'g', 'TABLE']\n"
    )
    (pkg / "sub" / "used.py").write_text("def f(): pass\n")
    (pkg / "sub" / "orphan.py").write_text("def g(): pass\n")
    (pkg / "cli.py").write_text("def main():\n    from pkg.sub import TABLE\n    return TABLE\n")
    graph = import_graph(tmp_path, "pkg")
    assert graph["pkg.cli"] == {"pkg", "pkg.sub"}  # the lazy import is followed
    assert graph["pkg.sub"] == {"pkg", "pkg.sub.used"}
    assert unreachable(graph, roots=("pkg.cli",)) == ["pkg.sub.orphan"]
    # a reader appears -> the orphan is reached (and sub/__init__ still reads `used`)
    (pkg / "cli.py").write_text("import pkg.sub.orphan\n")
    assert unreachable(import_graph(tmp_path, "pkg"), roots=("pkg.cli",)) == []
