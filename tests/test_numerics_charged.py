"""Every dense product in ``src/repro`` is charged, or says why it is free.

An ``a @ b`` or ``np.linalg`` call that no charging call reports changes no
number a runtime gate reads, so this check is its only killer (EXPERIMENTS.md
§ "Kill matrix").  Outside ``bsp/kernels.py`` (the charged kernels) and
``util/validation.py`` (cost-free oracles) it flags ``@`` / ``@=``,
``np.{dot, matmul, vdot, inner, outer, einsum, tensordot, kron, cross}``, any
``.dot(`` call, and ``numpy.linalg`` / ``scipy.linalg`` /
``repro.linalg.lapack`` (the ``ctypes`` LAPACK binding) calls or names
imported from them.  ``# cost: free(<reason>)`` on the line, or
``# cost: free-module(<reason>)`` anywhere in the module, waives a finding;
a malformed pragma, an empty reason or a parse error is itself a finding.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
EXEMPT = ("bsp/kernels.py", "util/validation.py")
FLOP_FUNCS = {"dot", "matmul", "vdot", "inner", "outer", "einsum", "tensordot", "kron", "cross"}
LINALG = ("numpy.linalg", "scipy.linalg", "repro.linalg.lapack")
# the reason may itself contain parentheses: match greedily to the last ')'
_PRAGMA = re.compile(r"#\s*cost:\s*(free-module|free)\s*\((.*)\)\s*$")


def _dotted(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"]; [] unless the base is a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else []


def scan_source(source: str, path: str) -> list[str]:
    """Unwaived findings of one module, as ``path:line:col: message``."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [f"{path}:{exc.lineno}:{exc.offset}: parse error: {exc.msg}"]
    found, waived, module_free = [], set(), False
    comments = tokenize.generate_tokens(io.StringIO(source).readline) if "cost:" in source else ()
    for tok in comments:
        if tok.type != tokenize.COMMENT or not re.match(r"#\s*cost:", tok.string):
            continue
        match = _PRAGMA.match(tok.string)
        if match is None or not match.group(2).strip():
            found.append((*tok.start, f"bad pragma {tok.string!r}"))
        elif match.group(1) == "free-module":
            module_free = True
        else:
            waived.add(tok.start[0])
    # names bound to numpy / scipy, to the LINALG modules, and imported from those
    pkgs, linalg, names = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name in LINALG:
                    linalg.add(alias.asname)
                elif (top := alias.name.split(".")[0]) in ("numpy", "scipy"):
                    pkgs.add(alias.asname or top)
        elif isinstance(node, ast.ImportFrom) and node.module in LINALG:
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            linalg.update(a.asname or a.name for a in node.names if f"{node.module}.{a.name}" in LINALG)

    def flag(node: ast.AST, what: str) -> None:
        if not module_free and node.lineno not in waived:
            found.append((node.lineno, node.col_offset, f"uncharged {what}"))

    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            flag(node, "'@'")
        elif isinstance(node, ast.Call):
            chain = _dotted(node.func)
            head, dotted = chain[0] if chain else None, ".".join(chain)
            if (head in pkgs and len(chain) > 2 and chain[1] == "linalg") or (
                    len(chain) == 2 and head in linalg) or (len(chain) == 1 and head in names):
                flag(node, f"linalg call {dotted}()")
            elif head in pkgs and len(chain) == 2 and chain[1] in FLOP_FUNCS:
                flag(node, f"{dotted}()")
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "dot":
                flag(node, "'.dot()'")
    return [f"{path}:{line}:{col}: {what}" for line, col, what in sorted(found)]


def numerics_findings(root: Path = SRC) -> list[str]:
    """Unwaived findings of every module under ``root`` (a ``repro`` tree)."""
    rels = (p.relative_to(root).as_posix() for p in sorted(root.rglob("*.py")))
    return [f for rel in rels if rel not in EXEMPT for f in scan_source((root / rel).read_text(), rel)]


def test_shipped_tree_is_clean():
    assert numerics_findings() == []


@pytest.mark.parametrize(
    "source", ["c = a @ b", "c @= b", "c = a.dot(b)", "c = (a.T).dot(b)", "w = np.linalg.eigvalsh(a)"]
    + [f"c = np.{fn}(a, b)" for fn in sorted(FLOP_FUNCS)]
    + ["import scipy.linalg\nw = scipy.linalg.eigh(a)", "from numpy.linalg import svd\nu = svd(a)",
       "from scipy import linalg as sl\nq = sl.qr(a)", "import numpy.linalg as la\nq = la.qr(a)",
       "from repro.linalg.lapack import dstebz\nw = dstebz(d, e)",
       "from repro.linalg import lapack\nw = lapack.dstebz(d, e)"],
)
def test_each_uncharged_form_is_flagged(source):
    assert len(scan_source("import numpy as np\n" + source + "\n", "m.py")) == 1


def test_line_pragmas_waive():
    src = "import numpy as np\nc = a @ b  # cost: free(charged below)\nd = np.dot(a, b)\n"
    assert scan_source(src, "m.py") == ["m.py:3:4: uncharged np.dot()"]


def test_module_pragma_waives_whole_file():
    assert scan_source("# cost: free-module(fixture)\nc = a @ b\nd = a @ c\n", "m.py") == []


def test_module_pragma_suppresses_any_line():
    assert scan_source("c = a @ b\nd = a.dot(c)\n# cost: free-module(fixture)\n", "m.py") == []


def test_reason_may_contain_parentheses():
    assert scan_source("c = a @ b  # cost: free(see Theorem IV.4 (and Lemma III.3))\n", "m.py") == []


def test_pragma_inside_string_is_ignored():
    assert scan_source('s = "# cost: gratis()"\nc = a @ b\n', "m.py") == ["m.py:2:4: uncharged '@'"]


@pytest.mark.parametrize("pragma", ["# cost: free()", "# cost: gratis(wrong keyword)", "# cost:"])
def test_bad_pragma_fails(pragma):
    found = scan_source(f"c = a @ b  {pragma}\n", "m.py")
    assert len(found) == 2 and found[0].endswith("uncharged '@'") and "bad pragma" in found[1]


def test_parse_error_fails():
    assert scan_source("def broken(:\n    pass\n", "m.py")[0].startswith("m.py:1:")


def test_scalapack_cost_leak_regression():
    """The pre-fix ``eig/scalapack_like.py`` trailing update stays flagged:
    the matvec, the ``np.dot`` correction and both ``np.outer`` calls."""
    source = (Path(__file__).parent / "data" / "viol_scalapack_prefix.py").read_text()
    marks = [i for i, line in enumerate(source.splitlines(), 1) if "# MARK:" in line]
    found = [int(f.split(":")[1]) for f in scan_source(source, "viol_scalapack_prefix.py")]
    assert found == [marks[0], marks[1], marks[2], marks[2]]
