"""Knob ratchet: the set of ``REPRO_*`` environment switches ``src/`` reads.

Every environment switch is a code path the test matrix has to cover twice.
A new one fails here until it is added to ``ALLOWED`` on purpose, and one
that goes away must be dropped from it, so the set cannot grow unnoticed.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).parent.parent / "src"

#: name -> why it may exist
ALLOWED = {
    "REPRO_FAULTS": "opt-in fault scenario for machine_from_env (chaos tooling)",
    "REPRO_SERVE_CRASH_AFTER": "kill point of the journal crash/resume soak",
    "REPRO_BENCH_ENVELOPE": "wall-clock gate width of `repro bench --check`",
    "REPRO_BENCH_WALL_TOL": "older spelling of REPRO_BENCH_ENVELOPE",
    "REPRO_BENCH_RETRIES": "wall-clock retry budget on loaded CI runners",
}

_NAME = re.compile(r"REPRO_[A-Z][A-Z0-9_]*")


def _env_names_in_src() -> dict[str, list[str]]:
    """Every string literal in ``src/`` that is exactly a ``REPRO_*`` name:
    a direct ``os.environ`` key, or the constant one is read through."""
    found: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _NAME.fullmatch(node.value):
                    found.setdefault(node.value, []).append(f"{path.name}:{node.lineno}")
    return found


def test_environment_switches_are_pinned():
    found = _env_names_in_src()
    new = {name: where for name, where in found.items() if name not in ALLOWED}
    assert not new, f"new REPRO_* environment switch (add to ALLOWED on purpose): {new}"
    gone = sorted(set(ALLOWED) - set(found))
    assert not gone, f"no longer read anywhere in src/ — drop from ALLOWED: {gone}"
