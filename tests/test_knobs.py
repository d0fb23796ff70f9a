"""Knob ratchet: the ``REPRO_*`` environment switches ``src/`` reads, the
constructor switches of :class:`BSPMachine`, the observers that force a
charge log to write through, the service's resilience policy sections, the
job journal's constructor, and the flags that must not come back: the
counter-store selector (one store in ``src/``; the scalar one is
``tests/scalar_oracle.py``), the metrics gate's envelope (every gate is
exact), hedged dispatch (one attempt per job in flight), the soak's
``crash`` scenario (every scenario sweeps every crash point), the
``repro lint`` sub-command (the numerics check is a tier-1 test), the
service's process pool (every solve runs inline) and a second charge
emission in the solver (only the charge log asks which mode it is in).

Every switch is a code path the test matrix has to cover twice.  A new one
fails here until it is added to the pinned set on purpose, and one that
goes away must be dropped from it, so the sets cannot grow unnoticed.
"""

import argparse
import ast
import dataclasses
import inspect
import pathlib
import re
import textwrap

import pytest

import repro.bsp
import repro.bsp.kernels
import repro.serve
from repro.bsp import BSPMachine
from repro.bsp.batch import needs_program_order
from repro.cli import build_parser
from repro.faults import FaultyMachine
from repro.lint.verify import VerifiedMachine
from repro.serve.bench import run_serve_suite, run_soak, run_telemetry_suite
from repro.serve.journal import JobJournal

SRC = pathlib.Path(__file__).parent.parent / "src"

#: name -> why it may exist
ALLOWED = {
    "REPRO_FAULTS": "opt-in fault scenario for machine_from_env (chaos tooling)",
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


#: what a machine is built from; ``spans`` and ``metrics`` are its only
#: observer switches (fault injection and verification are subclasses)
MACHINE_KWARGS = ("p", "params", "spans", "metrics")

#: machine attributes whose ``.enabled`` makes a ChargeLog write through
ORDERED_OBSERVERS = {"spans", "metrics", "faults"}


def test_machine_constructor_switches_are_pinned():
    own = {"self", *MACHINE_KWARGS}
    assert tuple(inspect.signature(BSPMachine).parameters) == MACHINE_KWARGS
    # the subclasses add only their own keyword-only configuration
    for cls, extra in (
        (VerifiedMachine, {"memory_bound_words"}),
        (FaultyMachine, {"plan", "policy"}),
    ):
        params = inspect.signature(cls).parameters
        assert set(params) - own == extra, cls.__name__
        assert all(params[name].kind is inspect.Parameter.KEYWORD_ONLY for name in extra)


def test_program_order_observers_are_pinned():
    tree = ast.parse(textwrap.dedent(inspect.getsource(needs_program_order)))
    read = {
        node.value.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "machine"
    }
    assert read == ORDERED_OBSERVERS


def test_only_the_charge_log_asks_for_program_order():
    """A solver stage writes each charge once, to a ChargeLog: no module
    under eig/, blocks/ or dist/ names ``needs_program_order`` or reads a
    log's ``.deferred`` to pick an emission."""
    for d in ("eig", "blocks", "dist"):
        for path in sorted((SRC / "repro" / d).glob("*.py")):
            names = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            assert not names & {"needs_program_order", "deferred"}, f"{d}/{path.name}"


def test_flop_counts_have_one_formula():
    """``qr_flops`` / ``matmul_flops`` work element-wise on float64 arrays;
    no ``*_flops_arr`` twin may come back."""
    assert not [name for name in vars(repro.bsp.kernels) if name.endswith("_flops_arr")]


def test_service_solves_inline():
    """No process pool beside the inline solve path: no ``workers`` on the
    service or its suites, and no ``ProcessPoolExecutor`` in ``src/``."""
    for fn in (repro.serve.EigenService, run_serve_suite, run_telemetry_suite, run_soak):
        assert "workers" not in inspect.signature(fn).parameters, fn.__name__
    assert not [p.name for p in SRC.rglob("*.py") if "ProcessPoolExecutor" in p.read_text()]


def test_src_exports_one_counter_store():
    for name in ("ScalarCounterStore", "ENGINES", "RankCounters"):
        assert name not in repro.bsp.__all__ and not hasattr(repro.bsp, name), name
    assert not (SRC / "repro" / "bsp" / "scalar.py").exists()


def test_resilience_policy_sections_are_pinned():
    fields = tuple(f.name for f in dataclasses.fields(repro.serve.ResiliencePolicy))
    assert fields == ("retry", "quarantine", "admission", "scheduling")
    assert "HedgePolicy" not in repro.serve.__all__
    assert not hasattr(repro.serve, "HedgePolicy")


def test_journal_takes_only_a_path():
    """Every append is fsync'd: a crash leaves a byte prefix of the journal,
    the premise of the soak's crash sweep, so durability is not a switch."""
    assert tuple(inspect.signature(JobJournal).parameters) == ("path",)


def test_soak_has_no_crash_scenario(tmp_path):
    """Crash/resume is swept under every soak scenario, not a scenario."""
    with pytest.raises(ValueError, match="unknown soak scenario"):
        run_soak(scenario="crash", journal_path=tmp_path / "j.jsonl", log=lambda _: None)


def test_no_subcommand_accepts_an_engine_flag(capsys):
    """``--engine`` (a second counter store), ``--envelope`` (an inexact
    gate on a deterministic document) and ``--workers`` (a process pool
    beside the inline solves) must not come back on any command."""
    parser = build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        flags = {flag for action in sub._actions for flag in action.option_strings}
        assert not flags & {"--engine", "--envelope", "--workers"}, name
    for argv in (
        ["trace", "--engine", "scalar"], ["metrics", "--envelope", "0.5"],
        ["serve-bench", "--workers", "2"],
    ):
        with pytest.raises(SystemExit) as exc:  # argparse: unrecognized arguments
            parser.parse_args(argv)
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err


def test_lint_subcommand_is_gone(capsys):
    """The static analyzer was deleted; what it alone could catch is
    ``tests/test_numerics_charged.py``, which runs in every tier-1 leg."""
    with pytest.raises(SystemExit) as exc:  # argparse: invalid choice
        build_parser().parse_args(["lint"])
    assert exc.value.code == 2
    assert "invalid choice: 'lint'" in capsys.readouterr().err
