"""Knob ratchet: the ``REPRO_*`` environment switches ``src/`` reads (none),
the constructor switches of :class:`BSPMachine`, the observer switches a
charge log reads (and that it calls no machine primitive), the service's
one setting (``scheduling``), the job journal's constructor, and the flags that must not come back: the
counter-store selector (one store in ``src/``; the scalar one is
``tests/scalar_oracle.py``), the metrics gate's envelope (every gate is
exact), hedged dispatch (one attempt per job in flight), resilience and
recovery policy objects and the soak's fault-seed base (each value they held
is a module constant), the soak's ``crash`` scenario (every scenario sweeps
every crash point), the ``repro lint`` sub-command (the numerics check is a
tier-1 test), the service's process pool (every solve runs inline) and a
second charge emission in the solver (only the charge log asks which mode
it is in).

Every switch is a code path the test matrix has to cover twice.  A new one
fails here until it is added to the pinned set on purpose, and one that
goes away must be dropped from it, so the sets cannot grow unnoticed.
"""

import argparse
import ast
import inspect
import pathlib
import re
import textwrap

import pytest

import repro.bsp
import repro.bsp.kernels
import repro.serve
from repro.bsp import BSPMachine
from repro.bsp.batch import ChargeLog
from repro.cli import build_parser
from repro.faults import FaultyMachine
from repro.lint.verify import VerifiedMachine
from repro.serve.bench import run_serve_suite, run_soak, run_telemetry_suite
from repro.serve.journal import JobJournal
from repro.serve.resilience import run_resilient

SRC = pathlib.Path(__file__).parent.parent / "src"

#: name -> why it may exist (fault injection is opted into by constructing
#: a FaultyMachine, e.g. through ``repro solve --faults``)
ALLOWED: dict[str, str] = {}

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

#: machine attributes whose ``.enabled`` a ChargeLog reads: spans and metrics
#: take its ordering points at the flush, and a fault-injecting machine's
#: log also lands each append at once
ORDERED_OBSERVERS = {"spans", "metrics", "faults"}

#: the machine primitives a ChargeLog never calls: its charges land only
#: through its flush
MACHINE_PRIMITIVES = re.compile(r"charge_\w+|superstep|mem_stream\w*|mem_read|note_memory")


def test_machine_constructor_switches_are_pinned():
    own = {"self", *MACHINE_KWARGS}
    assert tuple(inspect.signature(BSPMachine).parameters) == MACHINE_KWARGS
    # the subclasses add only their own keyword-only configuration
    for cls, extra in (
        (VerifiedMachine, {"memory_bound_words"}),
        (FaultyMachine, {"plan"}),
    ):
        params = inspect.signature(cls).parameters
        assert set(params) - own == extra, cls.__name__
        assert all(params[name].kind is inspect.Parameter.KEYWORD_ONLY for name in extra)


def test_program_order_observers_are_pinned():
    """A ChargeLog reads exactly these observer switches, and calls no
    machine charging primitive: spans and metrics see its charges only
    through its flush."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(ChargeLog)))
    read, called = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "enabled" and isinstance(node.value, ast.Attribute):
            read.add(node.value.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if (isinstance(owner, ast.Name) and owner.id == "machine") or (
                    isinstance(owner, ast.Attribute) and owner.attr == "machine"):
                called.add(node.func.attr)
    assert read == ORDERED_OBSERVERS
    assert called and not {name for name in called if MACHINE_PRIMITIVES.fullmatch(name)}


def test_only_the_charge_log_asks_for_program_order():
    """A solver stage writes each charge once, to a ChargeLog, and the log
    has one landing: no module under eig/, blocks/ or dist/ names a
    landing mode (``needs_program_order``, a log's ``.deferred``)."""
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
    """The service's one setting is the dispatch order; retry, breaker and
    fault-seed values are constants, and no policy object is exported."""
    service = inspect.signature(repro.serve.EigenService).parameters
    assert "scheduling" in service
    assert not {"policy", "fault_seed0"} & set(service)
    assert "scheduling" in inspect.signature(run_resilient).parameters
    assert "fault_seed0" not in inspect.signature(run_soak).parameters
    exported = set(repro.serve.__all__) | set(vars(repro.serve))
    assert not [name for name in exported if name.endswith("Policy")]


def test_soak_has_no_fault_seed_base(capsys):
    """Each (job, attempt) fault seed is ``job_id + 1_000_003 * attempt``."""
    with pytest.raises(SystemExit) as exc:  # argparse: unrecognized arguments
        build_parser().parse_args(["serve-bench", "--fault-seed0", "1"])
    assert exc.value.code == 2
    assert "--fault-seed0" in capsys.readouterr().err


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
