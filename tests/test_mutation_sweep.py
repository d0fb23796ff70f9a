"""Smoke test of the charge-mutation sweep (``tests/mutation_sweep.py``):
three named mutants, each run through the harness on the one config that
kills it.  The full sweep runs nightly; EXPERIMENTS.md § "Kill matrix"
holds its result."""

import pytest

from tests import mutation_sweep as sweep
from tests.test_numerics_charged import numerics_findings

#: name -> (kind, module, function, call, config, every gate that fires)
CASES = {
    # a lost CA-SBR hand-off barrier keeps words conserved: only the
    # counters see it
    "drop-casbr-handoff": (
        "drop", "eig/ca_sbr.py", "_run_chases_1d", "superstep",
        "ca_sbr/plain", ["counters"],
    ),
    # an uncharged product changes no number at all: only the numerics test
    "insert-b2b-matmul": (
        "insert_matmul", "eig/band_to_band.py", "band_to_band_2p5d", "charge_flops",
        "eig2p5d/d0.67/verified", ["numerics"],
    ),
    # a dropped window fetch books neither side, so nothing is unbalanced
    "drop-band-fetch": (
        "drop", "dist/banded.py", "fetch_window", "transfer",
        "eig2p5d/d0.67/plain", ["counters"],
    ),
}


@pytest.fixture(scope="module")
def reference():
    """The unmutated tree's results, computed in this process (the sweep
    itself runs ``sweep.golden`` on a copy, to the same numbers)."""
    configs = sorted({case[4] for case in CASES.values()})
    return {c: sweep.run_config(c) for c in configs}, set(numerics_findings())


@pytest.mark.parametrize("name", sorted(CASES))
def test_named_mutant_is_killed_by_its_gate(name, reference):
    kind, path, function, call, config, killers = CASES[name]
    site = next(
        s for s in sweep.find_sites()
        if (s.path, s.function, s.call) == (path, function, call)
    )
    result = sweep.evaluate(sweep.Mutant(kind, site), reference, configs=(config,))
    assert result["killers"] == killers and result["gate"] == killers[0]


def test_mutations_are_source_edits():
    site = next(s for s in sweep.find_sites() if s.function == "gather" and s.call == "charge_comm")
    text = (sweep.SRC / "repro" / site.path).read_text()
    line = {kind: sweep.mutate(text, sweep.Mutant(kind, site)).splitlines()[site.line - 1].strip()
            for kind in ("drop", "halve", "insert_linalg")}
    assert line["drop"] == "pass"
    assert line["halve"] == (
        "self.machine.charge_comm(sends={r: w * 0.5 for r, w in sends.items()}, "
        "recvs={r: w * 0.5 for r, w in recvs.items()})"
    )
    assert line["insert_linalg"] == sweep.INSERTS["insert_linalg"]
