"""The pool of simulated BSP machines jobs are dispatched onto.

A :class:`MachinePool` is a fixed fleet of identical (or heterogeneous)
simulated machines.  Each pool machine owns ``p`` ranks; the scheduler may
*share* a machine between several small jobs (each job's planned sub-grid
claims disjoint ranks) or *dedicate* it to one grid-sized job.  Pool
machines are descriptors, not live :class:`~repro.bsp.machine.BSPMachine`
instances — the service constructs a fresh accounting machine per job (of
the job's planned rank count), which is what keeps per-job eigenvalues and
cost reports byte-identical to single-shot runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.bsp.params import MachineParams


@dataclass(frozen=True)
class PoolMachine:
    """One simulated machine in the pool: ``p`` ranks with cost ``params``."""

    machine_id: int
    p: int
    params: MachineParams


class MachinePool:
    """A fleet of simulated machines with a shared parameter profile.

    ``ranks`` overrides the uniform ``p`` with an explicit per-machine
    rank count — a heterogeneous fleet, which the resilience layer's
    quarantine tests use to pin work onto (or away from) one machine.
    """

    def __init__(
        self,
        machines: int,
        p: int,
        params: MachineParams | None = None,
        ranks: Sequence[int] | None = None,
    ):
        if machines < 1:
            raise ValueError(f"pool needs >= 1 machine, got {machines}")
        per_machine = list(ranks) if ranks is not None else [p] * machines
        if len(per_machine) != machines:
            raise ValueError(
                f"ranks lists {len(per_machine)} machines, expected {machines}"
            )
        if any(r < 1 for r in per_machine):
            raise ValueError(f"pool machines need >= 1 rank, got {min(per_machine)}")
        self.params = params or MachineParams()
        self.machines = [
            PoolMachine(i, r, self.params) for i, r in enumerate(per_machine)
        ]

    def track_label(self, machine_id: int) -> str:
        """Display name of one machine's telemetry track (Perfetto/dash)."""
        m = self.machines[machine_id]
        return f"machine {m.machine_id} (p={m.p})"

    @property
    def total_ranks(self) -> int:
        return sum(m.p for m in self.machines)

    @property
    def max_ranks(self) -> int:
        """Ranks of the largest machine — the planner's p_max ceiling."""
        return max(m.p for m in self.machines)

    def __iter__(self):
        return iter(self.machines)

    def as_dict(self) -> dict[str, Any]:
        return {
            "machines": len(self.machines),
            "p": self.max_ranks,
            "total_ranks": self.total_ranks,
            "ranks": [m.p for m in self.machines],
        }
