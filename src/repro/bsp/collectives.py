"""BSP collective communication primitives (cost-charging layer).

Algorithms in this repo execute with plain numpy data (orchestrated SPMD) and
*declare* their communication through these primitives, which charge each
participating rank the words it would send/receive and end the appropriate
number of supersteps.  Word counts are measured by the caller from the actual
arrays being moved, so the totals are measured, not modeled.

Cost conventions (g = group size, w = payload words):

* both collectives are O(1) supersteps, matching the paper's BSP assumption
  that an all-to-all completes in one superstep;
* bandwidth-optimal two-phase implementations are assumed for broadcast
  and allreduce (scatter+allgather / reduce-scatter+allgather), so every
  rank moves O(w) words rather than the root moving O(g·w), each rank's
  words spread evenly over the others (the :func:`~repro.bsp.pattern.uniform`
  wire pattern);
* an allreduce charges the combining flops (one add per reduced word) to
  the ranks that perform them.

Charging is vectorized: each collective computes its per-rank word counts
once (a scalar for the uniform case, a g-vector when the root differs) and
charges the whole group through
:meth:`~repro.bsp.machine.BSPMachine.charge_comm_batch`, so a collective
costs O(1) numpy ops regardless of group size.  Algorithm blocks charge
their own traffic with the pattern they run; the fault layer's one-word
agreement votes are the remaining callers of :func:`allreduce`.

Each primitive opens its own :meth:`~repro.bsp.machine.BSPMachine.span`,
which is what attributes its charges to the call site.
"""

from __future__ import annotations

import numpy as np

from repro.bsp.group import RankGroup
from repro.bsp.machine import BSPMachine
from repro.bsp.pattern import uniform


def _check(machine: BSPMachine, group: RankGroup, words: float) -> None:
    machine.check_group(group)
    if words < 0:
        raise ValueError("words must be nonnegative")


def _retransmit_on_drop(machine: BSPMachine, site: str, group: RankGroup, charge) -> None:
    """Fault-layer hook: a dropped payload is healed by retransmission.

    ``charge`` re-issues the collective's own charges, so the recovery
    words and barriers land in the surrounding span.  With faults off this
    is one attribute read (see :data:`repro.bsp.machine.NO_FAULTS`).
    """
    if machine.faults.enabled:
        machine.faults.on_collective(site, group, charge)


def _root_index(group: RankGroup, root: int | None) -> tuple[int, int]:
    """Resolve the root rank and its position within the group."""
    root = group.root if root is None else root
    if root not in group:
        raise ValueError(f"root {root} not in group")
    return root, group.index_of(root)


def bcast(machine: BSPMachine, group: RankGroup, words: float, root: int | None = None) -> None:
    """Broadcast ``words`` from ``root`` to the group (two-phase optimal)."""
    _check(machine, group, words)
    root, ri = _root_index(group, root)
    g = group.size
    if g == 1 or words == 0:
        return
    share = words / g
    # Phase 1: root scatters g-1 shares; phase 2: allgather of shares.
    sends = np.full(g, (g - 1) * share)
    recvs = np.full(g, share + (g - 1) * share)
    sends[ri] = (2 * (g - 1)) * share
    recvs[ri] = (g - 1) * share

    def _charge() -> None:
        # scatter from the root, then every rank sends its share to every
        # other: each rank's words split evenly over the others
        machine.charge_comm_batch(group, sends, recvs, pattern=uniform(g))
        machine.superstep(group, 2)

    with machine.span("bcast", group=group):
        _charge()
        _retransmit_on_drop(machine, "bcast", group, _charge)


def allreduce(machine: BSPMachine, group: RankGroup, words: float) -> None:
    """Reduce ``words`` contributions and leave the result on every rank."""
    _check(machine, group, words)
    g = group.size
    if g == 1 or words == 0:
        return
    share = words / g
    per_rank = 2 * (g - 1) * share

    def _charge() -> None:
        machine.charge_comm_batch(group, per_rank, per_rank, pattern=uniform(g))
        machine.charge_flops(group, (g - 1) * share)
        machine.superstep(group, 2)

    with machine.span("allreduce", group=group):
        _charge()
        _retransmit_on_drop(machine, "allreduce", group, _charge)
