"""Deterministic fault injection and fault tolerance (see docs/robustness.md).

Four pieces:

* **injector** — :class:`FaultPlan` (seeded, never wall-clock) consulted by
  a :class:`FaultyMachine` at superstep/collective/kernel boundaries
  (:mod:`repro.faults.plan`, :mod:`repro.faults.machine`);
* **detection** — ABFT checksums on the charged matmuls and post-stage
  invariant guards, raising typed, span-attributed errors
  (:mod:`repro.faults.abft`, :mod:`repro.faults.recovery`,
  :mod:`repro.faults.errors`);
* **recovery** — stage-boundary checkpoint/restart with bounded retries and
  grid-shrinking degradation (:mod:`repro.faults.recovery`);
* **chaos harness** — ``repro chaos``, sweeping seeded scenarios over the
  pinned eigensolve (:mod:`repro.faults.chaos`; imported lazily here since
  it pulls in the eigensolver).

With faults off every instrumented site is a single attribute read against
the shared :data:`repro.bsp.machine.NO_FAULTS` no-op: costs, bench walls,
and the pinned trace are byte-identical to a build without this package.
"""

from repro.faults.errors import (
    CorruptData,
    FaultDetected,
    FaultError,
    RankFailure,
    UnrecoverableFault,
)
from repro.faults.machine import (
    FaultInjector,
    FaultyMachine,
    parse_faults,
)
from repro.faults.plan import SCENARIOS, FaultEvent, FaultPlan, FaultSpec

__all__ = [
    "FaultError",
    "FaultDetected",
    "CorruptData",
    "RankFailure",
    "UnrecoverableFault",
    "FaultPlan",
    "FaultSpec",
    "FaultEvent",
    "SCENARIOS",
    "FaultInjector",
    "FaultyMachine",
    "parse_faults",
]
