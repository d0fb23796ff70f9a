"""Deterministic, seeded workload generation for the eigensolver service.

Three generators model the production mix the ROADMAP targets:

* :func:`scf_trace` — a gpaw-style self-consistent-field loop: every SCF
  iteration diagonalizes one matrix per k-point, the *shapes* repeating
  identically across iterations (only the matrix entries evolve).  Jobs
  arrive in bursts at iteration boundaries.  This is the cache's best
  case: after iteration one, every plan is a repeat.
* :func:`zipf_stream` — open traffic with Zipf-distributed sizes (small
  problems dominate, big ones are rare but expensive) and Poisson
  arrivals (seeded exponential inter-arrival gaps).
* :func:`mixed_workload` — both merged in arrival order; the pinned
  ``repro serve-bench`` input.

Every generator is a pure function of its seed: the same call produces the
same :class:`Workload` byte-for-byte, on any host, forever.  Arrival times
are in *simulated BSP time units* (the same units as
``MachineParams.time``), not wall-clock.  Traces serialize to JSON so CI
can archive the exact workload a benchmark number came from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.serve.resilience import check_job

#: size menu of the Zipf stream: "nice" n values small→large.  Snapping to
#: a short menu is what makes traffic *repeat* — real SCF/k-point codes do
#: the same (basis-set sizes are quantized by symmetry and cutoffs).
ZIPF_SIZES: tuple[int, ...] = (8, 12, 16, 24, 32, 48, 64, 96)

#: Zipf exponent: weight of size rank r is r^-ZIPF_EXPONENT
ZIPF_EXPONENT = 1.6


@dataclass(frozen=True)
class JobSpec:
    """One eigenproblem request: an n×n symmetric matrix drawn from ``seed``
    arriving at simulated time ``arrival``.

    ``slo`` names the request's service-level class (a key of
    :data:`repro.serve.resilience.SLO_CLASSES`); it sets the job's
    simulated-time deadline and its priority under EDF scheduling.  A
    non-finite ``arrival`` or an unknown ``slo`` raises ValueError here,
    the boundary every job crosses (``Workload.from_json`` included).
    """

    job_id: int
    n: int
    seed: int
    arrival: float
    tag: str = ""
    slo: str = "batch"

    def __post_init__(self) -> None:
        check_job(self.job_id, self.arrival, self.slo)

    def as_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "n": self.n,
            "seed": self.seed,
            "arrival": self.arrival,
            "tag": self.tag,
            "slo": self.slo,
        }


@dataclass
class Workload:
    """An ordered stream of job specs plus the recipe that generated it."""

    jobs: list[JobSpec]
    descriptor: dict[str, Any]

    def __len__(self) -> int:
        return len(self.jobs)

    def sizes(self) -> dict[int, int]:
        """Histogram n -> job count (sorted by n)."""
        out: dict[int, int] = {}
        for job in self.jobs:
            out[job.n] = out.get(job.n, 0) + 1
        return dict(sorted(out.items()))

    def to_json(self) -> dict[str, Any]:
        return {
            "version": 1,
            "descriptor": self.descriptor,
            "jobs": [job.as_dict() for job in self.jobs],
        }

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "Workload":
        jobs = [
            JobSpec(
                job_id=int(j["job_id"]),
                n=int(j["n"]),
                seed=int(j["seed"]),
                arrival=float(j["arrival"]),
                tag=str(j.get("tag", "")),
                slo=str(j.get("slo", "batch")),
            )
            for j in doc["jobs"]
        ]
        return cls(jobs=jobs, descriptor=dict(doc.get("descriptor", {})))

    def write(self, path: str | Path) -> Path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.to_json(), indent=1, sort_keys=True) + "\n")
        return out

    @classmethod
    def load(cls, path: str | Path) -> "Workload":
        return cls.from_json(json.loads(Path(path).read_text()))


def _finalize(
    raw: list[tuple[float, int, str, str]], seed: int, descriptor: dict
) -> Workload:
    """Sort by arrival (stable), assign ids, derive per-job matrix seeds.

    Matrix seeds are drawn from the workload seed and the job's position so
    two workloads with the same seed agree entry-for-entry, while distinct
    jobs get distinct (but reproducible) matrices.
    """
    raw.sort(key=lambda item: item[0])
    jobs = [
        JobSpec(
            job_id=i,
            n=n,
            seed=(seed * 1_000_003 + i * 7919) % (2**31 - 1),
            arrival=float(arrival),
            tag=tag,
            slo=slo,
        )
        for i, (arrival, n, tag, slo) in enumerate(raw)
    ]
    return Workload(jobs=jobs, descriptor=descriptor)


def scf_trace(
    iterations: int = 6,
    kpoint_sizes: Sequence[int] = (24, 32, 32, 48),
    iteration_gap: float = 2.0e5,
    burst_jitter: float = 5.0e3,
    seed: int = 0,
    t0: float = 0.0,
    slo: str = "batch",
) -> Workload:
    """A gpaw-style SCF trace: per iteration, one job per k-point.

    The k-point size list repeats identically every iteration; arrivals
    cluster in a burst at each iteration boundary with a small seeded
    jitter (the host code dispatches k-points one after another).  An SCF
    loop is throughput-bound, so its jobs default to the "batch" SLO.
    """
    rng = np.random.default_rng(seed)
    raw: list[tuple[float, int, str, str]] = []
    for it in range(iterations):
        base = t0 + it * iteration_gap
        for k, n in enumerate(kpoint_sizes):
            jitter = float(rng.uniform(0.0, burst_jitter))
            raw.append((base + jitter, int(n), f"scf[it={it},k={k}]", slo))
    descriptor = {
        "kind": "scf",
        "iterations": iterations,
        "kpoint_sizes": list(map(int, kpoint_sizes)),
        "iteration_gap": iteration_gap,
        "burst_jitter": burst_jitter,
        "seed": seed,
        "t0": t0,
    }
    return _finalize(raw, seed, descriptor)


def zipf_stream(
    jobs: int = 128,
    mean_gap: float = 2.0e4,
    sizes: Sequence[int] = ZIPF_SIZES,
    exponent: float = ZIPF_EXPONENT,
    seed: int = 0,
    t0: float = 0.0,
    slo: str = "interactive",
) -> Workload:
    """Open Poisson traffic with Zipf-distributed problem sizes.

    Size rank r (1 = smallest n) has probability ∝ r^-exponent, so small
    problems dominate and the occasional large one stresses the
    dedicated-grid path of the scheduler.  Inter-arrival gaps are
    exponential with mean ``mean_gap`` simulated time units.  Open traffic
    is latency-sensitive, so its jobs default to the "interactive" SLO.
    """
    rng = np.random.default_rng(seed)
    weights = np.array([1.0 / (r + 1) ** exponent for r in range(len(sizes))])
    weights /= weights.sum()
    raw: list[tuple[float, int, str, str]] = []
    t = t0
    for i in range(jobs):
        t += float(rng.exponential(mean_gap))
        n = int(rng.choice(np.asarray(sizes), p=weights))
        raw.append((t, n, f"zipf[{i}]", slo))
    descriptor = {
        "kind": "zipf",
        "jobs": jobs,
        "mean_gap": mean_gap,
        "sizes": list(map(int, sizes)),
        "exponent": exponent,
        "seed": seed,
        "t0": t0,
    }
    return _finalize(raw, seed, descriptor)


def mixed_workload(
    total_jobs: int = 200,
    seed: int = 7,
    scf_iterations: int = 6,
    kpoint_sizes: Sequence[int] = (24, 32, 32, 48),
    zipf_mean_gap: float = 2.0e4,
    zipf_sizes: Sequence[int] = ZIPF_SIZES,
) -> Workload:
    """The pinned serve-bench mix: an SCF trace plus a Zipf/Poisson stream.

    The SCF trace contributes ``iterations × len(kpoint_sizes)`` jobs; the
    Zipf stream fills up to ``total_jobs``.  Both draw from independent
    sub-seeds of ``seed`` and are merged in arrival order.
    """
    scf = scf_trace(
        iterations=scf_iterations, kpoint_sizes=kpoint_sizes, seed=seed * 2 + 1
    )
    n_zipf = total_jobs - len(scf.jobs)
    if n_zipf < 0:
        raise ValueError(
            f"total_jobs={total_jobs} is smaller than the SCF trace ({len(scf.jobs)} jobs)"
        )
    zipf = zipf_stream(
        jobs=n_zipf, mean_gap=zipf_mean_gap, sizes=zipf_sizes, seed=seed * 2 + 2
    )
    raw = [(j.arrival, j.n, j.tag, j.slo) for j in scf.jobs + zipf.jobs]
    descriptor = {
        "kind": "mixed",
        "total_jobs": total_jobs,
        "seed": seed,
        "scf": scf.descriptor,
        "zipf": zipf.descriptor,
    }
    return _finalize(raw, seed, descriptor)
