"""Simulated Bulk Synchronous Parallel (BSP) machine with cost accounting.

This package substitutes for the paper's abstract machine (Section II): a
fully-connected network of ``p`` processors, each with a main memory of ``M``
words and a cache of ``H`` words.  Algorithms built on top of it execute with
real numpy data while the machine *measures* the four quantities the paper
bounds:

* ``F`` — local floating point operations,
* ``W`` — words moved between processors (sent + received, per rank),
* ``Q`` — words moved between main memory and cache,
* ``S`` — supersteps (synchronizations).

The modeled BSP execution time is ``T = γ·F + β·W + ν·Q + α·S`` where the
aggregates take the per-superstep maximum over ranks; because all algorithms
in this repo are load balanced up to constant factors, we track per-rank
running totals and report the max over ranks (identical asymptotics, far
cheaper to collect).
"""

from repro.bsp.params import MachineParams
from repro.bsp.counters import CostReport, CounterArray, RankSlot
from repro.bsp.cache import CacheModel
from repro.bsp.machine import BSPMachine
from repro.bsp.group import RankGroup
from repro.bsp import collectives, pattern

__all__ = [
    "MachineParams",
    "CostReport",
    "CounterArray",
    "RankSlot",
    "CacheModel",
    "BSPMachine",
    "RankGroup",
    "collectives",
    "pattern",
]
