"""Project call graph over :class:`ModuleSummary` facts.

The analyzer (:mod:`repro.lint.analyzer`) reduces every module to a
:class:`ModuleSummary`: per-function facts (which charging APIs are called
directly, where buffers are copied / sent / escaped) plus the outgoing
call sites.  This module links those summaries into a call graph with
conservative name resolution and answers the transitive questions the
interprocedural rules need:

* does this function's call closure charge / communicate / superstep?
* who calls this function, and do *all* known callers charge?

Resolution is deliberately over-approximate in the safe direction: an
``obj.m()`` call unifies with every known function or method named ``m``,
so a helper that might charge is assumed to charge — unresolvable calls
never silence a finding, and fuzzy ones only ever suppress, not create.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: calls that charge the machine — their presence marks a function as
#: "charging" for the REPRO003/REPRO009 heuristics
CHARGE_CALLS = frozenset(
    {
        "charge_comm",
        "charge_comm_batch",
        "charge_comm_matrix",
        "charge_flops",
        "charge_flops_batch",
        "superstep",
        "mem_stream",
        "mem_stream_group",
        "mem_read",
        "mem_write",
        "charge_store",
        "fetch_window",
        "store_window",
        "transfer",
        "redistribute",
        "replicate",
        "bcast",
        "reduce",
        "allreduce",
        "reduce_scatter",
        "allgather",
        "gather",
        "scatter",
        "alltoall",
        "alltoall_matrix",
        "p2p",
    }
)

#: the subset of :data:`CHARGE_CALLS` that moves words between ranks —
#: a cross-rank read (REPRO006) is mediated only by one of these
COMM_CALLS = frozenset(
    {
        "charge_comm",
        "charge_comm_batch",
        "charge_comm_matrix",
        "charge_store",
        "fetch_window",
        "store_window",
        "transfer",
        "redistribute",
        "replicate",
        "bcast",
        "reduce",
        "allreduce",
        "reduce_scatter",
        "allgather",
        "gather",
        "scatter",
        "alltoall",
        "alltoall_matrix",
        "p2p",
    }
)

#: calls that close the superstep internally (the collectives and the dist
#: window/redistribution layer all end in ``machine.superstep``) — for the
#: REPRO007 in-flight window these act as barriers even when the callee's
#: source is not part of the linted file set
BARRIER_CALLS = frozenset(
    {
        "superstep",
        "fetch_window",
        "store_window",
        "transfer",
        "redistribute",
        "replicate",
        "charge_store",
        "bcast",
        "reduce",
        "allreduce",
        "reduce_scatter",
        "allgather",
        "gather",
        "scatter",
        "alltoall",
        "alltoall_matrix",
    }
)

#: memory-accounting calls: they do not move words, but a function that
#: notes its footprint is participating in cost accounting (REPRO009)
MEMORY_CALLS = frozenset({"note_memory", "add_memory", "release_memory"})


@dataclass(frozen=True)
class CallSite:
    """One outgoing call: the dotted name chain as written, e.g. ``("self", "gather")``."""

    chain: tuple[str, ...]
    lineno: int
    col: int


@dataclass(frozen=True)
class Escape:
    """A rank-owned buffer leaving its defining function (REPRO009)."""

    kind: str  # "return" | "arg" | "attribute" | "closure"
    lineno: int
    col: int
    detail: str
    callee: tuple[str, ...] | None = None  # set for kind == "arg"


#: ordered intra-function events replayed by the REPRO007 scan:
#: ("send", line, col, names) / ("write", line, col, name) /
#: ("barrier", line, col, None) / ("call", line, col, chain)
FlowEvent = tuple[str, int, int, object]


@dataclass
class FunctionFacts:
    """Everything the interprocedural rules need to know about one function."""

    qualname: str  # "f", "Cls.m", "f.<locals>.g"
    name: str
    cls: str | None
    lineno: int
    # direct facts (from the function's own statements)
    charges: bool = False
    has_superstep: bool = False
    comms: bool = False
    notes_memory: bool = False
    data_copies: list[tuple[int, int]] = field(default_factory=list)
    p2p_calls: list[tuple[int, int]] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    # dataflow events (REPRO006-009)
    flow: list[FlowEvent] = field(default_factory=list)
    cross_reads: list[tuple[int, int, str]] = field(default_factory=list)
    alias_stores: list[tuple[int, int, str]] = field(default_factory=list)
    escapes: list[Escape] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """One module's functions, classes, and import aliases."""

    path: str  # posix path, relative to the lint root
    module: str  # dotted module-name guess derived from the path
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    classes: dict[str, list[str]] = field(default_factory=dict)
    #: alias visible in the module -> dotted target ("repro.blocks.rect_qr"
    #: for ``import``, "repro.bsp.collectives.p2p" for ``from .. import``)
    imports: dict[str, str] = field(default_factory=dict)
    tree: ast.Module | None = None
    source: str = ""


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a posix-relative path (``src/`` prefix dropped)."""
    parts = rel_path.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


#: unique key for a function across the project
FuncKey = tuple[str, str]  # (module path, qualname)


class CallGraph:
    """Link module summaries and answer transitive charge/barrier queries."""

    def __init__(self, summaries: list[ModuleSummary]) -> None:
        self.summaries = summaries
        self.facts: dict[FuncKey, FunctionFacts] = {}
        self._by_module: dict[str, list[ModuleSummary]] = {}
        self._by_name: dict[str, list[FuncKey]] = {}
        for summary in summaries:
            for dotted in {summary.module, summary.module.rsplit(".", 1)[-1]}:
                if dotted:
                    self._by_module.setdefault(dotted, []).append(summary)
            for qualname, facts in summary.functions.items():
                key = (summary.path, qualname)
                self.facts[key] = facts
                self._by_name.setdefault(facts.name, []).append(key)
        # resolved edges and reverse edges
        self.edges: dict[FuncKey, list[FuncKey]] = {}
        self.callers: dict[FuncKey, list[FuncKey]] = {}
        for summary in summaries:
            for qualname, facts in summary.functions.items():
                key = (summary.path, qualname)
                out: list[FuncKey] = []
                for site in facts.calls:
                    out.extend(self.resolve(summary, facts, site.chain))
                # a nested function's facts also flow into its parent: the
                # closure runs (if at all) inside the parent's dynamic extent
                prefix = qualname + ".<locals>."
                out.extend(
                    (summary.path, q) for q in summary.functions if q.startswith(prefix)
                )
                self.edges[key] = sorted(set(out))
                for callee in self.edges[key]:
                    self.callers.setdefault(callee, []).append(key)
        self._memo: dict[tuple[str, FuncKey], bool] = {}

    # ------------------------------------------------------------------ #
    # resolution

    def _module_functions(self, dotted: str, name: str) -> list[FuncKey]:
        """Functions/classes called ``name`` in modules matching ``dotted``."""
        out: list[FuncKey] = []
        for summary in self._by_module.get(dotted, []):
            out.extend(self._in_summary(summary, name))
        return out

    @staticmethod
    def _in_summary(summary: ModuleSummary, name: str) -> list[FuncKey]:
        out: list[FuncKey] = []
        if name in summary.functions:
            out.append((summary.path, name))
        if name in summary.classes:  # constructor call -> __init__
            init = f"{name}.__init__"
            if init in summary.functions:
                out.append((summary.path, init))
        return out

    def resolve(
        self, summary: ModuleSummary, caller: FunctionFacts, chain: tuple[str, ...]
    ) -> list[FuncKey]:
        """All functions a call through ``chain`` may reach (possibly empty)."""
        if not chain:
            return []
        if len(chain) == 1:
            name = chain[0]
            local = self._in_summary(summary, name)
            if local:
                return local
            target = summary.imports.get(name)
            if target:
                mod, _, obj = target.rpartition(".")
                if mod:
                    hits = self._module_functions(mod, obj)
                    if hits:
                        return hits
                # ``import pkg.mod`` bound bare: calling it is not a function
                return []
            return []
        head, tail = chain[0], chain[1:]
        if head == "self" and len(tail) == 1 and caller.cls is not None:
            method = f"{caller.cls}.{tail[0]}"
            if method in summary.functions:
                return [(summary.path, method)]
            return self._by_name.get(tail[0], [])
        target = summary.imports.get(head)
        if target is not None and len(tail) == 1:
            hits = self._module_functions(target, tail[0])
            if hits:
                return hits
            # imported module we did not index (numpy, scipy, stdlib):
            # resolving against same-named project functions would be wrong
            return []
        # ``obj.m(...)`` — unify with every known function/method named m
        return self._by_name.get(tail[-1], [])

    # ------------------------------------------------------------------ #
    # transitive queries

    def _transitive(self, attr: str, key: FuncKey, seen: set[FuncKey]) -> bool:
        memo_key = (attr, key)
        if memo_key in self._memo:
            return self._memo[memo_key]
        facts = self.facts.get(key)
        if facts is None:
            return False
        if getattr(facts, attr):
            self._memo[memo_key] = True
            return True
        seen.add(key)
        result = any(
            self._transitive(attr, callee, seen)
            for callee in self.edges.get(key, [])
            if callee not in seen
        )
        # only cache positive results: a False reached through a cycle guard
        # may be a True along a different traversal order
        if result:
            self._memo[memo_key] = True
        return result

    def transitively_charges(self, key: FuncKey) -> bool:
        return self._transitive("charges", key, set())

    def transitively_supersteps(self, key: FuncKey) -> bool:
        return self._transitive("has_superstep", key, set())

    def transitively_comms(self, key: FuncKey) -> bool:
        return self._transitive("comms", key, set())

    def transitively_accounts(self, key: FuncKey) -> bool:
        """Charges anything, including memory-footprint accounting."""
        return self._transitive("charges", key, set()) or self._transitive(
            "notes_memory", key, set()
        )

    def all_known_callers(self, key: FuncKey, predicate: str) -> bool:
        """True if the function has callers and every one satisfies ``predicate``
        (a ``transitively_*`` method name) — used to accept helpers that charge
        on their caller's behalf, or are barriered by every caller."""
        callers = [c for c in self.callers.get(key, []) if c != key]
        if not callers:
            return False
        check = getattr(self, predicate)
        return all(check(c) for c in callers)
