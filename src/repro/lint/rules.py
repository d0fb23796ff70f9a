"""Lint rule registry and the :class:`Finding` record.

The rules encode the repo's cost-accounting discipline (DESIGN.md): every
local flop is charged through :mod:`repro.bsp.kernels` (or an explicit
``machine.charge_flops``) and every word moved between ranks through
:mod:`repro.bsp.collectives` / the dist layer.  Code that performs dense
math or data motion outside those channels silently under-counts the
measured (F, W, Q, S) and must either be re-routed or carry a
``# cost: free(<reason>)`` pragma / baseline entry.

Rules REPRO000–005 are lexical (per-function AST heuristics, with a
module-local call graph refining REPRO003/REPRO004).  Rules REPRO006–011
belong to the interprocedural dataflow layer (``repro lint --dataflow``):
static race/ownership checking over the project call graph
(:mod:`repro.lint.dataflow`) and symbolic cost certificates against the
paper's lemmas (:mod:`repro.lint.certify`).
"""

from __future__ import annotations

from dataclasses import dataclass

#: rule id -> one-line description (kept in sync with docs/static_analysis.md)
RULES: dict[str, str] = {
    "REPRO000": "parse-error: file could not be parsed",
    "REPRO001": (
        "uncounted-flops: dense-math operation (matmul/@, dot, outer, einsum, ...) "
        "outside repro.bsp.kernels charges no F/Q"
    ),
    "REPRO002": (
        "uncounted-linalg: direct numpy.linalg / scipy.linalg call bypasses "
        "cost accounting (route through bsp.kernels or util.validation)"
    ),
    "REPRO003": (
        "uncounted-copy: rank-owned buffer (.data) copied in a function that "
        "performs no communication charge"
    ),
    "REPRO004": (
        "missing-barrier: p2p send/recv pair not closed by a superstep barrier "
        "in the enclosing function"
    ),
    "REPRO005": "bad-pragma: '# cost:' pragma is malformed or missing a reason",
    "REPRO006": (
        "cross-rank-read: a rank reads another rank's buffer without a "
        "mediating collective / fetch_window anywhere in its call closure"
    ),
    "REPRO007": (
        "write-after-send: buffer handed to an unbarriered send (p2p / raw "
        "charge_comm) is written before the closing superstep barrier"
    ),
    "REPRO008": (
        "rank-alias: two ranks' buffers alias the same storage (stored "
        "without a .copy(), so one rank's write silently mutates another's)"
    ),
    "REPRO009": (
        "escaped-buffer: rank-owned .data buffer escapes (return / argument / "
        "attribute / closure) into a call context that never charges"
    ),
    "REPRO010": (
        "cost-certificate: a stage's extracted symbolic cost exceeds the "
        "leading term of its repro.model.costs lemma"
    ),
    "REPRO011": (
        "uncertifiable-stage: a stage registered for cost certification has "
        "loop/charge structure the certifier cannot extract"
    ),
}

#: dataflow-layer rules, reported only under ``repro lint --dataflow``
DATAFLOW_RULES: frozenset[str] = frozenset(
    {"REPRO006", "REPRO007", "REPRO008", "REPRO009", "REPRO010", "REPRO011"}
)

#: rule id -> long-form explanation for ``repro lint --explain RULE``
EXPLANATIONS: dict[str, str] = {
    "REPRO000": (
        "The file failed to parse, so none of its costs can be audited.  A\n"
        "parse error is always fatal and cannot be pragma-waived: fix the\n"
        "syntax first."
    ),
    "REPRO001": (
        "Dense arithmetic (the '@'/'@=' operators, np.dot, np.matmul,\n"
        "np.outer, np.einsum, ndarray .dot(), ...) performs O(size) or more\n"
        "flops.  Outside repro/bsp/kernels.py nothing charges the simulated\n"
        "machine for them, so the measured F and Q silently under-count.\n"
        "Route the product through a sharded kernel (local_matmul, ...) or\n"
        "charge it explicitly with machine.charge_flops."
    ),
    "REPRO002": (
        "numpy.linalg / scipy.linalg factorizations cost O(n^3) flops that\n"
        "the machine never sees.  Use the charged block algorithms\n"
        "(repro.blocks) or, for verification-only oracles, call through\n"
        "repro/util/validation.py, which is allowlisted by design."
    ),
    "REPRO003": (
        "Copying a rank-owned '.data' buffer moves words through the memory\n"
        "hierarchy.  In a function whose call closure performs no\n"
        "communication or traffic charge, that copy is unaccounted data\n"
        "motion.  Recognized copy forms: '<x>.data.copy()', slice copies\n"
        "like '<x>.data[...].copy()', and np.copy / np.array / np.asarray /\n"
        "np.ascontiguousarray applied to a '.data' expression.  Under\n"
        "--dataflow the charge may live in a helper or (for every caller) in\n"
        "the callers; the lexical mode resolves helpers within the module."
    ),
    "REPRO004": (
        "p2p() charges a point-to-point transfer but does NOT close the\n"
        "superstep: under BSP semantics the words are not delivered until a\n"
        "superstep barrier.  A p2p whose enclosing function (or, under\n"
        "--dataflow, its call closure / every caller) never reaches\n"
        "machine.superstep models a send that never completes."
    ),
    "REPRO005": (
        "A '# cost:' comment that matches neither 'free(<reason>)' nor\n"
        "'free-module(<reason>)', or that has an empty reason, is reported\n"
        "so a typo cannot silently disable the linter.  The reason is\n"
        "mandatory and should say WHY the cost is free."
    ),
    "REPRO006": (
        "A rank-indexed store (buffers[r] written inside a loop over ranks)\n"
        "models per-rank ownership.  Reading buffers[s] for a different rank\n"
        "expression (a neighbor offset, another loop's rank variable) is a\n"
        "cross-rank read: on a real machine that data is remote.  The read\n"
        "is clean only when the function's call closure performs a\n"
        "collective / fetch_window / p2p that could have moved it.  This is\n"
        "the static complement of VerifiedMachine's read-provenance check."
    ),
    "REPRO007": (
        "After a buffer is referenced by an unbarriered send (p2p, or a raw\n"
        "machine.charge_comm with sends=), BSP semantics say the transfer is\n"
        "in flight until the next superstep barrier.  Writing to the buffer\n"
        "before that barrier races with the delivery: the receiver may see\n"
        "either value.  Collectives are safe (they barrier internally);\n"
        "helpers that superstep also close the window (call-graph-aware)."
    ),
    "REPRO008": (
        "Storing a buffer reference (an ndarray, a '.data' attribute, or\n"
        "another rank's entry) into a rank-indexed store without .copy()\n"
        "makes two ranks alias one storage: a write through either handle\n"
        "mutates both ranks' state with no charged communication.  Copy the\n"
        "buffer (and charge the copy) or route through a collective."
    ),
    "REPRO009": (
        "A rank-owned '.data' buffer escaped its defining function — via\n"
        "return, an argument to an unknown/uncharging callee, an attribute\n"
        "store, or a closure capture — and neither the function nor its call\n"
        "closure charges anything, so the data left rank context without any\n"
        "accounted motion.  A charged escape (DistBandMatrix.gather, windowed\n"
        "fetch/store) is fine; so is one where every known caller charges."
    ),
    "REPRO010": (
        "Each registered stage carries a symbolic cost certificate: the\n"
        "certifier extracts the stage's loop/charge structure into a\n"
        "polynomial in (n, b, p, p^delta, ...) and compares the leading-term\n"
        "degree against the stage's repro.model.costs lemma at reference\n"
        "scalings.  This finding means a code path now charges asymptotically\n"
        "MORE than the lemma allows — e.g. un-aggregating full_to_band's\n"
        "trailing update turns W = O(n^2/p^delta) into O(n^3/(b p^delta)).\n"
        "Fix the algorithm, or update the lemma if the paper's bound changed."
    ),
    "REPRO011": (
        "A stage registered in repro.lint.certify could not be extracted:\n"
        "a loop whose trip count the certifier cannot infer, or a charge\n"
        "whose magnitude involves values it cannot resolve.  Add a\n"
        "'# certify: trips(<expr>)' hint on the loop line (or\n"
        "'# certify: count(<expr>)' on the charge) so the certificate stays\n"
        "checkable — an unextractable stage is an unchecked stage."
    ),
}


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic, addressable as ``path:line:col``."""

    path: str  # posix path relative to the lint root
    line: int  # 1-based
    col: int  # 0-based, as in ast
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def make_finding(path: str, line: int, col: int, rule: str, detail: str = "") -> Finding:
    """Build a finding with the rule's canonical message plus optional detail."""
    if rule not in RULES:
        raise KeyError(f"unknown lint rule {rule!r}")
    message = RULES[rule] if not detail else f"{RULES[rule].split(':', 1)[0]}: {detail}"
    return Finding(path=path, line=line, col=col, rule=rule, message=message)


def explain_rule(rule: str) -> str:
    """Long-form help text for ``repro lint --explain RULE``."""
    rule = rule.upper()
    if rule not in RULES:
        raise KeyError(f"unknown lint rule {rule!r} (known: {', '.join(sorted(RULES))})")
    header = f"{rule}: {RULES[rule]}"
    return header + "\n\n" + EXPLANATIONS[rule]
