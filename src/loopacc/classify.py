"""Lvalue closure set, per-variable monotonicity, per-lvalue classification
(trivial / inductive / displacing) and the a-solvability verdict.

Index comparisons are lexicographic.  Every validity question goes through
``session.is_valid``, which tries the simplifier before the solver; an answer
the backend cannot give degrades to an inconclusive monotonicity or an
Unclassifiable label, never to an unsound one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .expr import Formula, Rel, Sel, Var, conj, disj, free_vars, lval_set
from .loop import Loop, UpdateSubstitution, build_up
from .sexpr import to_text


class LvalueClass(enum.Enum):
    TRIVIAL = "trivial"
    INDUCTIVE = "inductive"
    DISPLACING = "displacing"
    UNCLASSIFIABLE = "unclassifiable"


class Monotonicity(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    BOTH = "both"  # no index on the variable changes
    NONE = "none"


def lex_lt(u: tuple, v: tuple) -> Formula:
    """u < v in the lexicographic order on equal-length index vectors."""
    cases = []
    for i in range(len(u)):
        prefix = [Rel("=", u[j], v[j]) for j in range(i)]
        cases.append(conj(prefix + [Rel("<", u[i], v[i])]))
    return disj(cases)


def lex_le(u: tuple, v: tuple) -> Formula:
    eq = conj(Rel("=", a, b) for a, b in zip(u, v))
    return disj([lex_lt(u, v), eq])


def compute_L(loop: Loop) -> list[Sel]:
    """Least set containing the rhs lvalues and closed under lvalues of index
    vectors; deterministic order for reproducible reports."""
    out: list[Sel] = []
    seen: set[Sel] = set()
    queue: list[Sel] = []
    for r in loop.rhs:
        for lv in sorted(lval_set(r), key=to_text):
            queue.append(lv)
    while queue:
        lv = queue.pop(0)
        if lv in seen:
            continue
        seen.add(lv)
        out.append(lv)
        for ix in lv.idx:
            for sub in sorted(lval_set(ix), key=to_text):
                queue.append(sub)
    return out


def monotonicity(loop: Loop, x: Var, up: UpdateSubstitution, session) -> Monotonicity | None:
    """Direction of x's written indices under one iteration (Both when there
    is nothing to compare, e.g. scalars and unwritten variables); None when
    neither direction is established and the backend left one undecided."""
    writes = loop.writes_to(x)
    inc_parts, dec_parts = [], []
    for lv, _ in writes:
        upped = tuple(up.apply(ix) for ix in lv.idx)
        inc_parts.append(lex_le(lv.idx, upped))
        dec_parts.append(lex_le(upped, lv.idx))
    inc = session.is_valid(conj(inc_parts))
    dec = session.is_valid(conj(dec_parts))
    if inc and dec:
        return Monotonicity.BOTH
    if inc:
        return Monotonicity.INCREASING
    if dec:
        return Monotonicity.DECREASING
    if inc is None or dec is None:
        return None
    return Monotonicity.NONE


@dataclass
class Classification:
    label: LvalueClass
    justification: str = ""
    partner: Sel | None = None  # an inductive lvalue's write x[up(r)]


def classify_lvalue(loop: Loop, lv: Sel, direction: Monotonicity,
                    up: UpdateSubstitution, session) -> Classification:
    """Strongest applicable label, trivial first.  Inductive membership uses
    semantic index equality (up(r) is rarely syntactically identical to a
    written index); displacing flips the strict comparison for decreasing
    variables."""
    written = loop.written_vars()
    if not (free_vars(lv) & written):
        return Classification(LvalueClass.TRIVIAL, "reads no written variable")
    x = lv.arr
    upped = tuple(up.apply(ix) for ix in lv.idx)
    for wlv, _ in loop.writes_to(x):
        eq = conj(Rel("=", a, b) for a, b in zip(wlv.idx, upped))
        if session.is_valid(eq):
            just = f"{x.name}[up(r)] = {to_text(wlv)} is written"
            return Classification(LvalueClass.INDUCTIVE, just, wlv)
    writes = loop.writes_to(x)
    if direction == Monotonicity.NONE:
        return Classification(LvalueClass.UNCLASSIFIABLE, f"{x.name} is not monotonic")
    sides = []
    if direction in (Monotonicity.INCREASING, Monotonicity.BOTH):
        sides.append(("r' < up(r)", lambda w: lex_lt(w, upped)))
    if direction in (Monotonicity.DECREASING, Monotonicity.BOTH):
        sides.append(("r' > up(r)", lambda w: lex_lt(upped, w)))
    inconclusive = False
    for name, mk in sides:
        verdict = session.is_valid(conj(mk(wlv.idx) for wlv, _ in writes))
        if verdict:
            return Classification(LvalueClass.DISPLACING,
                                  f"{name} valid for every write to {x.name}")
        if verdict is None:
            inconclusive = True
    if inconclusive:
        return Classification(LvalueClass.UNCLASSIFIABLE, "backend inconclusive")
    return Classification(LvalueClass.UNCLASSIFIABLE, "neither trivial, inductive nor displacing")


@dataclass
class SolvabilityVerdict:
    a_solvable: bool
    up: UpdateSubstitution  # the one the verdict was decided with
    monotone: dict[Var, Monotonicity] = field(default_factory=dict)
    closure: list[Sel] = field(default_factory=list)
    labels: dict[Sel, Classification] = field(default_factory=dict)
    rhs_tags: list[str] = field(default_factory=list)  # per rhs: "a" or "b"
    reason: str = ""


def check_a_solvable(loop: Loop, session) -> SolvabilityVerdict:
    """Monotonic + full classification of the closure + per-rhs condition:
    (a) only trivial/inductive reads or (b) only displacing reads (trivial
    lvalues count as displacing)."""
    up = build_up(loop)
    verdict = SolvabilityVerdict(False, up)
    for x in loop.variables():
        m = monotonicity(loop, x, up, session)
        if m is None:
            verdict.reason = f"backend inconclusive on the monotonicity of {x.name}"
            return verdict
        verdict.monotone[x] = m
        if m == Monotonicity.NONE:
            verdict.reason = f"{x.name} is not monotonic"
            return verdict
    closure = compute_L(loop)
    verdict.closure = closure
    for lv in closure:
        c = classify_lvalue(loop, lv, verdict.monotone[lv.arr], up, session)
        verdict.labels[lv] = c
        if c.label == LvalueClass.UNCLASSIFIABLE:
            verdict.reason = f"{to_text(lv)} is unclassifiable: {c.justification}"
            return verdict
    for pos, r in enumerate(loop.rhs, start=1):
        labels = {verdict.labels[lv].label for lv in lval_set(r)}
        if labels <= {LvalueClass.TRIVIAL, LvalueClass.INDUCTIVE}:
            verdict.rhs_tags.append("a")
        elif labels <= {LvalueClass.TRIVIAL, LvalueClass.DISPLACING}:
            verdict.rhs_tags.append("b")
        else:
            verdict.reason = f"mixed inductive/displacing in Lval(r_{pos})"
            return verdict
    verdict.a_solvable = True
    return verdict
