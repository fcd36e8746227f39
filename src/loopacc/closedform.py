"""Closed forms for every lvalue in the closure set: trivial lvalues are their
own closed form, inductive ones come from the solved recurrence system, and
`closed_form_of` substitutes the closed forms of a displacing lvalue's index
lvalues into its index vector, for the closure and for guard lvalues outside
it; it terminates because index lvalues are proper subterms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arrayform import ArrayFormError, closed_form_array
from .expr import Expr, Sel, Var, free_vars, lval_set, substitute_lvalues
from .classify import LvalueClass, SolvabilityVerdict, check_a_solvable, classify_lvalue
from .loop import Loop
from .recurrence import (
    N, RecSolution, RecurrenceSystem, Unsolvable, build_rec, solve_rec, verify_solution,
)
from .sexpr import to_text
from .simplify import simplify


class ClosedFormError(Exception):
    pass


@dataclass
class ClosedFormTable:
    entries: dict[Sel, Expr] = field(default_factory=dict)

    def of(self, lv: Sel) -> Expr:
        if lv not in self.entries:
            raise ClosedFormError(f"no closed form for {to_text(lv)}")
        return self.entries[lv]

    def __contains__(self, lv: Sel) -> bool:
        return lv in self.entries

    def items(self):
        return self.entries.items()


@dataclass
class Failure:
    phase: str  # validation | classification | rec | rec-verify | guard | array-closed-form
    detail: str = ""


def closed_form_inductive(lv: Sel, system: RecurrenceSystem, sol: RecSolution) -> Expr:
    """theta(rec_lv) with the inverse lvalue substitution; theta images only
    contain rec symbols and n, which is asserted, so inversion is plain
    variable replacement."""
    rec = system.sigma.symbol(lv)
    body = sol.of(rec)
    allowed = set(system.sigma.symbols()) | {N}
    extra = free_vars(body) - allowed
    if extra:
        raise ClosedFormError(f"theta image mentions non-rec symbols: {extra}")
    return simplify(system.sigma.unapply(body))


def closed_form_of(lv: Sel, loop: Loop, table: ClosedFormTable, verdict: SolvabilityVerdict,
                   session) -> Expr | None:
    """lv's table entry, else lv when it reads no written variable, else for a
    displacing lv (the verdict's label, or classified once) lv over its index
    lvalues' closed forms, stored when lv is in the closure; else None."""
    if lv in table:
        return table.of(lv)
    if not (free_vars(lv) & loop.written_vars()):
        return lv
    c = verdict.labels.get(lv) or classify_lvalue(loop, lv, verdict.monotone[lv.arr],
                                                  verdict.up, session)
    if c.label != LvalueClass.DISPLACING:
        return None
    mapping = {}
    for ix in lv.idx:
        for sub in lval_set(ix):
            if (cf := closed_form_of(sub, loop, table, verdict, session)) is None:
                return None
            mapping[sub] = cf
    cf = Sel(lv.arr, tuple(simplify(substitute_lvalues(ix, mapping)) for ix in lv.idx))
    if lv in verdict.labels:
        table.entries[lv] = cf
    return cf


@dataclass
class ClosedForms:
    table: ClosedFormTable
    verdict: SolvabilityVerdict
    system: RecurrenceSystem
    solution: RecSolution
    # x -> x^(n) for every loop variable in name order (a lambda for a written
    # array, x itself when unwritten), or the Failure of x's closed form
    variables: dict[Var, Expr | Failure]

    def outside_table(self, loop: Loop) -> dict[Var, Expr | Failure]:
        """The written variables the table does not cover, in name order:
        arrays, and scalars no right-hand side reads."""
        return {x: cf for x, cf in self.variables.items() if x in loop.written_vars()
                and (x.arity or Sel(x, ()) not in self.table)}


def closed_forms_all(loop: Loop, session) -> ClosedForms | Failure:
    """Step 1 trivial, step 2 inductive, step 3 displacing through
    `closed_form_of`; then every variable's closed form, scalars as arrays of
    dimension 0."""
    verdict = check_a_solvable(loop, session)
    if not verdict.a_solvable:
        return Failure("classification", verdict.reason)
    system = build_rec(loop, verdict)
    sol = solve_rec(system)
    if isinstance(sol, Unsolvable):
        return Failure("rec", sol.reason)
    bad = verify_solution(system, sol)
    if bad is not None:
        return Failure("rec-verify", bad)

    table = ClosedFormTable()
    for lv in verdict.closure:
        label = verdict.labels[lv].label
        if label == LvalueClass.TRIVIAL:
            table.entries[lv] = lv
        elif label == LvalueClass.INDUCTIVE:
            table.entries[lv] = closed_form_inductive(lv, system, sol)
    # an a-solvable verdict labels every index lvalue of the closure, so each
    # displacing lvalue resolves (and is stored) here
    for lv in verdict.closure:
        closed_form_of(lv, loop, table, verdict, session)
    variables: dict[Var, Expr | Failure] = {}
    for x in loop.variables():
        try:
            variables[x] = closed_form_array(loop, x, table, verdict.up)
        except (ArrayFormError, ClosedFormError) as exc:
            variables[x] = Failure("array-closed-form", str(exc))
    return ClosedForms(table, verdict, system, sol, variables)
