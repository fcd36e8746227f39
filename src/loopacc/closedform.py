"""Closed forms for every lvalue in the closure set: trivial lvalues are their
own closed form, inductive ones come from the solved recurrence system, and
displacing ones substitute known closed forms into their index vector.  The
three steps terminate because unknown lvalues inside a displacing index are
proper subterms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arrayform import ArrayFormError, closed_form_array
from .expr import Const, Expr, Sel, Var, free_vars, lval_set, substitute, substitute_lvalues
from .classify import LvalueClass, SolvabilityVerdict, check_a_solvable
from .loop import Loop
from .recurrence import (
    N, RecSolution, RecurrenceSystem, Unsolvable, build_rec, solve_rec, verify_solution,
)
from .simplify import simplify


class ClosedFormError(Exception):
    pass


@dataclass
class ClosedFormTable:
    entries: dict[Sel, Expr] = field(default_factory=dict)

    def of(self, lv: Sel) -> Expr:
        if lv not in self.entries:
            raise ClosedFormError(f"no closed form for {lv!r}")
        return self.entries[lv]

    def __contains__(self, lv: Sel) -> bool:
        return lv in self.entries

    def items(self):
        return self.entries.items()

    def at(self, lv: Sel, n_value) -> Expr:
        """Closed form with n instantiated (an int or an expression)."""
        img = n_value if not isinstance(n_value, int) else Const(n_value)
        return simplify(substitute(self.of(lv), {N: img}))


@dataclass
class Failure:
    phase: str  # validation | classification | rec | rec-verify | pick | guard | array-closed-form
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


def closed_form_displacing(lv: Sel, table: ClosedFormTable) -> Expr:
    mapping = {}
    for ix in lv.idx:
        for sub in lval_set(ix):
            mapping[sub] = table.of(sub)
    idx = tuple(simplify(substitute_lvalues(ix, mapping)) for ix in lv.idx)
    return Sel(lv.arr, idx)


@dataclass
class ClosedForms:
    table: ClosedFormTable
    verdict: SolvabilityVerdict
    system: RecurrenceSystem
    solution: RecSolution
    # x -> x^(n) for every loop variable in name order (a lambda for a written
    # array, x itself when unwritten), or the Failure of x's closed form
    variables: dict[Var, Expr | Failure]


def closed_forms_all(loop: Loop, session=None) -> ClosedForms | Failure:
    """Step 1 trivial, step 2 inductive, step 3 repeatedly pick a displacing
    lvalue whose index lvalues are all known; then every variable's closed
    form, scalars as arrays of dimension 0."""
    verdict = check_a_solvable(loop, session)
    if not verdict.a_solvable:
        return Failure("classification", verdict.reason)
    system = build_rec(loop, verdict)
    sol = solve_rec(system)
    if isinstance(sol, Unsolvable):
        return Failure("rec", sol.reason)
    bad = verify_solution(system, sol, session)
    if bad is not None:
        return Failure("rec-verify", bad)

    table = ClosedFormTable()
    pending = []
    for lv in verdict.closure:
        label = verdict.labels[lv].label
        if label == LvalueClass.TRIVIAL:
            table.entries[lv] = lv
        elif label == LvalueClass.INDUCTIVE:
            table.entries[lv] = closed_form_inductive(lv, system, sol)
        else:
            pending.append(lv)
    while pending:
        progress = None
        for lv in pending:
            needed = set().union(*(lval_set(ix) for ix in lv.idx)) if lv.idx else set()
            if all(x in table for x in needed):
                progress = lv
                break
        if progress is None:
            return Failure("pick", "no displacing lvalue with fully known index")
        table.entries[progress] = closed_form_displacing(progress, table)
        pending.remove(progress)  # the unknown set strictly shrinks
    variables: dict[Var, Expr | Failure] = {}
    for x in loop.variables():
        try:
            variables[x] = closed_form_array(loop, x, table, verdict.up)
        except (ArrayFormError, ClosedFormError) as exc:
            variables[x] = Failure("array-closed-form", str(exc))
    return ClosedForms(table, verdict, system, sol, variables)
