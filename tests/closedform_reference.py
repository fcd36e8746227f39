"""Reference lvalue resolvers for differential tests of loopacc.closedform:
the two that `closed_form_of` replaced.  ``closed_forms_by_pick`` fills the
table's displacing entries with a "pick" loop, which repeatedly takes the
first pending displacing lvalue whose index lvalues all have entries.
``closed_form_for`` resolves a guard lvalue outside the closure: a table hit,
else the lvalue itself when it reads no written variable, else one
classification and, when displacing, its index lvalues recursively."""

from __future__ import annotations

from loopacc.arrayform import ArrayFormError, closed_form_array
from loopacc.classify import LvalueClass, check_a_solvable, classify_lvalue
from loopacc.closedform import (
    ClosedFormError, ClosedForms, ClosedFormTable, Failure, closed_form_inductive,
)
from loopacc.expr import Sel, free_vars, lval_set, substitute_lvalues
from loopacc.recurrence import Unsolvable, build_rec, solve_rec, verify_solution
from loopacc.simplify import simplify


def closed_form_displacing(lv, table):
    mapping = {}
    for ix in lv.idx:
        for sub in lval_set(ix):
            mapping[sub] = table.of(sub)
    idx = tuple(simplify(substitute_lvalues(ix, mapping)) for ix in lv.idx)
    return Sel(lv.arr, idx)


def closed_forms_by_pick(loop, session):
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
    pending = []
    for lv in verdict.closure:
        label = verdict.labels[lv].label
        if label == LvalueClass.TRIVIAL:
            table.entries[lv] = lv
        elif label == LvalueClass.INDUCTIVE:
            table.entries[lv] = closed_form_inductive(lv, sol)
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
    variables = {}
    for x in loop.variables():
        try:
            variables[x] = closed_form_array(loop, x, table, verdict.up)
        except (ArrayFormError, ClosedFormError) as exc:
            variables[x] = Failure("array-closed-form", str(exc))
    return ClosedForms(table, verdict, system, sol, variables)


def closed_form_for(lv, loop, forms, session):
    if lv in forms.table:
        return forms.table.of(lv)
    if not (free_vars(lv) & loop.written_vars()):
        return lv
    verdict = forms.verdict
    label = classify_lvalue(loop, lv, verdict.monotone[lv.arr], verdict.up, session).label
    if label != LvalueClass.DISPLACING:
        return None
    mapping = {}
    for ix in lv.idx:
        for sub in lval_set(ix):
            cf = closed_form_for(sub, loop, forms, session)
            if cf is None:
                return None
            mapping[sub] = cf
    return Sel(lv.arr, tuple(simplify(substitute_lvalues(ix, mapping)) for ix in lv.idx))
