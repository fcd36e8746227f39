"""Reference recurrence construction for differential tests of
loopacc.recurrence: ``build_rec`` as it was before classification recorded
each inductive lvalue's write.  For an inductive x[r] it searches the writes
to x again for the first whose index equals up(r), one validity query per
component, and checks that the rhs reads only closure lvalues."""

from __future__ import annotations

from loopacc.classify import LvalueClass
from loopacc.expr import Rel, lval_set
from loopacc.simplify import simplify


def build_rec_by_search(loop, verdict, up, session) -> dict:
    known = set(verdict.closure)
    equations = {}
    for lv in verdict.closure:
        if verdict.labels[lv].label != LvalueClass.INDUCTIVE:
            continue
        upped = tuple(up.apply(ix) for ix in lv.idx)
        rhs = None
        for wlv, wr in loop.writes_to(lv.arr):
            if all(session.is_valid(Rel("=", a, b)) for a, b in zip(wlv.idx, upped)):
                rhs = wr
                break
        if rhs is None:
            raise AssertionError(f"inductive lvalue {lv!r} has no matching write")
        missing = lval_set(rhs) - known
        if missing:
            raise AssertionError(f"rhs reads lvalues outside the closure: {missing!r}")
        equations[simplify(lv)] = rhs
    return equations
