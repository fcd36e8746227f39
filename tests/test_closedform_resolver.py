"""`closedform.closed_form_of`, the one resolver for displacing lvalues,
against the two it replaced, kept in closedform_reference.py: the pick loop
that filled the table and accel's resolver for guard lvalues outside the
closure.  Both sides must give the same table, variables and guard
characterization, and draw as many fresh names, on generated loops, the
examples, and loops written to chain displacing lvalues and to read guard
lvalues outside the closure."""

from pathlib import Path

import pytest

from loopacc import accel
from loopacc.accel import guard_characterize
from loopacc.closedform import (
    ClosedFormError, ClosedFormTable, Failure, closed_form_of, closed_forms_all,
)
from loopacc.expr import Sel, fresh_name, lval_set, reset_fresh_counter, sv
from loopacc.gen import gen_loop
from loopacc.problem import parse_problem
from loopacc.sexpr import to_text

import closedform_reference as ref
from conftest import A, I

EXAMPLES = Path(__file__).resolve().parent.parent / "examples_problems"

# c and d are never written, so c[b[i+1]] and d[c[b[i+1]]] are displacing
# (no write to compare against) and so is b[i+1] (b is written at i < i+2)
CHAINED = """
(declare (i 0) (k 0) (b 1) (c 1) (d 1) (e 1))
(loop
  (guard (< i k))
  (update
    ((lhs i) (rhs (+ i 1)))
    ((lhs (select b i)) (rhs (select b (+ i 1))))
    ((lhs (select e i)) (rhs (+ (select d (select c (select b (+ i 1)))) (select c (+ i 3)))))))
"""

# two displacing chains side by side: the pick loop and the recursive
# resolver reach their entries in different orders
TWO_CHAINS = """
(declare (i 0) (k 0) (b 1) (c 1) (d 1) (e 1))
(loop
  (guard (< i k))
  (update
    ((lhs i) (rhs (+ i 1)))
    ((lhs (select b i)) (rhs 1))
    ((lhs (select e i)) (rhs (+ (select c (select b (+ i 1))) (select d (+ i 2)))))))
"""

# i <- i+1, a[i] <- a[i+1], b[i] <- 0; each guard atom below is preserved by
# the body, so it is characterized at iteration n-1 through its lvalues:
# a[i+2] and d[b[i+2]] are displacing outside the closure, a[i-1] is
# inductive and a[k] unclassifiable (neither has a closed form)
GUARDED = """
(declare (i 0) (k 0) (a 1) (b 1) (d 1))
(loop
  (guard (and (< i k) {atom}))
  (update
    ((lhs i) (rhs (+ i 1)))
    ((lhs (select a i)) (rhs (select a (+ i 1))))
    ((lhs (select b i)) (rhs 0))))
"""
GUARD_READS = {
    "displacing": "(select a (+ i 2))",
    "chained": "(select d (select b (+ i 2)))",
    "inductive": "(select a (- i 1))",
    "unclassifiable": "(select a k)",
}

WRITTEN = {"chained": CHAINED, "two-chains": TWO_CHAINS}
WRITTEN.update({f"guard-{name}": GUARDED.format(atom=f"(<= {lv} {lv})")
                for name, lv in GUARD_READS.items()})
CASES = ([f"gen{seed}" for seed in range(40)] + sorted(p.name for p in EXAMPLES.glob("*.loop"))
         + sorted(WRITTEN))


def the_loop(case):
    if case.startswith("gen"):
        return gen_loop(int(case[3:])).loop
    if case in WRITTEN:
        return parse_problem(WRITTEN[case], is_path=False).loop
    return parse_problem(EXAMPLES / case).loop


def analysis(loop, forms, resolve, session):
    """The table (entry order aside) and variables as text, each guard
    lvalue's closed form, the guard's formula (or failure) and the next fresh
    name, with accel resolving through resolve; the counter was reset before
    forms was built."""
    if isinstance(forms, Failure):
        return forms, fresh_name("next")
    table = {to_text(lv): to_text(cf) for lv, cf in forms.table.items()}
    variables = {x.name: cf if isinstance(cf, Failure) else to_text(cf)
                 for x, cf in forms.variables.items()}
    guard_lvalues = {}
    for lv in sorted(lval_set(loop.guard), key=to_text):
        cf = resolve(lv, loop, forms.table, forms.verdict, session)
        guard_lvalues[to_text(lv)] = None if cf is None else to_text(cf)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(accel, "closed_form_of", resolve)
        guard = guard_characterize(loop, forms, session)
    guard = guard if isinstance(guard, Failure) else to_text(guard)
    return table, variables, guard_lvalues, guard, fresh_name("next")


@pytest.mark.parametrize("case", CASES)
def test_one_resolver_agrees_with_the_pick_loop_and_the_guard_resolver(case, session):
    loop = the_loop(case)
    reset_fresh_counter()
    got = analysis(loop, closed_forms_all(loop, session), closed_form_of, session)
    reset_fresh_counter()
    forms = ref.closed_forms_by_pick(loop, session)
    want = analysis(loop, forms, lambda lv, loop, table, verdict, ses:
                    ref.closed_form_for(lv, loop, forms, ses), session)
    assert got == want


def test_the_written_loops_reach_every_resolver_path(session):
    forms = closed_forms_all(the_loop("chained"), session)
    assert "(select d (select c (select b (+ i 1))))" in map(to_text, forms.table.entries)
    resolved, outcomes = {}, {}
    for name, text in GUARD_READS.items():
        loop = the_loop(f"guard-{name}")
        forms = closed_forms_all(loop, session)
        lv = next(lv for lv in lval_set(loop.guard) if to_text(lv) == text)
        assert lv not in forms.table
        cf = closed_form_of(lv, loop, forms.table, forms.verdict, session)
        resolved[name] = None if cf is None else to_text(cf)
        guard = guard_characterize(loop, forms, session)
        outcomes[name] = guard.detail if isinstance(guard, Failure) else "ok"
    assert resolved == {"displacing": "(select a (+ (+ i n) 2))",
                        "chained": "(select d (select b (+ (+ i n) 2)))",
                        "inductive": None, "unclassifiable": None}
    assert outcomes == {"displacing": "ok", "chained": "ok",
                        "inductive": "no closed form for guard lvalue (select a (- i 1))",
                        "unclassifiable": "no closed form for guard lvalue (select a k)"}


def test_a_missing_entry_is_reported_as_text():
    with pytest.raises(ClosedFormError) as exc:
        ClosedFormTable().of(Sel(A, (sv(I),)))
    assert str(exc.value) == "no closed form for (select a i)"
