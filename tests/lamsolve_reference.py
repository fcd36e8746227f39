"""Reference refinement loop for differential tests of loopacc.lamsolve:
``solve`` as it was when each round checked the backend's model with
``check_model`` first and only then looked for violated instances
p[e] = q[e] at the query's index vectors.  The preprocessing, the model
check and the model completion are lamsolve's own."""

from __future__ import annotations

from loopacc.backend import BackendSession
from loopacc.expr import (
    BoolConst, EvalError, Expr, FiniteFn, Formula, Rel, Sel, arity_of, beta_reduce,
    free_vars,
)
from loopacc.lamsolve import (
    SolveError, SolveResult, _eval_apply, _finish_model, array_equalities, check_model,
    collect_idx, eliminate_diseq, propagate_and_reduce,
)
from loopacc.simplify import normal_form_scope, simplify_formula


@normal_form_scope
def solve_check_first(lits: list[Formula], session: BackendSession) -> SolveResult:
    try:
        lits = eliminate_diseq(lits)
    except SolveError as exc:
        return SolveResult("unknown", diagnostic=str(exc))
    prop = propagate_and_reduce(lits)
    phi = prop.literals
    if any(f == BoolConst(False) for f in phi):
        return SolveResult("unsat")
    phi = [f for f in phi if f != BoolConst(True)]
    sent = [f for f in phi if not (isinstance(f, Rel) and arity_of(f.left) > 0)]
    idx = collect_idx(phi)
    equalities = array_equalities(phi)
    all_vars = set()
    for f in phi:
        all_vars |= free_vars(f)

    tried: set[tuple[int, tuple[Expr, ...]]] = set()
    lemmas = 0
    while True:
        res = session.check(sent or [BoolConst(True)])
        if res.status == "unsat":
            return SolveResult("unsat", lemmas=lemmas)
        if res.status != "sat":
            return SolveResult("unknown", diagnostic=res.diagnostic or "backend unknown",
                               lemmas=lemmas, reason=res.reason)
        model = res.model
        for x in sorted(all_vars, key=lambda v: v.name):
            if x.arity == 0:
                model.scalars.setdefault(x.name, 0)
            else:
                model.arrays.setdefault(x.name, FiniteFn.const(x.arity, 0))
        if check_model(model, phi, session):
            return SolveResult("model", _finish_model(model, prop.log), lemmas=lemmas)
        progress = False
        state = model.as_state(all_vars)
        for k, (p, q) in enumerate(equalities):
            par = arity_of(p)
            for e in idx:
                if len(e) != par or (k, e) in tried:
                    continue
                try:
                    lv = _eval_apply(p, e, state)
                    rv = _eval_apply(q, e, state)
                except EvalError:
                    continue
                if lv != rv:
                    tried.add((k, e))
                    sent.append(simplify_formula(Rel("=", beta_reduce(Sel(p, e)),
                                                     beta_reduce(Sel(q, e)))))
                    lemmas += 1
                    progress = True
        if not progress:
            return SolveResult("unknown", diagnostic="refinement failed", lemmas=lemmas)
