"""Accelerated transitions: a formula over the loop variables, their primed
copies and the counter n that holds exactly of (s, s', n) when s reaches s' in
n > 0 iterations.

The guard is characterized through monotonicity: an atom that holds after the
body whenever it held before only needs to hold at iteration n-1; an atom
preserved forward only needs to hold at iteration 0.  Anything else fails the
acceleration (no quantified fallback is ever emitted).

The reachability encoding conjoins init, the accelerated formula and the post
renamed to the final state, and splits the conjunction at its ands and its
negated ors: any other disjunction or negation stays one conjunct for the
theory solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import (
    And, Bin, BoolConst, Const, Formula, Not, Or, Rel, Var,
    conj, lval_set, substitute, substitute_lvalues, sv,
)
from .closedform import ClosedForms, Failure, closed_form_of, closed_forms_all
from .loop import Loop, validate_loop
from .recurrence import N
from .sexpr import to_text
from .simplify import normal_form_scope, simplify_formula


def primed(x: Var) -> Var:
    return Var(x.name + "'", x.arity)


@dataclass
class AcceleratedTransition:
    loop: Loop
    formula: Formula  # over V, V' and n; includes n > 0
    closed_forms: dict[Var, object]  # x -> x^(n) expression / lambda
    guard_formula: Formula


def conjuncts_of(f: Formula) -> list[Formula]:
    """The conjuncts of f: nested ands flattened, a negated or split into
    its negated disjuncts, double negations and true dropped; any other
    formula, a disjunction too, is one conjunct."""
    if isinstance(f, Not) and isinstance(f.arg, Or):
        return conjuncts_of(And(tuple(Not(a) for a in f.arg.args)))
    if isinstance(f, Not) and isinstance(f.arg, Not):
        return conjuncts_of(f.arg.arg)
    if isinstance(f, And):
        out = []
        for a in f.args:
            out.extend(conjuncts_of(a))
        return out
    if isinstance(f, BoolConst) and f.value:
        return []
    return [f]


def guard_characterize(loop: Loop, forms: ClosedForms, session) -> Formula | Failure:
    """Per guard atom psi: if psi[up] => psi is valid, emit psi at iteration
    n-1 (its lvalues replaced by closed forms at n-1); if psi => psi[up] is
    valid, emit psi unchanged; otherwise fail."""
    up = forms.verdict.up
    out = []
    for atom in conjuncts_of(loop.guard):
        post = up.apply(atom)
        post_implies_pre = session.is_valid(Or((Not(post), atom)))
        if post_implies_pre:
            mapping = {}
            failed = None
            for lv in lval_set(atom):
                cf = closed_form_of(lv, loop, forms.table, forms.verdict, session)
                if cf is None:
                    failed = lv
                    break
                mapping[lv] = cf
            if failed is not None:
                return Failure("guard", f"no closed form for guard lvalue {to_text(failed)}")
            shifted = substitute_lvalues(atom, mapping)
            shifted = substitute(shifted, {N: Bin("-", sv(N), Const(1))})
            out.append(simplify_formula(shifted))
            continue
        pre_implies_post = session.is_valid(Or((Not(atom), post)))
        if pre_implies_post:
            out.append(simplify_formula(atom))
            continue
        if post_implies_pre is None or pre_implies_post is None:
            return Failure("guard", "backend inconclusive on guard monotonicity")
        return Failure("guard", f"guard atom is not monotonic: {to_text(atom)}")
    return conj(out)


@normal_form_scope
def accelerate(loop: Loop, session) -> AcceleratedTransition | Failure:
    """n > 0, the guard characterization, and x' = x^(n) for every loop
    variable (unwritten variables keep x' = x so models stay total)."""
    validation = validate_loop(loop, session)
    if not validation.ok:
        detail = "inconclusive" if validation.inconclusive else f"pair {validation.violation}"
        return Failure("validation", f"(Distinct) not established: {detail}")
    forms = closed_forms_all(loop, session)
    if isinstance(forms, Failure):
        return forms
    guard = guard_characterize(loop, forms, session)
    if isinstance(guard, Failure):
        return guard
    conjuncts: list[Formula] = [Rel(">", sv(N), Const(0))]
    conjuncts.extend(conjuncts_of(guard))
    for x, cf in forms.variables.items():
        if isinstance(cf, Failure):
            return cf
        conjuncts.append(Rel("=", primed(x) if x.arity else sv(primed(x)), cf))
    return AcceleratedTransition(loop, conj(conjuncts), forms.variables, guard)


# ---------------------------------------------------------------------------
# reachability encoding


def encode_reachability(pre: list[Formula], transition: AcceleratedTransition,
                        post: list[Formula]) -> list[Formula]:
    """pre /\\ accelerated formula /\\ post[x/x'] as a list of conjuncts for
    the lambda theory solver; post is stated over unprimed variables and
    renamed to the primed final state."""
    rename = {}
    for x in transition.loop.variables():
        rename[x] = primed(x) if x.arity else sv(primed(x))
    lits: list[Formula] = []
    for f in [*pre, transition.formula, *(substitute(f, rename) for f in post)]:
        lits.extend(conjuncts_of(f))
    return lits
