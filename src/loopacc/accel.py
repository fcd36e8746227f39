"""Accelerated transitions: a formula over the loop variables, their primed
copies and the counter n that holds exactly of (s, s', n) when s reaches s' in
n > 0 iterations.

The guard is characterized through monotonicity: an atom that holds after the
body whenever it held before only needs to hold at iteration n-1; an atom
preserved forward only needs to hold at iteration 0.  Anything else fails the
acceleration (no quantified fallback is ever emitted).
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


def _guard_atoms(guard: Formula) -> list[Formula]:
    if isinstance(guard, And):
        out = []
        for a in guard.args:
            out.extend(_guard_atoms(a))
        return out
    if isinstance(guard, BoolConst) and guard.value:
        return []
    return [guard]


def guard_characterize(loop: Loop, forms: ClosedForms, session) -> Formula | Failure:
    """Per guard atom psi: if psi[up] => psi is valid, emit psi at iteration
    n-1 (its lvalues replaced by closed forms at n-1); if psi => psi[up] is
    valid, emit psi unchanged; otherwise fail."""
    up = forms.verdict.up
    out = []
    for atom in _guard_atoms(loop.guard):
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
    conjuncts.extend(_guard_atoms(guard))
    for x, cf in forms.variables.items():
        if isinstance(cf, Failure):
            return cf
        conjuncts.append(Rel("=", primed(x) if x.arity else sv(primed(x)), cf))
    return AcceleratedTransition(loop, conj(conjuncts), forms.variables, guard)


# ---------------------------------------------------------------------------
# reachability encoding


class EncodeError(Exception):
    pass


def flatten_literals(f: Formula) -> list[Formula]:
    """Conjunction to a flat literal list; disjunctive structure is rejected
    (CNF splitting is out of scope)."""
    if isinstance(f, BoolConst):
        return [] if f.value else [f]
    if isinstance(f, And):
        out = []
        for a in f.args:
            out.extend(flatten_literals(a))
        return out
    if isinstance(f, Rel):
        return [f]
    if isinstance(f, Not) and isinstance(f.arg, Rel):
        return [f]
    raise EncodeError(f"not a literal conjunction: {to_text(f)}")


def encode_reachability(pre: list[Formula], transition: AcceleratedTransition,
                        post: list[Formula]) -> list[Formula]:
    """pre /\\ accelerated formula /\\ post[x/x'] as a flat literal list for
    the lambda theory solver; post is stated over unprimed variables and
    renamed to the primed final state."""
    lits: list[Formula] = []
    for f in pre:
        lits.extend(flatten_literals(f))
    lits.extend(flatten_literals(transition.formula))
    rename = {}
    for x in transition.loop.variables():
        rename[x] = primed(x) if x.arity else sv(primed(x))
    for f in post:
        renamed = substitute(f, rename)
        lits.extend(flatten_literals(renamed))
    return lits
