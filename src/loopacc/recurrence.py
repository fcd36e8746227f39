"""Order-1 recurrence systems over the inductive lvalues: construction from
the loop's writes, solving by symbolic summation, and verification of the
two defining identities  theta(lv)[n/n+1] = theta(e)  and  theta(lv)[n/0] = lv.

A system maps each inductive lvalue, in normal form, to the right-hand side
the loop writes to it (scalars are arrays of dimension 0).  In an equation
an lvalue stands for its cell's value at the current iteration; in theta,
for its value before the first iteration.  The unknowns are the lvalues
themselves, taken as opaque polynomial atoms, so no renaming is involved.

Supported fragment: topologically ordered systems where each equation is
lv' = lv + q with q polynomial in previously solved lvalues, equation-less
lvalues (constants) and integer literals; an opaque term of q (ite, inexact
div) may read only constants.  Anything else is reported unsolvable, not an
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .expr import Expr, Sel, Var, free_vars, lval_set, sv
from .loop import Loop
from .classify import LvalueClass, SolvabilityVerdict
from .sexpr import to_text
from .simplify import (
    Poly, linearize, poly_add, poly_atom, poly_atoms, poly_by_degree, poly_compose, poly_const,
    poly_is_const, poly_mul, poly_scale, poly_to_expr, poly_var, simplify,
)


@dataclass
class RecSolution:
    """theta with exact rational coefficients internally; emitted closed forms
    are integer expressions (fractions cleared through one exact floor div)."""

    polys: dict[Sel, Poly]  # keyed by lvalue in normal form

    def poly_of(self, lv: Sel) -> Poly:
        return self.polys[lv] if lv in self.polys else poly_atom(lv)

    def of(self, lv: Sel) -> Expr:
        return poly_to_expr(self.poly_of(lv))


N = Var("n", 0)


def build_rec(loop: Loop, verdict: SolvabilityVerdict) -> dict[Sel, Expr]:
    """One equation per inductive lvalue x[r]: the next value is what the loop
    writes to x[up(r)] this iteration (the write classification matched).
    The closure holds every rhs lvalue, so each rhs reads closure lvalues
    only."""
    return {simplify(lv): loop.rhs_of(c.partner)
            for lv, c in verdict.labels.items() if c.label == LvalueClass.INDUCTIVE}


# ---------------------------------------------------------------------------
# solving


def _power_sum(d: int) -> Poly:
    """sum_{k=0}^{n-1} k^d as a polynomial in n with rational coefficients,
    via the Faulhaber recursion  (d+1) S_d = n^(d+1) - sum_j C(d+1,j) S_j."""
    n_poly = poly_var(N)
    sums: list[Poly] = [dict(n_poly)]  # S_0 = n
    for m in range(1, d + 1):
        acc = _poly_pow(n_poly, m + 1)
        for j in range(m):
            acc = poly_add(acc, poly_scale(sums[j], comb(m + 1, j)), sign=-1)
        sums.append(poly_scale(acc, Fraction(1, m + 1)))
    return sums[d]


def _poly_pow(p: Poly, k: int) -> Poly:
    out = poly_const(1)
    for _ in range(k):
        out = poly_mul(out, p)
    return out


@dataclass
class Unsolvable:
    reason: str


def solve_rec(eqs: dict[Sel, Expr]) -> RecSolution | Unsolvable:
    """Symbolic summation for lv' = lv + q: theta(lv) = lv + sum q(k) for
    k in [0..n).  Self-coefficient must be exactly 1; dependencies must be
    acyclic apart from that self-loop.  An opaque term that reads an lvalue
    with an equation is not constant across iterations: unsolvable."""
    deps: dict[Sel, set[Sel]] = {}
    for lv, e in eqs.items():
        deps[lv] = set()
        for atom in poly_atoms(linearize(e)):
            if atom in eqs:
                deps[lv].add(atom)
            elif not lval_set(atom).isdisjoint(eqs):
                return Unsolvable("inductive lvalue inside an opaque term: " + to_text(atom))
        deps[lv].discard(lv)
    order: list[Sel] = []
    pending = set(eqs)
    while pending:
        ready = [lv for lv in pending if not (deps[lv] & pending)]
        if not ready:
            return Unsolvable("cyclic dependencies between recurrences")
        ready.sort(key=to_text)
        order.extend(ready)
        pending -= set(ready)

    n = sv(N)
    theta_polys: dict[Sel, Poly] = {}
    for lv in order:
        by_self = poly_by_degree(linearize(eqs[lv]), lv)
        coeff = by_self.get(1, {})
        if by_self.keys() - {0, 1} or poly_is_const(coeff) != 1:
            return Unsolvable(f"equation for {to_text(lv)} is not rec' = rec + q "
                              f"(self coefficient {to_text(poly_to_expr(coeff))})")
        # q over n, constants and solved closed forms
        by_deg = poly_by_degree(poly_compose(by_self.get(0, {}), theta_polys), n)
        for cp in by_deg.values():
            if any(N in free_vars(atom) for atom in poly_atoms(cp)):
                return Unsolvable("n inside an opaque term")
        total = poly_atom(lv)
        for deg, cp in by_deg.items():
            total = poly_add(total, poly_mul(cp, _power_sum(deg)))
        theta_polys[lv] = total

    return RecSolution(theta_polys)


# ---------------------------------------------------------------------------
# verification


def verify_solution(eqs: dict[Sel, Expr], sol: RecSolution):
    """Both identities per equation, checked exactly on the rational
    polynomial forms (so the emitted integer div form never obscures
    equality).  Returns None, or the first counterexample description."""
    n_plus_1 = {sv(N): poly_add(poly_var(N), poly_const(1))}
    n_zero = {sv(N): {}}
    for lv, e in eqs.items():
        th = sol.poly_of(lv)
        if poly_add(poly_compose(th, n_plus_1), poly_compose(linearize(e), sol.polys), sign=-1):
            return f"theta({to_text(lv)})[n/n+1] != theta(rhs)"
        if poly_add(poly_compose(th, n_zero), poly_atom(lv), sign=-1):
            return f"theta({to_text(lv)})[n/0] != {to_text(lv)}"
    return None
