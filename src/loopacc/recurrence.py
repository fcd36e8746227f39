"""Order-1 recurrence systems over fresh per-lvalue symbols: construction from
the inductive lvalues, solving by symbolic summation, and verification of the
two defining identities  theta(rec)[n/n+1] = theta(e)  and  theta(rec)[n/0] = rec.

Supported fragment: topologically ordered systems where each equation is
rec' = rec + q with q polynomial in previously solved symbols, equation-less
symbols (constants) and integer literals; an opaque term of q (ite, inexact
div) may read only constants.  Anything else is reported unsolvable, not an
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .expr import Expr, Sel, Var, free_vars, fresh_var, substitute, substitute_lvalues, sv
from .loop import Loop
from .classify import LvalueClass, SolvabilityVerdict
from .sexpr import to_text
from .simplify import (
    Poly, linearize, poly_add, poly_atoms, poly_by_degree, poly_compose, poly_const, poly_is_const,
    poly_mul, poly_scale, poly_to_expr, poly_var,
)


@dataclass(frozen=True)
class LvalueSubstitution:
    """Invertible map lvalue <-> fresh scalar rec symbol."""

    pairs: tuple[tuple[Sel, Var], ...]

    @staticmethod
    def over(lvalues) -> "LvalueSubstitution":
        return LvalueSubstitution(tuple((lv, fresh_var(f"rec{k}")) for k, lv in enumerate(lvalues)))

    def symbol(self, lv: Sel) -> Var:
        for l, r in self.pairs:
            if l == lv:
                return r
        raise KeyError(f"no rec symbol for {lv!r}")

    def lvalue(self, rec: Var) -> Sel:
        for l, r in self.pairs:
            if r == rec:
                return l
        raise KeyError(f"no lvalue for {rec!r}")

    def apply(self, e: Expr) -> Expr:
        return substitute_lvalues(e, {l: sv(r) for l, r in self.pairs})

    def unapply(self, e: Expr) -> Expr:
        return substitute(e, {r: l for l, r in self.pairs})

    def symbols(self):
        return [r for _, r in self.pairs]


@dataclass
class RecurrenceSystem:
    equations: dict[Var, Expr]  # rec' = e over rec symbols only
    sigma: LvalueSubstitution

    def __iter__(self):
        return iter(self.equations.items())


@dataclass
class RecSolution:
    """theta with exact rational coefficients internally; emitted closed forms
    are integer expressions (fractions cleared through one exact floor div)."""

    polys: dict[Var, Poly]

    def poly_of(self, rec: Var) -> Poly:
        return self.polys[rec] if rec in self.polys else poly_var(rec)

    def of(self, rec: Var) -> Expr:
        return poly_to_expr(self.poly_of(rec))


N = Var("n", 0)


def build_rec(loop: Loop, verdict: SolvabilityVerdict) -> RecurrenceSystem:
    """One equation per inductive lvalue x[r]: the next value is what the loop
    writes to x[up(r)] this iteration (the write classification matched),
    with every top-level lvalue replaced by its rec symbol.  The closure holds
    every rhs lvalue, so each rhs maps to rec symbols only."""
    sigma = LvalueSubstitution.over(verdict.closure)
    equations = {sigma.symbol(lv): sigma.apply(loop.rhs_of(c.partner))
                 for lv, c in verdict.labels.items() if c.label == LvalueClass.INDUCTIVE}
    return RecurrenceSystem(equations, sigma)


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


def solve_rec(system: RecurrenceSystem) -> RecSolution | Unsolvable:
    """Symbolic summation for rec' = rec + q: theta(rec) = rec + sum q(k) for
    k in [0..n).  Self-coefficient must be exactly 1; dependencies must be
    acyclic apart from that self-loop.  An opaque term that reads a symbol
    with an equation is not constant across iterations: unsolvable."""
    eqs = system.equations
    deps: dict[Var, set[Var]] = {}
    for rec, e in eqs.items():
        deps[rec] = set()
        for atom in poly_atoms(linearize(e)):
            if atom.__class__ is Sel and not atom.idx:
                deps[rec].add(atom.arr)
            elif not free_vars(atom).isdisjoint(eqs):
                return Unsolvable("inductive lvalue inside an opaque term: "
                                  + to_text(system.sigma.unapply(atom)))
        deps[rec].discard(rec)
    order: list[Var] = []
    pending = set(eqs)
    while pending:
        ready = [r for r in pending if not (deps[r] & pending)]
        if not ready:
            return Unsolvable("cyclic dependencies between recurrence symbols")
        ready.sort(key=lambda v: v.name)
        order.extend(ready)
        pending -= set(ready)

    theta_polys: dict[Var, Poly] = {}
    for rec in order:
        by_self = poly_by_degree(linearize(eqs[rec]), rec)
        coeff = by_self.get(1, {})
        if by_self.keys() - {0, 1} or poly_is_const(coeff) != 1:
            return Unsolvable(f"equation for {rec.name} is not rec' = rec + q "
                              f"(self coefficient {to_text(poly_to_expr(coeff))})")
        # q over n, constants and solved closed forms
        by_deg = poly_by_degree(poly_compose(by_self.get(0, {}), theta_polys), N)
        for cp in by_deg.values():
            if any(N in free_vars(atom) for atom in poly_atoms(cp)):
                return Unsolvable("n inside an opaque term")
        total = poly_var(rec)
        for deg, cp in by_deg.items():
            total = poly_add(total, poly_mul(cp, _power_sum(deg)))
        theta_polys[rec] = total

    return RecSolution(theta_polys)


# ---------------------------------------------------------------------------
# verification


def verify_solution(system: RecurrenceSystem, sol: RecSolution):
    """Both identities per equation, checked exactly on the rational
    polynomial forms (so the emitted integer div form never obscures
    equality).  Returns None, or the first counterexample description."""
    n_plus_1 = poly_add(poly_var(N), poly_const(1))
    images = {s: sol.poly_of(s) for s in system.sigma.symbols()}
    for rec, e in system.equations.items():
        th = sol.poly_of(rec)
        if poly_add(poly_compose(th, {N: n_plus_1}), poly_compose(linearize(e), images), sign=-1):
            return f"theta({rec.name})[n/n+1] != theta(rhs)"
        if poly_add(poly_compose(th, {N: {}}), poly_var(rec), sign=-1):
            return f"theta({rec.name})[n/0] != {rec.name}"
    return None

