"""Order-1 recurrence systems over fresh per-lvalue symbols: construction from
the inductive lvalues, solving by symbolic summation, and verification of the
two defining identities  theta(rec)[n/n+1] = theta(e)  and  theta(rec)[n/0] = rec.

Supported fragment: topologically ordered systems where each equation is
rec' = rec + q with q polynomial in previously solved symbols, equation-less
symbols (constants) and integer literals.  Anything else is reported
unsolvable, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .backend import validity
from .expr import (
    Expr, Rel, Sel, Var, free_vars, fresh_var, lval_set, substitute, substitute_lvalues, sv,
)
from .loop import Loop, UpdateSubstitution, build_up
from .classify import LvalueClass, SolvabilityVerdict
from .simplify import Poly, linearize, poly_add, poly_mul, poly_scale, poly_to_expr


class RecurrenceError(Exception):
    pass


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
        if rec in self.polys:
            return self.polys[rec]
        return {((rec.name, sv(rec)),): 1}

    def of(self, rec: Var) -> Expr:
        return poly_to_expr(self.poly_of(rec))


N = Var("n", 0)


def build_rec(loop: Loop, verdict: SolvabilityVerdict,
              up: UpdateSubstitution | None = None, session=None) -> RecurrenceSystem:
    """One equation per inductive lvalue x[r]: the next value is what the loop
    writes to x[up(r)] this iteration, with every top-level lvalue replaced by
    its rec symbol."""
    up = up or build_up(loop)
    sigma = LvalueSubstitution.over(verdict.closure)
    known = set(verdict.closure)
    equations: dict[Var, Expr] = {}
    for lv in verdict.closure:
        if verdict.labels[lv].label != LvalueClass.INDUCTIVE:
            continue
        upped = tuple(up.apply(ix) for ix in lv.idx)
        rhs = None
        for wlv, wr in loop.writes_to(lv.arr):
            if all(validity(Rel("=", a, b), session) for a, b in zip(wlv.idx, upped)):
                rhs = wr
                break
        if rhs is None:
            raise RecurrenceError(f"inductive lvalue {lv!r} has no matching write")
        if not lval_set(rhs) <= known:
            missing = lval_set(rhs) - known
            raise RecurrenceError(f"rhs reads lvalues outside the closure: {missing!r}")
        equations[sigma.symbol(lv)] = sigma.apply(rhs)
    return RecurrenceSystem(equations, sigma)


# ---------------------------------------------------------------------------
# solving


def _power_sum(d: int) -> Poly:
    """sum_{k=0}^{n-1} k^d as a polynomial in n with rational coefficients,
    via the Faulhaber recursion  (d+1) S_d = n^(d+1) - sum_j C(d+1,j) S_j."""
    n_poly = {(("n", sv(N)),): 1}
    sums: list[Poly] = [dict(n_poly)]  # S_0 = n
    for m in range(1, d + 1):
        acc = _poly_pow(n_poly, m + 1)
        for j in range(m):
            acc = poly_add(acc, poly_scale(sums[j], comb(m + 1, j)), sign=-1)
        sums.append(poly_scale(acc, Fraction(1, m + 1)))
    return sums[d]


def _poly_pow(p: Poly, k: int) -> Poly:
    out: Poly = {(): 1}
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def _split_n(p: Poly) -> dict[int, Poly]:
    """Group a polynomial by its degree in n; the coefficient polys are n-free."""
    nkey = ("n", sv(N))
    out: dict[int, Poly] = {}
    for mono, c in p.items():
        deg = sum(1 for k in mono if k == nkey)
        rest = tuple(k for k in mono if k != nkey)
        out.setdefault(deg, {})
        out[deg] = poly_add(out[deg], {rest: c})
    return out


@dataclass
class Unsolvable:
    reason: str


def solve_rec(system: RecurrenceSystem) -> RecSolution | Unsolvable:
    """Symbolic summation for rec' = rec + q: theta(rec) = rec + sum q(k) for
    k in [0..n).  Self-coefficient must be exactly 1; dependencies must be
    acyclic apart from that self-loop."""
    eqs = system.equations
    symbols = {s.name: s for s in system.sigma.symbols()}
    deps: dict[Var, set[Var]] = {}
    for rec, e in eqs.items():
        poly = linearize(e)
        mentions = set()
        for mono in poly:
            for name, atom in mono:
                if isinstance(atom, Sel) and isinstance(atom.arr, Var) and atom.arr.name in symbols:
                    mentions.add(symbols[atom.arr.name])
        deps[rec] = mentions - {rec}
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

    def substituted(poly: Poly) -> Poly:
        return compose(poly, {s.name: p for s, p in theta_polys.items()})

    for rec in order:
        poly = linearize(eqs[rec])
        self_mono = ((rec.name, sv(rec)),)
        coeff = poly.get(self_mono, 0)
        higher = any(
            any(name == rec.name for name, _ in mono) and mono != self_mono
            for mono in poly
        )
        if higher or coeff != 1:
            return Unsolvable(
                f"equation for {rec.name} is not rec' = rec + q (self coefficient {coeff})"
            )
        q = dict(poly)
        del q[self_mono]
        q = substituted(q)  # q over n, constants and solved closed forms
        by_deg = _split_n(q)
        for deg, cp in by_deg.items():
            for mono in cp:
                for _, atom in mono:
                    if N in free_vars(atom):
                        return Unsolvable("n inside an opaque term")
        total: Poly = {self_mono: 1}
        for deg, cp in by_deg.items():
            total = poly_add(total, poly_mul(cp, _power_sum(deg)))
        theta_polys[rec] = total

    return RecSolution(theta_polys)


def compose(poly: Poly, images: dict[str, Poly]) -> Poly:
    """Substitute polynomials for named scalar atoms inside a polynomial."""
    out: Poly = {}
    for mono, c in poly.items():
        term: Poly = {(): c}
        for name, atom in mono:
            if name in images:
                term = poly_mul(term, images[name])
            else:
                term = poly_mul(term, {((name, atom),): 1})
        out = poly_add(out, term)
    return out


# ---------------------------------------------------------------------------
# verification


def verify_solution(system: RecurrenceSystem, sol: RecSolution, session=None):
    """Both identities per equation, checked on the exact rational polynomial
    forms (so the emitted integer div form never obscures equality); backend
    fallback for solutions supplied from outside the polynomial fragment.
    Returns None, or the first counterexample description."""
    n_plus_1: Poly = {(("n", sv(N)),): 1, (): 1}
    images = {s.name: sol.poly_of(s) for s in system.sigma.symbols()}
    for rec, e in system.equations.items():
        th = sol.poly_of(rec)
        shifted = compose(th, {"n": n_plus_1})
        image = compose(linearize(e), images)
        if poly_add(shifted, image, sign=-1):
            if not validity(Rel("=", poly_to_expr(shifted), poly_to_expr(image)), session):
                return f"theta({rec.name})[n/n+1] != theta(rhs)"
        at0 = compose(th, {"n": {}})
        rec_poly: Poly = {((rec.name, sv(rec)),): 1}
        if poly_add(at0, rec_poly, sign=-1):
            if not validity(Rel("=", poly_to_expr(at0), sv(rec)), session):
                return f"theta({rec.name})[n/0] != {rec.name}"
    return None

