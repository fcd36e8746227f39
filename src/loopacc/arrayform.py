"""Quantifier-free lambda closed forms for arrays.

For constant per-iteration displacements d = up(r) - r, the write index in
iteration m is r + d*(m-1), so the last write to a cell can be located without
quantifiers: per-component range and divisibility conditions, plus
cross-component consistency disjuncts that reconcile the candidate iteration
between components (required for exactness as soon as two components of d are
nonzero).  The closed form is a lambda over fresh cell parameters with one ite
case per write in lvalue order and the unchanged cell as final else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .expr import (
    Bin, Const, Expr, Formula, Ite, Lam, Not, Rel, Sel, Var, conj, disj,
    fresh_var, lval_set, substitute, substitute_lvalues, sv,
)
from .loop import Loop, UpdateSubstitution
from .recurrence import N
from .sexpr import to_text
from .simplify import as_int_const, simplify, simplify_formula

if TYPE_CHECKING:  # closedform imports this module
    from .closedform import ClosedFormTable


class ArrayFormError(Exception):
    pass


@dataclass(frozen=True)
class Displacement:
    """Per-component up(r) - r for one write; None marks a non-constant
    component."""

    parts: tuple[int | None, ...]

    @property
    def constant(self) -> bool:
        return all(p is not None for p in self.parts)

    @property
    def all_zero(self) -> bool:
        return self.constant and all(p == 0 for p in self.parts)


def displacement(lv: Sel, up: UpdateSubstitution) -> Displacement:
    parts = []
    for ix in lv.idx:
        d = as_int_const(Bin("-", up.apply(ix), ix))
        parts.append(d)
    return Displacement(tuple(parts))


def _write_displacements(loop: Loop, x: Var, up: UpdateSubstitution):
    writes = loop.writes_to(x)
    return [(lv, displacement(lv, up)) for lv, _ in writes]


def not_written_qf(loop: Loop, x: Var, m_expr: Expr, n_expr: Expr,
                   c_params: tuple[Expr, ...], up: UpdateSubstitution) -> Formula:
    """Cell x[c] untouched by iterations m..n: conjunction over the writes to
    x of per-component out-of-range or indivisibility disjuncts, plus
    consistency-violation disjuncts between nonzero components."""
    conjs = []
    for lv, disp in _write_displacements(loop, x, up):
        if not disp.constant:
            raise ArrayFormError(f"non-constant displacement for {to_text(lv)}")
        conjs.append(_not_written_one(lv, disp, m_expr, n_expr, c_params))
    return conj(conjs)


def _not_written_one(lv: Sel, disp: Displacement, m_expr: Expr, n_expr: Expr,
                     c_params: tuple[Expr, ...]) -> Formula:
    disjuncts: list[Formula] = []
    m_minus_1 = Bin("-", m_expr, Const(1))
    n_minus_1 = Bin("-", n_expr, Const(1))
    if disp.all_zero:
        # the range disjuncts of moving writes already cover empty intervals;
        # a stationary write needs m > n spelled out
        disjuncts.append(Rel(">", m_expr, n_expr))
    for ci, ri, di in zip(c_params, lv.idx, disp.parts):
        at_m = Bin("+", ri, Bin("*", Const(di), m_minus_1))
        at_n = Bin("+", ri, Bin("*", Const(di), n_minus_1))
        if di >= 0:
            disjuncts.append(Rel("<", ci, at_m))
            disjuncts.append(Rel("<", at_n, ci))
        else:
            disjuncts.append(Rel("<", ci, at_n))
            disjuncts.append(Rel("<", at_m, ci))
        if abs(di) > 1:
            disjuncts.append(Not(Rel("divides", Const(di), Bin("-", ci, ri))))
    nz = [(ci, ri, di) for ci, ri, di in zip(c_params, lv.idx, disp.parts) if di != 0]
    for a in range(len(nz)):
        for b in range(a + 1, len(nz)):
            ca, ra, da = nz[a]
            cb, rb, db = nz[b]
            # the components' implied iterations disagree: db*(ca-ra) != da*(cb-rb)
            disjuncts.append(Rel("!=",
                                 Bin("*", Const(db), Bin("-", ca, ra)),
                                 Bin("*", Const(da), Bin("-", cb, rb))))
    return disj(disjuncts)


@dataclass
class LastWriteCase:
    lvalue: Sel
    instantiation: Expr  # e, the unique candidate iteration for the last write
    guard: Formula  # quantifier-free; entails 1 <= e <= n
    value: Expr  # rhs(x[r])^(e-1)


def last_write_instantiation(loop: Loop, lv: Sel, c_params: tuple[Expr, ...],
                             n_expr: Expr, table: ClosedFormTable,
                             up: UpdateSubstitution) -> LastWriteCase:
    """The iteration of the last write to x[c] through this lvalue.  With some
    d_i nonzero, e = (c_i - r_i) div d_i + 1 for the first such component;
    equality conjuncts pin the zero components, divisibility and consistency
    conjuncts reconcile the nonzero ones.  All-zero displacement overwrites one
    cell every iteration, so only the final iteration survives: e = n."""
    disp = displacement(lv, up)
    if not disp.constant:
        raise ArrayFormError(f"non-constant displacement for {to_text(lv)}")
    x = lv.arr
    guard_parts: list[Formula] = []
    if disp.all_zero:
        e: Expr = n_expr
        for ci, ri in zip(c_params, lv.idx):
            guard_parts.append(Rel("=", ci, ri))
    else:
        pivot = next(k for k, d in enumerate(disp.parts) if d != 0)
        cp, rp, dp = c_params[pivot], lv.idx[pivot], disp.parts[pivot]
        e = Bin("+", Bin("div", Bin("-", cp, rp), Const(dp)), Const(1))
        for k, (ci, ri, di) in enumerate(zip(c_params, lv.idx, disp.parts)):
            if di == 0:
                guard_parts.append(Rel("=", ci, ri))
            else:
                guard_parts.append(Rel("divides", Const(di), Bin("-", ci, ri)))
                if k != pivot:
                    guard_parts.append(Rel("=",
                                           Bin("*", Const(di), Bin("-", cp, rp)),
                                           Bin("*", Const(dp), Bin("-", ci, ri))))
        guard_parts.append(not_written_qf(loop, x, Bin("+", e, Const(1)), n_expr,
                                          c_params, up))
    guard_parts.append(Rel("<=", Const(1), e))
    guard_parts.append(Rel("<=", e, n_expr))
    rhs = loop.rhs_of(lv)
    value = substitute_lvalues(rhs, {l: table.of(l) for l in lval_set(rhs)})
    value = simplify(substitute(value, {N: Bin("-", e, Const(1))}))
    return LastWriteCase(lv, simplify(e), simplify_formula(conj(guard_parts)), value)


def closed_form_array(loop: Loop, x: Var, table: ClosedFormTable, up: UpdateSubstitution):
    """Lambda over fresh cell parameters: ite chain over the last-write cases
    in lvalue order (mutually exclusive guards under (Distinct)), final else
    the unchanged cell; a written scalar that no right-hand side reads has no
    table entry and is the chain itself, ``ite(1 <= n, rhs^(n-1), x)``."""
    writes = loop.writes_to(x)
    if not writes:
        return x if x.arity else sv(x)  # lambda c. x[c] collapses to x itself
    if not x.arity and sv(x) in table:
        return table.of(sv(x))
    params = tuple(fresh_var("c" if x.arity == 1 else f"c{d}", 0) for d in range(x.arity))
    c_exprs = tuple(sv(p) for p in params)
    body: Expr = Sel(x, c_exprs)
    for lv, _ in reversed(writes):
        case = last_write_instantiation(loop, lv, c_exprs, sv(N), table, up)
        body = Ite(case.guard, case.value, body)
    return Lam(params, simplify(body)) if x.arity else simplify(body)
