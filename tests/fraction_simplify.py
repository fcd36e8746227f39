"""Reference normaliser for differential tests of loopacc.simplify: the same
rewrites over polynomials whose coefficients are all Fraction, as the
simplifier computed them before it kept integral coefficients as int.  Only the
coefficient arithmetic differs; the helpers that never see a coefficient are
shared with the module under test."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from loopacc.expr import (
    And, Bin, BoolConst, Const, FALSE, Formula, Ite, Lam, NEGATED, Not, Or, RELATIONS, Rel,
    Sel, TRUE, Var, conj, disj,
)
from loopacc.sexpr import to_text
from loopacc.simplify import _FLIP, unit_bounds


def poly_const(c):
    c = Fraction(c)
    return {(): c} if c else {}


def poly_atom(e):
    return {((to_text(e), e),): Fraction(1)}


def poly_add(p, q, sign=1):
    out = dict(p)
    for m, c in q.items():
        c2 = out.get(m, Fraction(0)) + sign * c
        if c2:
            out[m] = c2
        else:
            out.pop(m, None)
    return out


def poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2))
            c = out.get(m, Fraction(0)) + c1 * c2
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def poly_scale(p, k):
    k = Fraction(k)
    if not k:
        return {}
    return {m: c * k for m, c in p.items()}


def poly_is_const(p):
    if not p:
        return Fraction(0)
    if len(p) == 1 and () in p:
        return p[()]
    return None


def poly_denom_lcm(p) -> int:
    d = 1
    for c in p.values():
        d = d * c.denominator // gcd(d, c.denominator)
    return d


def poly_content(p) -> int:
    g = 0
    for c in p.values():
        g = gcd(g, abs(c.numerator))
    return g or 1


def linearize(e):
    if isinstance(e, Const):
        return poly_const(e.value)
    if isinstance(e, Bin):
        if e.op == "+":
            return poly_add(linearize(e.left), linearize(e.right))
        if e.op == "-":
            return poly_add(linearize(e.left), linearize(e.right), sign=-1)
        if e.op == "*":
            return poly_mul(linearize(e.left), linearize(e.right))
        if e.op == "div":
            num = linearize(e.left)
            den = poly_is_const(linearize(e.right))
            if den is not None and den.denominator == 1 and den != 0:
                d = den.numerator
                nc = poly_is_const(num)
                if nc is not None and nc.denominator == 1:
                    return poly_const(nc.numerator // d)
                if d in (1, -1):
                    return poly_scale(num, d)
                if poly_denom_lcm(num) == 1 and all(
                    c.numerator % d == 0 for c in num.values()
                ):
                    return poly_scale(num, Fraction(1, d))
            return poly_atom(Bin("div", poly_to_expr(num), simplify(e.right)))
    if isinstance(e, Sel):
        return poly_atom(simplify(e))
    if isinstance(e, Ite):
        s = simplify(e)
        if isinstance(s, Ite):
            return poly_atom(s)
        return linearize(s)
    raise TypeError(f"not an arithmetic expression: {e!r}")


def poly_to_expr(p):
    d = poly_denom_lcm(p)
    if d != 1:
        return Bin("div", poly_to_expr(poly_scale(p, d)), Const(d))
    const = p.get((), Fraction(0)).numerator
    terms = []
    for m, c in sorted(((m, c) for m, c in p.items() if m != ()),
                       key=lambda mc: [k for k, _ in mc[0]]):
        base = None
        for _, atom in m:
            base = atom if base is None else Bin("*", base, atom)
        terms.append((c.numerator, base))
    expr = None
    for coef, base in terms:
        t = base if abs(coef) == 1 else Bin("*", Const(abs(coef)), base)
        if expr is None:
            expr = t if coef > 0 else Bin("-", Const(0), t)
        else:
            expr = Bin("+" if coef > 0 else "-", expr, t)
    if expr is None:
        return Const(const)
    if const > 0:
        expr = Bin("+", expr, Const(const))
    elif const < 0:
        expr = Bin("-", expr, Const(-const))
    return expr


def as_int_const(e):
    c = poly_is_const(linearize(e))
    if c is not None and c.denominator == 1:
        return c.numerator
    return None


def simplify(e):
    if isinstance(e, (BoolConst, Rel, Not, And, Or)):
        return simplify_formula(e)
    if isinstance(e, Var):
        return e
    if isinstance(e, Lam):
        return Lam(e.params, simplify(e.body))
    if isinstance(e, Ite):
        cond = simplify_formula(e.cond)
        if cond == TRUE:
            return simplify(e.then)
        if cond == FALSE:
            return simplify(e.other)
        then, other = simplify(e.then), simplify(e.other)
        if then == other:
            return then
        return Ite(cond, then, other)
    if isinstance(e, Sel):
        if isinstance(e.arr, Lam):
            return Sel(simplify(e.arr), tuple(simplify(i) for i in e.idx))
        return Sel(e.arr, tuple(simplify(i) for i in e.idx))
    return poly_to_expr(linearize(e))


def simplify_formula(f: Formula) -> Formula:
    if isinstance(f, BoolConst):
        return f
    if isinstance(f, Rel):
        return _simplify_rel(f)
    if isinstance(f, Not):
        a = simplify_formula(f.arg)
        if isinstance(a, BoolConst):
            return BoolConst(not a.value)
        if isinstance(a, Rel) and a.op in NEGATED:
            return _simplify_rel(Rel(NEGATED[a.op], a.left, a.right))
        if isinstance(a, Not):
            return a.arg
        return Not(a)
    if isinstance(f, (And, Or)):
        unit, absorbing = (TRUE, FALSE) if isinstance(f, And) else (FALSE, TRUE)
        flat = []
        for a in f.args:
            a = simplify_formula(a)
            if a == absorbing:
                return absorbing
            if a == unit:
                continue
            flat.extend(a.args if isinstance(a, type(f)) else [a])
        flat = list(dict.fromkeys(flat))
        if isinstance(f, Or):
            return disj(flat)
        return FALSE if unit_bounds(flat) is None else conj(flat)
    raise TypeError(f"not a formula: {f!r}")


def _simplify_rel(f: Rel) -> Formula:
    if f.op in ("=", "!=") and (
        isinstance(f.left, (Var, Lam)) or isinstance(f.right, (Var, Lam))
    ):
        l = simplify(f.left) if isinstance(f.left, Lam) else f.left
        r = simplify(f.right) if isinstance(f.right, Lam) else f.right
        if l == r:
            return TRUE if f.op == "=" else FALSE
        return Rel(f.op, l, r)
    if f.op == "divides":
        d = as_int_const(f.left)
        p = linearize(f.right)
        if d is not None:
            if d == 0:
                return _simplify_rel(Rel("=", poly_to_expr(p), Const(0)))
            d = abs(d)
            if d == 1:
                return TRUE
            if poly_denom_lcm(p) == 1:
                p = {m: Fraction(c.numerator % d) for m, c in p.items()}
                p = {m: c for m, c in p.items() if c}
                c0 = poly_is_const(p)
                if c0 is not None:
                    return BoolConst(c0 % d == 0)
                return Rel("divides", Const(d), poly_to_expr(p))
        return Rel("divides", simplify(f.left), poly_to_expr(p))
    p = poly_add(linearize(f.left), linearize(f.right), sign=-1)
    c = poly_is_const(p)
    if c is not None:
        return BoolConst(RELATIONS[f.op](c, 0))
    p = poly_scale(p, poly_denom_lcm(p))
    const = p.get((), Fraction(0))
    varpart = {m: c for m, c in p.items() if m != ()}
    g = poly_content(varpart)
    op = f.op
    q = poly_scale(varpart, Fraction(1, g))
    first = min(q, key=lambda m: [k for k, _ in m])
    if q[first] < 0:
        q = poly_scale(q, -1)
        op = _FLIP.get(op, op)
        cn = -const.numerator
    else:
        cn = const.numerator
    if op in ("=", "!="):
        if cn % g != 0:
            return TRUE if op == "!=" else FALSE
        return Rel(op, poly_to_expr(q), Const(-(cn // g)))
    if op == "<":
        op, bound = "<=", (-cn - 1) // g
    elif op == "<=":
        op, bound = "<=", (-cn) // g
    elif op == ">":
        op, bound = ">=", -((cn - 1) // g)
    elif op == ">=":
        op, bound = ">=", -(cn // g)
    else:
        raise ValueError(op)
    return Rel(op, poly_to_expr(q), Const(bound))
