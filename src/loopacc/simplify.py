"""Sound rewriting of expressions and formulas: constant folding, integer
linear/polynomial normal forms with exact coefficients, collapse of decidable
ite guards and trivially valid relations.

Every rewrite preserves concrete evaluation under all states; the fuzz suite
checks this directly.  Expressions normalise to polynomials with int
coefficients.  Rational coefficients only ever appear internally, in the
recurrence solver's power sums, as a Fraction wherever a coefficient is not
integral; emitted expressions clear denominators through a single floor
division, which is exact whenever the numerator is divisible pointwise.

In a normal-form scope (per thread), ``simplify``, ``simplify_formula`` and
``linearize`` memoize per node.  ``accelerate``, ``lamsolve.solve``,
``verify_model`` and ``check_loop`` open it, so each query has its own;
nested entries share it, the outermost exit drops it.  Only pure functions
are memoized (``substitute`` draws fresh names); callers never mutate results.
The memo stores each result of ``simplify`` and ``simplify_formula`` under
itself as well, as its own fixed point, so a normal form handed back is a hit;
both must stay idempotent.  The walks branch on ``type(e)``, the most frequent
node kinds first.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from fractions import Fraction
from functools import partial, wraps
from math import gcd, lcm

from .expr import (
    And, Bin, BoolConst, Const, FALSE, Formula, Ite, Lam, NEGATED, Not, Or, RELATIONS, Rel,
    Sel, TRUE, Var, beta_reduce, conj, disj, free_vars, substitute,
)
from .sexpr import to_text

# A polynomial is a map from monomials to nonzero coefficients, each an int,
# or a Fraction when it is not integral (never an integral Fraction).  A
# monomial is a sorted tuple of opaque atom expressions (Sel / Ite /
# non-constant div); the empty monomial is the constant term.

Poly = dict


class _Scope(threading.local):
    memo = None  # while a scope is open: function -> {node: result}


_scope = _Scope()


def normal_form_scope(fn):
    """fn run in a normal-form scope: the open one, else a new one."""
    @wraps(fn)
    def run(*args, **kwargs):
        outer = _scope.memo
        _scope.memo = defaultdict(dict) if outer is None else outer
        try:
            return fn(*args, **kwargs)
        finally:
            _scope.memo = outer
    return run


def _memoized(fn, fixed_point=False):
    """fn memoized in the open scope; with fixed_point, each result is also
    stored under itself, so fn must be idempotent."""
    @wraps(fn)
    def run(e):
        memo = _scope.memo
        if memo is None:
            return fn(e)
        table = memo[fn]
        out = table.get(e)
        if out is None:
            out = table.setdefault(e, fn(e))
            if fixed_point:
                table.setdefault(out, out)
        return out
    return run


_normalizing = partial(_memoized, fixed_point=True)


def _coef(c):
    """c as an int when integral: Fraction arithmetic never narrows by itself."""
    if c.__class__ is Fraction and c.denominator == 1:
        return c.numerator
    return c


def poly_const(c: int) -> Poly:
    return {(): c} if c else {}


def poly_atom(e) -> Poly:
    return {((to_text(e), e),): 1}


def poly_add(p: Poly, q: Poly, sign=1) -> Poly:
    out = dict(p)
    for m, c in q.items():
        c2 = out.get(m, 0) + sign * c
        if c2:
            out[m] = _coef(c2)
        else:
            out.pop(m, None)
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2))
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = _coef(c)
            else:
                out.pop(m, None)
    return out


def poly_scale(p: Poly, k) -> Poly:
    if not k:
        return {}
    return {m: _coef(c * k) for m, c in p.items()}


def poly_is_const(p: Poly):
    if not p:
        return 0
    if len(p) == 1 and () in p:
        return p[()]
    return None


@_memoized
def linearize(e) -> Poly:
    """Total: any expression becomes a polynomial over opaque atoms, with int
    coefficients (a division folds only when it is exact).  Children of atoms
    are simplified before the atom is frozen."""
    k = type(e)
    if k is Bin:
        if e.op == "+":
            return poly_add(linearize(e.left), linearize(e.right))
        if e.op == "-":
            return poly_add(linearize(e.left), linearize(e.right), sign=-1)
        if e.op == "*":
            return poly_mul(linearize(e.left), linearize(e.right))
        if e.op == "div":
            num = linearize(e.left)
            den = poly_is_const(linearize(e.right))
            if den:
                nc = poly_is_const(num)
                if nc is not None:
                    return poly_const(nc // den)
                if all(c % den == 0 for c in num.values()):
                    return {m: c // den for m, c in num.items()}
            return poly_atom(Bin("div", poly_to_expr(num), simplify(e.right)))
    if k is Sel:
        return poly_atom(simplify(e))
    if k is Const:
        return poly_const(e.value)
    if k is Ite:
        s = simplify(e)
        if type(s) is Ite:
            return poly_atom(s)
        return linearize(s)
    raise TypeError(f"not an arithmetic expression: {e!r}")


def poly_to_expr(p: Poly):
    """Deterministic emission.  Fractional coefficients are cleared through one
    floor division: p = (D*p) div D, exact whenever D divides the numerator at
    every integer point (the recurrence solver only produces such polynomials)."""
    d = lcm(*(c.denominator for c in p.values()))
    if d != 1:
        return Bin("div", poly_to_expr(poly_scale(p, d)), Const(d))
    const = p.get((), 0)
    terms = []
    for m, coef in sorted(((m, c) for m, c in p.items() if m != ()), key=lambda mc: [k for k, _ in mc[0]]):
        base = None
        for _, atom in m:
            base = atom if base is None else Bin("*", base, atom)
        terms.append((coef, base))
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
    """Integer value of e if it normalizes to a literal, else None."""
    return poly_is_const(linearize(e))


@_normalizing
def simplify(e):
    """Normalize an expression or formula; evaluation-preserving."""
    k = type(e)
    if k is Sel:
        if type(e.arr) is Lam:
            return Sel(simplify(e.arr), tuple(simplify(i) for i in e.idx))
        return Sel(e.arr, tuple(simplify(i) for i in e.idx))
    if k is Ite:
        cond = simplify_formula(e.cond)
        if cond == TRUE:
            return simplify(e.then)
        if cond == FALSE:
            return simplify(e.other)
        then, other = simplify(e.then), simplify(e.other)
        if then == other:
            return then
        return Ite(cond, then, other)
    if k is Bin or k is Const:
        return poly_to_expr(linearize(e))
    if k is Lam:
        return Lam(e.params, simplify(e.body))
    if k is Var:
        return e
    return simplify_formula(e)


# ---------------------------------------------------------------------------
# formulas

_FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}


@_normalizing
def simplify_formula(f: Formula) -> Formula:
    k = type(f)
    if k is Rel:
        return _simplify_rel(f)
    if k is And or k is Or:
        unit, absorbing = (TRUE, FALSE) if k is And else (FALSE, TRUE)
        flat = []
        for a in f.args:
            a = simplify_formula(a)
            if a == absorbing:
                return absorbing
            if a == unit:
                continue
            flat.extend(a.args if type(a) is k else [a])
        flat = list(dict.fromkeys(flat))
        if k is Or:
            return disj(flat)
        return FALSE if _contradicting(flat) else conj(flat)
    if k is BoolConst:
        return f
    if k is Not:
        a = simplify_formula(f.arg)
        ka = type(a)
        if ka is BoolConst:
            return BoolConst(not a.value)
        if ka is Rel and a.op in NEGATED:
            return _simplify_rel(Rel(NEGATED[a.op], a.left, a.right))
        if ka is Not:
            return a.arg
        return Not(a)
    raise TypeError(f"not a formula: {f!r}")


def eliminate(literals: list[Formula], definition):
    """Solve-and-substitute to a fixpoint over simplified literals: true
    literals are dropped; the first literal for which definition(lit) gives
    (x, t), x free in lit but not in t, is solved, and t replaces x in every
    literal that mentions x, which alone are re-simplified (and dropped once
    true).  Returns the remaining literals and the (x, t) log in elimination
    order."""
    work = [f for f in literals if f != TRUE]
    names = [free_vars(f) for f in work]  # each literal's, kept until it changes
    log: list[tuple[Var, object]] = []
    start = 0
    while True:
        for i in range(start, len(work)):
            found = definition(work[i])
            if found is not None:
                break
        else:
            return work, log
        x, t = found
        log.append(found)
        done, work, done_names, names = work, [], names, []
        start = None
        for g, vs in zip(done, done_names):
            if x in vs:
                if start is None:
                    # the literals before the first changed one were scanned
                    # unchanged and define nothing
                    start = len(work)
                g = simplify_formula(beta_reduce(substitute(g, {x: t})))
                if g == TRUE:
                    continue
                vs = free_vars(g)
            work.append(g)
            names.append(vs)


def _simplify_rel(f: Rel) -> Formula:
    if f.op in ("=", "!=") and (
        isinstance(f.left, (Var, Lam)) or isinstance(f.right, (Var, Lam))
    ):
        # array literal
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
            p = {m: c % d for m, c in p.items() if c % d}
            c0 = poly_is_const(p)
            if c0 is not None:
                return BoolConst(c0 % d == 0)
            return Rel("divides", Const(d), poly_to_expr(p))
        return Rel("divides", simplify(f.left), poly_to_expr(p))
    # arithmetic relation: move to  p (op) 0
    p = poly_add(linearize(f.left), linearize(f.right), sign=-1)
    c = poly_is_const(p)
    if c is not None:
        return BoolConst(RELATIONS[f.op](c, 0))
    const = p.get((), 0)
    varpart = {m: c for m, c in p.items() if m != ()}
    g = gcd(*varpart.values())
    op = f.op
    # p op 0 with p = g*q + cn over the integers; orient q so its first
    # monomial has a positive coefficient (canonical form for dedupe and
    # interval-based contradiction checks), tighten bounds integrally
    q = {m: c // g for m, c in varpart.items()}
    first = min(q, key=lambda m: [k for k, _ in m])
    if q[first] < 0:
        q = poly_scale(q, -1)
        op = _FLIP.get(op, op)
        cn = -const
    else:
        cn = const
    if op in ("=", "!="):
        if cn % g != 0:
            return TRUE if op == "!=" else FALSE
        return Rel(op, poly_to_expr(q), Const(-(cn // g)))
    if op == "<":  # g*q <= -cn - 1
        op, bound = "<=", (-cn - 1) // g
    elif op == "<=":
        op, bound = "<=", (-cn) // g
    elif op == ">":  # g*q >= -cn + 1
        op, bound = ">=", -((cn - 1) // g)
    elif op == ">=":
        op, bound = ">=", -(cn // g)
    else:
        raise ValueError(op)
    return Rel(op, poly_to_expr(q), Const(bound))


def _contradicting(parts) -> bool:
    """Cheap unsat check on a conjunction: per linear form, intersect the
    integer interval implied by <=, >= and = atoms; also spot p=k vs p!=k."""
    lo: dict = {}
    hi: dict = {}
    eqs: dict = {}
    neqs: dict[object, set] = {}
    for a in parts:
        if not (isinstance(a, Rel) and isinstance(a.right, Const)):
            continue
        key = a.left
        k = a.right.value
        if a.op == "<=":
            hi[key] = min(hi.get(key, k), k)
        elif a.op == ">=":
            lo[key] = max(lo.get(key, k), k)
        elif a.op == "=":
            if key in eqs and eqs[key] != k:
                return True
            eqs[key] = k
            lo[key] = max(lo.get(key, k), k)
            hi[key] = min(hi.get(key, k), k)
        elif a.op == "!=":
            neqs.setdefault(key, set()).add(k)
    for key in set(lo) & set(hi):
        if lo[key] > hi[key]:
            return True
    for key, k in eqs.items():
        if k in neqs.get(key, ()):
            return True
    return False
