"""Reference tree rewriters for differential tests of loopacc.expr: the
hand-written walkers that ``substitute``, ``beta_reduce``, ``lval_set`` and
``substitute_lvalues`` were before they shared ``map_children``, copied as
they were.  Every rewriter spells out each node kind, and ``beta_reduce``
walks the whole term again after any redex until a walk finds none.  Only
the node classes and the leaf helpers ``free_vars``, ``fresh_var``, ``sv``
and ``arity_of`` are shared with the library, so fresh names are drawn from
the library's counter."""

from __future__ import annotations

from loopacc.expr import (
    And, ArityMismatch, Bin, BoolConst, Const, Ite, Lam, Not, Or, Rel, Sel, Var,
    arity_of, free_vars, fresh_var, sv,
)


def lval_set(e) -> set[Sel]:
    """Top-level lvalues: lvalues nested below other lvalues or inside lambda
    bodies are excluded; array literals contribute nothing."""
    out: set[Sel] = set()
    _lval_set(e, out)
    return out


def _lval_set(e, out: set[Sel]):
    if isinstance(e, Sel):
        if isinstance(e.arr, Var):
            out.add(e)
        # application of a literal lambda: below-lambda lvalues are ignored,
        # and so are the application's indices (they vanish on beta reduction)
    elif isinstance(e, Bin):
        _lval_set(e.left, out)
        _lval_set(e.right, out)
    elif isinstance(e, Ite):
        _lval_set(e.cond, out)
        _lval_set(e.then, out)
        _lval_set(e.other, out)
    elif isinstance(e, Rel):
        if arity_of(e.left) == 0 and not isinstance(e.left, (Var, Lam)):
            _lval_set(e.left, out)
            _lval_set(e.right, out)
        # array literal: Lval(p = q) is empty
    elif isinstance(e, Not):
        _lval_set(e.arg, out)
    elif isinstance(e, (And, Or)):
        for a in e.args:
            _lval_set(a, out)
    # Const, BoolConst, Var, Lam: nothing


def substitute(e, sigma: dict):
    """Simultaneous capture-avoiding variable substitution.  Images of scalar
    variables are expressions; images of arrays are array expressions."""
    for x, img in sigma.items():
        img_ar = arity_of(img) if isinstance(img, (Var, Lam)) else 0
        if isinstance(img, (Var, Lam)) and x.arity != img_ar:
            raise ArityMismatch(f"image of {x.name} has arity {img_ar}, expected {x.arity}")
        if not isinstance(img, (Var, Lam)) and x.arity != 0:
            raise ArityMismatch(f"array {x.name} needs an array expression image")
    return _subst(e, sigma)


def _subst(e, sigma: dict):
    if isinstance(e, Var):
        # array-expression position
        img = sigma.get(e, e)
        if not isinstance(img, (Var, Lam)):
            raise ArityMismatch(f"scalar image {img!r} used in array position for {e.name}")
        return img
    if isinstance(e, Const) or isinstance(e, BoolConst):
        return e
    if isinstance(e, Bin):
        return Bin(e.op, _subst(e.left, sigma), _subst(e.right, sigma))
    if isinstance(e, Sel):
        idx = tuple(_subst(i, sigma) for i in e.idx)
        if isinstance(e.arr, Var) and e.arr in sigma:
            img = sigma[e.arr]
            if e.arr.arity == 0:
                if isinstance(img, Var):
                    return Sel(img, ())
                return img  # scalar occurrence replaced by its image expression
            return Sel(img, idx)
        if isinstance(e.arr, Lam):
            return Sel(_subst(e.arr, sigma), idx)
        return Sel(e.arr, idx)
    if isinstance(e, Ite):
        return Ite(_subst(e.cond, sigma), _subst(e.then, sigma), _subst(e.other, sigma))
    if isinstance(e, Lam):
        live = {x: img for x, img in sigma.items() if x not in e.params}
        if not live:
            return e
        img_free: set[Var] = set()
        for img in live.values():
            img_free |= free_vars(img)
        params = list(e.params)
        renaming: dict = {}
        for i, p in enumerate(params):
            if p in img_free:
                q = fresh_var(p.name.split("!")[0], 0)
                renaming[p] = sv(q)
                params[i] = q
        body = _subst(e.body, renaming) if renaming else e.body
        return Lam(tuple(params), _subst(body, live))
    if isinstance(e, Rel):
        return Rel(e.op, _subst(e.left, sigma), _subst(e.right, sigma))
    if isinstance(e, Not):
        return Not(_subst(e.arg, sigma))
    if isinstance(e, (And, Or)):
        return type(e)(tuple(_subst(a, sigma) for a in e.args))
    raise TypeError(f"not an expression: {e!r}")


def substitute_lvalues(e, mapping: dict):
    """Replace top-level occurrences of whole lvalues (per lval_set): matched
    nodes are not descended into, lambda bodies and array literals are left
    alone."""
    if isinstance(e, Sel) and isinstance(e.arr, Var):
        if e in mapping:
            return mapping[e]
        return e  # nested lvalues sit below a top-level one: untouched
    if isinstance(e, (Const, BoolConst, Var, Lam)):
        return e
    if isinstance(e, Bin):
        return Bin(e.op, substitute_lvalues(e.left, mapping), substitute_lvalues(e.right, mapping))
    if isinstance(e, Sel):  # lambda application: indices are not top-level lvalue positions
        return e
    if isinstance(e, Ite):
        return Ite(
            substitute_lvalues(e.cond, mapping),
            substitute_lvalues(e.then, mapping),
            substitute_lvalues(e.other, mapping),
        )
    if isinstance(e, Rel):
        if arity_of(e.left) == 0 and not isinstance(e.left, (Var, Lam)):
            return Rel(e.op, substitute_lvalues(e.left, mapping), substitute_lvalues(e.right, mapping))
        return e
    if isinstance(e, Not):
        return Not(substitute_lvalues(e.arg, mapping))
    if isinstance(e, (And, Or)):
        return type(e)(tuple(substitute_lvalues(a, mapping) for a in e.args))
    raise TypeError(f"not an expression: {e!r}")


def beta_reduce(e):
    """Rewrite all (lambda ...)[...] redexes by capture-avoiding parameter
    substitution; the result has no application whose head is a literal lambda."""
    while True:
        e2, changed = _beta(e)
        if not changed:
            return e2
        e = e2


def _beta(e):
    if isinstance(e, (Const, BoolConst, Var)):
        return e, False
    if isinstance(e, (Bin, Rel)):
        l, c1 = _beta(e.left)
        r, c2 = _beta(e.right)
        return (type(e)(e.op, l, r) if c1 or c2 else e), c1 or c2
    if isinstance(e, Sel):
        idx = []
        ch = False
        for i in e.idx:
            i2, c = _beta(i)
            idx.append(i2)
            ch = ch or c
        arr = e.arr
        if isinstance(arr, Lam):
            body, cb = _beta(arr.body)
            reduced = substitute(body, dict(zip(arr.params, idx)))
            return reduced, True
        return (Sel(arr, tuple(idx)) if ch else e), ch
    if isinstance(e, Ite):
        c, c1 = _beta(e.cond)
        t, c2 = _beta(e.then)
        o, c3 = _beta(e.other)
        ch = c1 or c2 or c3
        return (Ite(c, t, o) if ch else e), ch
    if isinstance(e, Lam):
        b, c = _beta(e.body)
        return (Lam(e.params, b) if c else e), c
    if isinstance(e, Not):
        a, c = _beta(e.arg)
        return (Not(a) if c else e), c
    if isinstance(e, (And, Or)):
        args = [_beta(a) for a in e.args]
        ch = any(c for _, c in args)
        return (type(e)(tuple(a for a, _ in args)) if ch else e), ch
    raise TypeError(f"not an expression: {e!r}")
