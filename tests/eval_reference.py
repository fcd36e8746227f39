"""Reference interpreter for differential tests of loopacc.expr.eval_expr and
eval_formula: the isinstance-chain tree walk the evaluator was before it
dispatched on the node class, copied as it was.  The one change is its lambda
value, ``RefClosure``, which evaluates the body with this interpreter (the
library's ``Closure`` calls the library's ``eval_expr``), so a lambda body is
walked by the reference too.  Only the leaf helpers ``RELATIONS``,
``_divides`` and ``arity_of`` are shared with the library."""

from __future__ import annotations

from loopacc.expr import (
    And, ArityMismatch, Bin, BoolConst, Closure, Const, EvalError, Formula, Ite, Lam, Not, Or,
    RELATIONS, Rel, Sel, State, Var, _divides, arity_of,
)


class RefClosure(Closure):
    """``Closure`` whose body is evaluated by this module's ``eval_expr``."""

    def __call__(self, point) -> int:
        point = tuple(map(int, point))
        if len(point) != self.arity:
            raise ArityMismatch(f"closure of arity {self.arity} applied to {point}")
        inner = self.env.bind({p: v for p, v in zip(self.params, point)})
        return eval_expr(self.body, inner)


def eval_expr(e, s: State):
    """Interpretation of an (array) expression or formula in a state.  Returns
    an int, a function value (FiniteFn/Closure) or a bool."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Bin):
        l = eval_expr(e.left, s)
        r = eval_expr(e.right, s)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        if e.op == "div":
            if r == 0:
                raise EvalError("division by zero")
            return l // r  # floor division
        raise EvalError(f"unknown operator {e.op}")
    if isinstance(e, Var):
        return s[e]
    if isinstance(e, Sel):
        fn = eval_expr(e.arr, s)
        point = tuple(eval_expr(i, s) for i in e.idx)
        if isinstance(fn, int):
            if point:
                raise ArityMismatch("scalar applied to indices")
            return fn
        return fn(point)
    if isinstance(e, Ite):
        return eval_expr(e.then, s) if eval_formula(e.cond, s) else eval_expr(e.other, s)
    if isinstance(e, Lam):
        return RefClosure(e.params, e.body, s)
    if isinstance(e, (BoolConst, Rel, Not, And, Or)):
        return eval_formula(e, s)
    raise TypeError(f"not an expression: {e!r}")


def eval_formula(f: Formula, s: State) -> bool:
    if isinstance(f, BoolConst):
        return f.value
    if isinstance(f, Rel):
        if f.op in ("=", "!=") and (arity_of(f.left) > 0 or arity_of(f.right) > 0):
            raise EvalError("array equality is not concretely evaluable; probe the functions")
        l = eval_expr(f.left, s)
        r = eval_expr(f.right, s)
        if f.op == "divides":
            return _divides(l, r)
        rel = RELATIONS.get(f.op)
        if rel is None:
            raise EvalError(f"unknown relation {f.op}")
        return rel(l, r)
    if isinstance(f, Not):
        return not eval_formula(f.arg, s)
    if isinstance(f, And):
        return all(eval_formula(a, s) for a in f.args)
    if isinstance(f, Or):
        return any(eval_formula(a, s) for a in f.args)
    raise TypeError(f"not a formula: {f!r}")
