"""AST for rvalues, lvalues, (array) expressions and formulas, plus the
operations every other module leans on: concrete evaluation, capture-avoiding
substitution, beta reduction, top-level lvalue collection and free variables.

Scalars are arrays of dimension 0 throughout: a scalar occurrence in an
expression is a cell access with an empty index vector (``Sel(x, ())``).
All nodes are immutable; structural equality and hashing are derived.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Iterable, Union


class ExprError(Exception):
    pass


class ArityMismatch(ExprError):
    pass


class EvalError(ExprError):
    pass


class UnboundVariable(EvalError):
    pass


# ---------------------------------------------------------------------------
# nodes


@dataclass(frozen=True)
class Var:
    """A variable with a fixed dimension; arity 0 means scalar."""

    name: str
    arity: int = 0

    def __repr__(self):
        return f"Var({self.name!r}, {self.arity})" if self.arity else f"Var({self.name!r})"


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * div
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Lam:
    params: tuple[Var, ...]
    body: "Expr"

    def __post_init__(self):
        if len(set(self.params)) != len(self.params):
            raise ExprError(f"duplicate lambda parameters: {self.params}")
        for p in self.params:
            if p.arity != 0:
                raise ArityMismatch(f"lambda parameter {p.name} must be scalar")


ArrayExpr = Union[Var, Lam]


@dataclass(frozen=True)
class Sel:
    """Cell access / application: x[r...] when arr is a Var, a beta-redex when
    arr is a Lam.  Scalars are the empty-index case ``Sel(x, ())``."""

    arr: ArrayExpr
    idx: tuple["Expr", ...] = ()

    def __post_init__(self):
        if arity_of(self.arr) != len(self.idx):
            raise ArityMismatch(
                f"{self.arr} has arity {arity_of(self.arr)}, applied to {len(self.idx)} indices"
            )


@dataclass(frozen=True)
class Ite:
    cond: "Formula"
    then: "Expr"
    other: "Expr"


Expr = Union[Const, Bin, Sel, Ite]


@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class Rel:
    """Atom over expressions.  op is one of < <= > >= = != divides; for array
    literals (op = or !=) the sides are array expressions of equal arity > 0.
    For divides the left side is the divisor."""

    op: str
    left: Union[Expr, ArrayExpr]
    right: Union[Expr, ArrayExpr]


@dataclass(frozen=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True)
class And:
    args: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    args: tuple["Formula", ...]


Formula = Union[BoolConst, Rel, Not, And, Or]

TRUE = BoolConst(True)
FALSE = BoolConst(False)

def sv(x: Var) -> Sel:
    """Scalar variable occurrence as an expression."""
    if x.arity != 0:
        raise ArityMismatch(f"{x.name} is not scalar")
    return Sel(x, ())


def conj(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def disj(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if not parts:
        return FALSE
    if len(parts) == 1:
        return parts[0]
    return Or(parts)


def arity_of(e) -> int:
    if isinstance(e, Var):
        return e.arity
    if isinstance(e, Lam):
        return len(e.params)
    return 0


def is_lvalue(e) -> bool:
    """x[r...] with r rvalues; scalars included (empty index)."""
    return isinstance(e, Sel) and isinstance(e.arr, Var) and all(is_rvalue(i) for i in e.idx)


def is_rvalue(e) -> bool:
    if isinstance(e, Const):
        return True
    if isinstance(e, Bin):
        return is_rvalue(e.left) and is_rvalue(e.right)
    if isinstance(e, Sel):
        return isinstance(e.arr, Var) and all(is_rvalue(i) for i in e.idx)
    return False


# ---------------------------------------------------------------------------
# fresh names

_fresh_counter = itertools.count()
_fresh_lock = threading.Lock()


def fresh_name(base: str) -> str:
    with _fresh_lock:
        k = next(_fresh_counter)
    return f"{base}!{k}"


def fresh_var(base: str, arity: int = 0) -> Var:
    return Var(fresh_name(base), arity)


def reset_fresh_counter():
    """Test hook only: make fresh-name sequences reproducible."""
    global _fresh_counter
    with _fresh_lock:
        _fresh_counter = itertools.count()


# ---------------------------------------------------------------------------
# traversal helpers


def free_vars(e) -> set[Var]:
    out: set[Var] = set()
    _free_vars(e, frozenset(), out)
    return out


def _free_vars(e, bound: frozenset[Var], out: set[Var]):
    if isinstance(e, Var):
        if e not in bound:
            out.add(e)
    elif isinstance(e, Const):
        pass
    elif isinstance(e, Bin):
        _free_vars(e.left, bound, out)
        _free_vars(e.right, bound, out)
    elif isinstance(e, Sel):
        _free_vars(e.arr, bound, out)
        for i in e.idx:
            _free_vars(i, bound, out)
    elif isinstance(e, Ite):
        _free_vars(e.cond, bound, out)
        _free_vars(e.then, bound, out)
        _free_vars(e.other, bound, out)
    elif isinstance(e, Lam):
        _free_vars(e.body, bound | set(e.params), out)
    elif isinstance(e, BoolConst):
        pass
    elif isinstance(e, Rel):
        _free_vars(e.left, bound, out)
        _free_vars(e.right, bound, out)
    elif isinstance(e, Not):
        _free_vars(e.arg, bound, out)
    elif isinstance(e, (And, Or)):
        for a in e.args:
            _free_vars(a, bound, out)
    else:
        raise TypeError(f"not an expression: {e!r}")


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


# ---------------------------------------------------------------------------
# substitution

Subst = dict  # Var -> Expr (arity 0) | ArrayExpr (arity > 0)


def substitute(e, sigma: Subst):
    """Simultaneous capture-avoiding variable substitution.  Images of scalar
    variables are expressions; images of arrays are array expressions."""
    for x, img in sigma.items():
        img_ar = arity_of(img) if isinstance(img, (Var, Lam)) else 0
        if isinstance(img, (Var, Lam)) and x.arity != img_ar:
            raise ArityMismatch(f"image of {x.name} has arity {img_ar}, expected {x.arity}")
        if not isinstance(img, (Var, Lam)) and x.arity != 0:
            raise ArityMismatch(f"array {x.name} needs an array expression image")
    return _subst(e, sigma)


def _subst(e, sigma: Subst):
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
        renaming: Subst = {}
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
    if isinstance(e, And):
        return And(tuple(_subst(a, sigma) for a in e.args))
    if isinstance(e, Or):
        return Or(tuple(_subst(a, sigma) for a in e.args))
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
    if isinstance(e, And):
        return And(tuple(substitute_lvalues(a, mapping) for a in e.args))
    if isinstance(e, Or):
        return Or(tuple(substitute_lvalues(a, mapping) for a in e.args))
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# beta reduction


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
    if isinstance(e, Bin):
        l, c1 = _beta(e.left)
        r, c2 = _beta(e.right)
        return (Bin(e.op, l, r) if c1 or c2 else e), c1 or c2
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
    if isinstance(e, Rel):
        l, c1 = _beta(e.left)
        r, c2 = _beta(e.right)
        return (Rel(e.op, l, r) if c1 or c2 else e), c1 or c2
    if isinstance(e, Not):
        a, c = _beta(e.arg)
        return (Not(a) if c else e), c
    if isinstance(e, And):
        args = [_beta(a) for a in e.args]
        ch = any(c for _, c in args)
        return (And(tuple(a for a, _ in args)) if ch else e), ch
    if isinstance(e, Or):
        args = [_beta(a) for a in e.args]
        ch = any(c for _, c in args)
        return (Or(tuple(a for a, _ in args)) if ch else e), ch
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# states and concrete evaluation


@dataclass(frozen=True)
class FiniteFn:
    """Finite-support integer function: an affine background (base + sum of
    coeff*index) overridden at finitely many points.  Scalar-valued states use
    plain ints instead."""

    arity: int
    base: int = 0
    coeffs: tuple[int, ...] = ()
    overrides: tuple[tuple[tuple[int, ...], int], ...] = ()

    def __post_init__(self):
        if self.coeffs and len(self.coeffs) != self.arity:
            raise ArityMismatch("background coefficient count must match arity")

    @staticmethod
    def const(arity: int, value: int, overrides=None) -> "FiniteFn":
        return FiniteFn(arity, value, (0,) * arity, _norm_overrides(overrides or {}))

    @staticmethod
    def identity(overrides=None) -> "FiniteFn":
        return FiniteFn(1, 0, (1,), _norm_overrides(overrides or {}))

    @staticmethod
    def affine(arity: int, base: int, coeffs, overrides=None) -> "FiniteFn":
        return FiniteFn(arity, base, tuple(coeffs), _norm_overrides(overrides or {}))

    def background(self, point: tuple[int, ...]) -> int:
        coeffs = self.coeffs or (0,) * self.arity
        return self.base + sum(c * p for c, p in zip(coeffs, point))

    def __call__(self, point) -> int:
        point = tuple(int(p) for p in point)
        if len(point) != self.arity:
            raise ArityMismatch(f"function of arity {self.arity} applied to {point}")
        for k, v in self.overrides:
            if k == point:
                return v
        return self.background(point)

    def override_map(self) -> dict[tuple[int, ...], int]:
        return dict(self.overrides)

    def store(self, point: tuple[int, ...], value: int) -> "FiniteFn":
        ov = self.override_map()
        ov[tuple(point)] = value
        return FiniteFn(self.arity, self.base, self.coeffs, _norm_overrides(ov))

    def normalized(self) -> "FiniteFn":
        """Drop overrides that coincide with the background."""
        ov = {k: v for k, v in self.overrides if v != self.background(k)}
        return FiniteFn(self.arity, self.base, self.coeffs or (0,) * self.arity,
                        _norm_overrides(ov))

    def same_function(self, other: "FiniteFn") -> bool:
        if self.arity != other.arity:
            return False
        a, b = self.normalized(), other.normalized()
        if a.base != b.base or a.coeffs != b.coeffs:
            return False
        return a.overrides == b.overrides


def _norm_overrides(ov: dict) -> tuple:
    return tuple(sorted((tuple(k), int(v)) for k, v in ov.items()))


class Closure:
    """Lambda value: parameters plus a body evaluated in a captured state
    restricted away from the parameters."""

    def __init__(self, params: tuple[Var, ...], body: Expr, env: "State"):
        self.params = params
        self.body = body
        self.env = env.without(params)
        self.arity = len(params)

    def __call__(self, point) -> int:
        point = tuple(int(p) for p in point)
        if len(point) != self.arity:
            raise ArityMismatch(f"closure of arity {self.arity} applied to {point}")
        inner = self.env.bind({p: v for p, v in zip(self.params, point)})
        return eval_expr(self.body, inner)


class State:
    """Finite-domain assignment of variables to integers (arity 0) or
    integer-valued functions."""

    def __init__(self, mapping: dict | None = None):
        self._m: dict[Var, object] = {}
        for x, v in (mapping or {}).items():
            self._m[x] = self._check(x, v)

    @staticmethod
    def _check(x: Var, v):
        if x.arity == 0:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ArityMismatch(f"scalar {x.name} must be bound to an int, got {v!r}")
            return v
        if isinstance(v, FiniteFn):
            if v.arity != x.arity:
                raise ArityMismatch(f"{x.name} has arity {x.arity}, function has {v.arity}")
            return v
        if isinstance(v, Closure):
            if v.arity != x.arity:
                raise ArityMismatch(f"{x.name} has arity {x.arity}, closure has {v.arity}")
            return v
        raise ArityMismatch(f"array {x.name} must be bound to a function, got {v!r}")

    def __contains__(self, x: Var) -> bool:
        return x in self._m

    def __getitem__(self, x: Var):
        try:
            return self._m[x]
        except KeyError:
            raise UnboundVariable(f"unbound variable {x.name}") from None

    def get(self, x: Var, default=None):
        return self._m.get(x, default)

    def items(self):
        return self._m.items()

    def bind(self, extra: dict) -> "State":
        s = State()
        s._m = dict(self._m)
        for x, v in extra.items():
            s._m[x] = self._check(x, v)
        return s

    def without(self, xs) -> "State":
        s = State()
        s._m = {x: v for x, v in self._m.items() if x not in set(xs)}
        return s

    def __repr__(self):
        parts = ", ".join(f"{x.name}={v!r}" for x, v in sorted(self._m.items(), key=lambda kv: kv[0].name))
        return f"State({parts})"


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
        return Closure(e.params, e.body, s)
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
        if f.op == "<":
            return l < r
        if f.op == "<=":
            return l <= r
        if f.op == ">":
            return l > r
        if f.op == ">=":
            return l >= r
        if f.op == "=":
            return l == r
        if f.op == "!=":
            return l != r
        if f.op == "divides":
            if l == 0:
                return r == 0
            return r % l == 0
        raise EvalError(f"unknown relation {f.op}")
    if isinstance(f, Not):
        return not eval_formula(f.arg, s)
    if isinstance(f, And):
        return all(eval_formula(a, s) for a in f.args)
    if isinstance(f, Or):
        return any(eval_formula(a, s) for a in f.args)
    raise TypeError(f"not a formula: {f!r}")
