"""AST for rvalues, lvalues, (array) expressions and formulas, plus the
operations every other module leans on: concrete evaluation, capture-avoiding
substitution, beta reduction, top-level lvalue collection and free variables.
The rewriters spell out only the node kinds where they differ and leave the
rest to ``map_children``, which rebuilds a node from its rewritten children
(the node itself when none changed).  ``beta_reduce`` is one pass: a redex's
parameters are scalars, so substituting reduced indices into a reduced body
creates no new redex.  ``eval_expr`` walks the tree, branching on each node's
class; array values in states are ``FiniteFn``s, whose sorted overrides a
store extends in O(k).
``compile_probe`` turns an array expression into Python code that evaluates
it as ``eval_expr`` does at many points in one call.

Scalars are arrays of dimension 0 throughout: a scalar occurrence in an
expression is a cell access with an empty index vector (``Sel(x, ())``).
Every node is a tuple whose item 0 is its class, followed by its fields, which
are read through namedtuple's C-level getters.  Construction, ``hash`` and
``==`` are then tuple operations that run in C: term rewriting builds, hashes
and compares nodes in every phase.  The class in item 0 keeps nodes of
different kinds with equal fields unequal.  Nodes are immutable and cache no
hash: a Python-level cached ``__hash__`` costs more than the C tuple hash
it would save.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import threading
from collections import namedtuple
from dataclasses import dataclass, field
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


class _Node(tuple):
    """Item 0 is the node's class; the fields follow in declaration order."""

    __slots__ = ()

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields[1:], self[1:]))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self):  # copy and pickle call __new__ without the kind
        return self[1:]


_new = tuple.__new__


class Var(_Node, namedtuple("Var", "kind name arity")):
    """A variable with a fixed dimension; arity 0 means scalar."""

    __slots__ = ()

    def __new__(cls, name: str, arity: int = 0):
        return _new(cls, (cls, name, arity))

    def __repr__(self):
        return f"Var({self.name!r}, {self.arity})" if self.arity else f"Var({self.name!r})"


class Const(_Node, namedtuple("Const", "kind value")):
    __slots__ = ()

    def __new__(cls, value: int):
        return _new(cls, (cls, value))


class Bin(_Node, namedtuple("Bin", "kind op left right")):
    __slots__ = ()

    def __new__(cls, op: str, left: "Expr", right: "Expr"):  # op: + - * div
        return _new(cls, (cls, op, left, right))


class Lam(_Node, namedtuple("Lam", "kind params body")):
    __slots__ = ()

    def __new__(cls, params: tuple[Var, ...], body: "Expr"):
        if len(set(params)) != len(params):
            raise ExprError(f"duplicate lambda parameters: {params}")
        for p in params:
            if p.arity != 0:
                raise ArityMismatch(f"lambda parameter {p.name} must be scalar")
        return _new(cls, (cls, params, body))


ArrayExpr = Union[Var, Lam]


class Sel(_Node, namedtuple("Sel", "kind arr idx")):
    """Cell access / application: x[r...] when arr is a Var, a beta-redex when
    arr is a Lam.  Scalars are the empty-index case ``Sel(x, ())``."""

    __slots__ = ()

    def __new__(cls, arr: ArrayExpr, idx: tuple["Expr", ...] = ()):
        if arity_of(arr) != len(idx):
            raise ArityMismatch(f"{arr} has arity {arity_of(arr)}, applied to {len(idx)} indices")
        return _new(cls, (cls, arr, idx))


class Ite(_Node, namedtuple("Ite", "kind cond then other")):
    __slots__ = ()

    def __new__(cls, cond: "Formula", then: "Expr", other: "Expr"):
        return _new(cls, (cls, cond, then, other))


Expr = Union[Const, Bin, Sel, Ite]


class BoolConst(_Node, namedtuple("BoolConst", "kind value")):
    __slots__ = ()

    def __new__(cls, value: bool):
        return _new(cls, (cls, value))


class Rel(_Node, namedtuple("Rel", "kind op left right")):
    """Atom over expressions.  op is one of < <= > >= = != divides; for array
    literals (op = or !=) the sides are array expressions of equal arity > 0.
    For divides the left side is the divisor."""

    __slots__ = ()

    def __new__(cls, op: str, left: Union[Expr, ArrayExpr], right: Union[Expr, ArrayExpr]):
        return _new(cls, (cls, op, left, right))


class Not(_Node, namedtuple("Not", "kind arg")):
    __slots__ = ()

    def __new__(cls, arg: "Formula"):
        return _new(cls, (cls, arg))


class And(_Node, namedtuple("And", "kind args")):
    __slots__ = ()

    def __new__(cls, args: tuple["Formula", ...]):
        return _new(cls, (cls, args))


class Or(_Node, namedtuple("Or", "kind args")):
    __slots__ = ()

    def __new__(cls, args: tuple["Formula", ...]):
        return _new(cls, (cls, args))


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
    k = type(e)
    if k is Var:
        if e not in bound:
            out.add(e)
    elif k is Sel:
        _free_vars(e.arr, bound, out)
        for i in e.idx:
            _free_vars(i, bound, out)
    elif k is Const or k is BoolConst:
        pass
    elif k is Bin or k is Rel:
        _free_vars(e.left, bound, out)
        _free_vars(e.right, bound, out)
    elif k is Ite:
        _free_vars(e.cond, bound, out)
        _free_vars(e.then, bound, out)
        _free_vars(e.other, bound, out)
    elif k is And or k is Or:
        for a in e.args:
            _free_vars(a, bound, out)
    elif k is Lam:
        _free_vars(e.body, bound | set(e.params), out)
    elif k is Not:
        _free_vars(e.arg, bound, out)
    else:
        raise TypeError(f"not an expression: {e!r}")


def map_children(e, f, *args):
    """``e`` with each direct child ``c`` replaced by ``f(c, *args)``, or ``e``
    itself when every call returned its child.  The children are a ``Sel``'s
    indices, then its array; the sides of ``Bin`` and ``Rel``; an ``Ite``'s
    condition and branches; a ``Lam``'s body (its parameters bind); ``Not``'s
    argument and ``And``/``Or``'s arguments.  ``Var``, ``Const`` and
    ``BoolConst`` have none; anything that is not a node raises TypeError."""
    k = type(e)
    if k is Sel:
        idx = _map_tuple(e.idx, f, args) if e.idx else e.idx
        arr = f(e.arr, *args)
        return e if arr is e.arr and idx is e.idx else Sel(arr, idx)
    if k is Bin or k is Rel:
        l, r = f(e.left, *args), f(e.right, *args)
        return e if l is e.left and r is e.right else _new(k, (k, e.op, l, r))
    if k is Const or k is Var or k is BoolConst:
        return e
    if k is Ite:
        c, t, o = f(e.cond, *args), f(e.then, *args), f(e.other, *args)
        return e if c is e.cond and t is e.then and o is e.other else _new(k, (k, c, t, o))
    if k is And or k is Or:
        xs = _map_tuple(e.args, f, args)
        return e if xs is e.args else _new(k, (k, xs))
    if k is Not:
        a = f(e.arg, *args)
        return e if a is e.arg else _new(k, (k, a))
    if k is Lam:
        b = f(e.body, *args)
        return e if b is e.body else _new(k, (k, e.params, b))
    raise TypeError(f"not an expression: {e!r}")


def _map_tuple(xs: tuple, f, args) -> tuple:
    """xs with f applied to each item; xs itself while nothing changes."""
    for j, x in enumerate(xs):
        y = f(x, *args)
        if y is not x:
            return (*xs[:j], y, *[f(z, *args) for z in xs[j + 1:]])
    return xs


def _top_lvalues(e, visit):
    """e with each top-level lvalue ``lv`` replaced by ``visit(lv)``.  An
    lvalue nested below another one, in a lambda body or in the indices of a
    lambda application (they vanish on beta reduction) is not top-level; so
    an array literal, whose sides are variables and lambdas, has none."""
    k = type(e)
    if k is Sel:
        return visit(e) if type(e.arr) is Var else e
    return e if k is Lam else map_children(e, _top_lvalues, visit)


def lval_set(e) -> set[Sel]:
    """The top-level lvalues of e (see ``_top_lvalues``)."""
    out: set[Sel] = set()

    def add(lv):
        out.add(lv)
        return lv

    _top_lvalues(e, add)
    return out


def substitute_lvalues(e, mapping: dict):
    """e with each top-level lvalue in mapping replaced by its image; matched
    nodes are not descended into."""
    return _top_lvalues(e, lambda lv: mapping.get(lv, lv))


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
    k = type(e)
    if k is Sel:
        x = e.arr
        if type(x) is Var and x in sigma:
            img = sigma[x]
            if not x.arity:  # a scalar occurrence is replaced by its image expression
                return Sel(img, ()) if type(img) is Var else img
            return Sel(img, tuple([_subst(i, sigma) for i in e.idx]))
    elif k is Var:  # array-expression position
        img = sigma.get(e, e)
        if not isinstance(img, (Var, Lam)):
            raise ArityMismatch(f"scalar image {img!r} used in array position for {e.name}")
        return img
    elif k is Lam:
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
    return map_children(e, _subst, sigma)


# ---------------------------------------------------------------------------
# beta reduction


def beta_reduce(e):
    """Rewrite all (lambda ...)[...] redexes by capture-avoiding parameter
    substitution, in one pass: a redex's indices and body are reduced first,
    and since the parameters are scalars, substituting those normal forms
    for them creates no new redex."""
    if type(e) is Sel and type(e.arr) is Lam:
        lam = e.arr
        idx = [beta_reduce(i) for i in e.idx]
        return substitute(beta_reduce(lam.body), dict(zip(lam.params, idx)))
    return map_children(e, beta_reduce)


# ---------------------------------------------------------------------------
# states and concrete evaluation


@dataclass(frozen=True)
class FiniteFn:
    """Finite-support integer function: an affine background (base + sum of
    coeff*index) overridden at finitely many points.  Scalar-valued states use
    plain ints instead."""

    arity: int
    base: int
    coeffs: tuple[int, ...]
    overrides: tuple[tuple[tuple[int, ...], int], ...] = ()
    # the overrides as a dict, for lookups; derived, so outside eq/hash/repr
    _lookup: dict = field(init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if len(self.coeffs) != self.arity:
            raise ArityMismatch("background coefficient count must match arity")
        object.__setattr__(self, "_lookup", dict(self.overrides))

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
        return self.base + sum(map(operator.mul, self.coeffs, point))

    def __call__(self, point) -> int:
        point = tuple(map(int, point))
        if len(point) != self.arity:
            raise ArityMismatch(f"function of arity {self.arity} applied to {point}")
        v = self._lookup.get(point)
        return self.background(point) if v is None else v

    def at(self, points) -> list[int]:
        """The values at many points, each an int tuple of this arity."""
        return _values_at(self.arity)(self._lookup.get, points, self.base, *self.coeffs)

    def override_map(self) -> dict[tuple[int, ...], int]:
        return dict(self._lookup)

    def store(self, point: tuple[int, ...], value: int) -> "FiniteFn":
        """This function with the value at point replaced, in O(k): the
        override goes into its sorted place (an overwrite keeps its key) and
        into a copy of the lookup dict."""
        k, v, ov = tuple(point), int(value), list(self.overrides)
        i = bisect.bisect_left(ov, (k,))
        if i < len(ov) and ov[i][0] == k:
            ov[i] = (ov[i][0], v)
        else:
            ov.insert(i, (k, v))
        fn = object.__new__(FiniteFn)  # the fields are checked: skip __post_init__
        fn.__dict__.update(self.__dict__, overrides=tuple(ov), _lookup={**self._lookup, k: v})
        return fn


def _norm_overrides(ov: dict) -> tuple:
    return tuple(sorted((tuple(k), int(v)) for k, v in ov.items()))


@functools.cache
def _values_at(arity: int):
    """``FiniteFn.at``'s loop for one arity, the background unrolled into
    ``base + c0 * p[0] + c1 * p[1] + ...``."""
    cs = "".join(f", c{j}" for j in range(arity))
    bg = "".join(f" + c{j} * p[{j}]" for j in range(arity))
    return eval(f"lambda get, points, base{cs}: "
                f"[v if (v := get(p)) is not None else base{bg} for p in points]")


class Closure:
    """Lambda value: parameters plus a body evaluated in a captured state
    restricted away from the parameters."""

    def __init__(self, params: tuple[Var, ...], body: Expr, env: "State"):
        self.params = params
        self.body = body
        self.env = env.without(params)
        self.arity = len(params)

    def __call__(self, point) -> int:
        point = tuple(map(int, point))
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
        drop = set(xs)
        s = State()
        s._m = {x: v for x, v in self._m.items() if x not in drop}
        return s

    def __repr__(self):
        parts = ", ".join(f"{x.name}={v!r}" for x, v in sorted(self._m.items(), key=lambda kv: kv[0].name))
        return f"State({parts})"


# the arithmetic relations as functions of their two sides, and each one's negation
RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
             "=": operator.eq, "!=": operator.ne}
NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}


def eval_expr(e, s: State):
    """Interpretation of an (array) expression or formula in a state.  Returns
    an int, a function value (FiniteFn/Closure) or a bool.  Branches on the
    node's class (``type(e) is ...``), the most frequent kinds first; a
    scalar read ``Sel(x, ())`` is one lookup, an array read calls the function
    value at its point, and anything that is not a node raises TypeError."""
    k = type(e)
    if k is Sel:
        arr, idx = e.arr, e.idx
        if not idx and type(arr) is Var and not arr.arity:
            return s[arr]  # a scalar is bound to an int
        fn = eval_expr(arr, s)
        point = [eval_expr(i, s) for i in idx]
        if isinstance(fn, int):
            if point:
                raise ArityMismatch("scalar applied to indices")
            return fn
        return fn(point)
    if k is Const:
        return e.value
    if k is Bin:
        op, l, r = e.op, eval_expr(e.left, s), eval_expr(e.right, s)
        if op == "+":
            return l + r
        if op == "-":
            return l - r
        if op == "*":
            return l * r
        if op == "div":
            if r == 0:
                raise EvalError("division by zero")
            return l // r  # floor division
        raise EvalError(f"unknown operator {op}")
    if k is Ite:
        return eval_expr(e.then, s) if eval_formula(e.cond, s) else eval_expr(e.other, s)
    if k is Var:
        return s[e]
    if k is Lam:
        return Closure(e.params, e.body, s)
    if k in _FORMULAS:
        return eval_formula(e, s)
    raise TypeError(f"not an expression: {e!r}")


def eval_formula(f: Formula, s: State) -> bool:
    k = type(f)
    if k is Rel:
        op = f.op
        if (op == "=" or op == "!=") and (arity_of(f.left) > 0 or arity_of(f.right) > 0):
            raise EvalError("array equality is not concretely evaluable; probe the functions")
        l, r = eval_expr(f.left, s), eval_expr(f.right, s)
        if op == "divides":
            return _divides(l, r)
        rel = RELATIONS.get(op)
        if rel is None:
            raise EvalError(f"unknown relation {op}")
        return rel(l, r)
    if k is And:
        for a in f.args:
            if not eval_formula(a, s):
                return False
        return True
    if k is Or:
        for a in f.args:
            if eval_formula(a, s):
                return True
        return False
    if k is Not:
        return not eval_formula(f.arg, s)
    if k is BoolConst:
        return f.value
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# compiled evaluation

# Tree levels emitted into one Python expression; a deeper closed form is
# interpreted.  Each level opens at most two parentheses, and the Python
# parser refuses more than 200 nested ones.
_HOIST_DEPTH = 48

SKIP = object()  # a probe point where the expression raises EvalError


def compile_probe(e):
    """Array expression ``e`` compiled once: ``probe(s, points)`` lists its
    value in ``s`` at each point (an int tuple of its arity), ``SKIP`` where
    ``eval_expr`` raises ``EvalError``.  The compiled code loads its free
    variables from ``s`` once, then loops over the points, reading input
    arrays from their ``FiniteFn``'s override dict, the background on a miss.
    An unbound variable, a non-``FiniteFn`` input, a nested lambda, a tree
    deeper than ``_HOIST_DEPTH``, one that ``eval_expr`` rejects or a
    non-lambda ``e`` is interpreted: ``eval_expr(e, s)`` called at each
    point.  A scalar ``x`` is the zero-parameter probe ``Lam((), x)`` at ``()``."""
    if not isinstance(e, Lam):
        return _interpreted(e)
    try:
        return _Compiler().probe(e)
    except _Interpret:
        return _interpreted(e)


def _interpreted(e):
    def probe(s, points):
        out = []
        for p in points:
            try:
                out.append(eval_expr(e, s)(p))
            except EvalError:
                out.append(SKIP)
        return out
    return probe


class _Interpret(Exception):
    """Raised by the emitter at what it does not compile inline."""


def _divides(d, r) -> bool:
    return r == 0 if d == 0 else r % d == 0


_REL_OPS = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "=": "==", "!=": "!="}
_FORMULAS = (BoolConst, Rel, Not, And, Or)


class _Compiler:
    """One compiled probe: the identifiers of its variables, the variables
    it reads from the state, and the arrays among them it reads inline."""

    def __init__(self):
        self.names: dict[Var, str] = {}
        self.free: dict[Var, None] = {}  # read from the state, in first-read order
        self.reads: dict[Var, None] = {}  # the arrays read inline
        self.keys = itertools.count()
        self.env = dict(_SKIP=SKIP, _divides=_divides, _FiniteFn=FiniteFn, EvalError=EvalError)

    def probe(self, e: Lam):
        body = self.emit(e.body, frozenset(e.params), 0)
        lines = ["def probe(_s, _pts):", "    _m, _out = _s._m, []"]
        if self.free:
            lines += [f"    try: {''.join(f'{self.name(x)}, ' for x in self.free)}"
                      f"= {''.join(f'_m[X{self.name(x)}], ' for x in self.free)}",
                      "    except KeyError: return _slow(_s, _pts)"]
        for x in self.reads:
            v = self.name(x)
            lines += [f"    if not isinstance({v}, _FiniteFn): return _slow(_s, _pts)",
                      f"    {v}_g, {v}_b, ({''.join(f'{v}_c{j}, ' for j in range(x.arity))})"
                      f" = {v}._lookup.get, {v}.base, {v}.coeffs"]
        lines += [f"    for {''.join(f'{self.name(p)}, ' for p in e.params) or '_'} in _pts:",
                  f"        try: _out.append({body})",
                  "        except (ZeroDivisionError, EvalError): _out.append(_SKIP)",
                  "    return _out"]
        self.env["_slow"] = _interpreted(e)
        exec(compile("\n".join(lines), "<compile_probe>", "exec"), self.env)
        return self.env["probe"]

    def name(self, x: Var) -> str:
        if x not in self.names:
            self.names[x] = v = f"v{len(self.names)}"
            self.env[f"X{v}"] = x
        return self.names[x]

    def emit(self, e, bound: frozenset, depth: int, formula: bool = False) -> str:
        """Source of one Python expression for ``e``, in a loop body where
        ``bound`` are locals; raises ``_Interpret`` at a lambda, at
        ``_HOIST_DEPTH`` and at a tree ``eval_expr`` rejects."""
        if depth >= _HOIST_DEPTH or isinstance(e, Lam) or (
                formula and not isinstance(e, _FORMULAS)):
            raise _Interpret
        emit, d = self.emit, depth + 1
        if isinstance(e, Const):
            return f"({e.value!r})"
        if isinstance(e, Bin):
            l, r = emit(e.left, bound, d), emit(e.right, bound, d)
            if e.op in ("+", "-", "*"):
                return f"({l} {e.op} {r})"
            if e.op == "div":  # floor division; ZeroDivisionError is turned into SKIP
                return f"({l} // {r})"
            raise _Interpret
        if isinstance(e, Var):
            v = self.name(e)
            if e in bound:
                return v
            self.free[e] = None
            return v
        if isinstance(e, Sel):
            if isinstance(e.arr, Var) and e.arr.arity == len(e.idx) > 0:
                return self.read(e.arr, [emit(i, bound, d) for i in e.idx])
            fn = emit(e.arr, bound, d)
            if isinstance(e.arr, Var) and e.arr.arity == 0:  # a scalar is bound to an int
                if e.idx:
                    raise _Interpret
                return fn
            return f"{fn}(({''.join(f'{emit(i, bound, d)}, ' for i in e.idx)}))"
        if isinstance(e, Ite):
            c = emit(e.cond, bound, d, True)
            return f"({emit(e.then, bound, d)} if {c} else {emit(e.other, bound, d)})"
        if isinstance(e, BoolConst):
            return repr(e.value)
        if isinstance(e, Rel):
            if e.op in ("=", "!=") and (arity_of(e.left) > 0 or arity_of(e.right) > 0):
                raise _Interpret
            l, r = emit(e.left, bound, d), emit(e.right, bound, d)
            if e.op in _REL_OPS:
                return f"({l} {_REL_OPS[e.op]} {r})"
            if e.op == "divides":
                if type(e.left) is Const and e.left.value != 0:
                    return f"({r} % {e.left.value!r} == 0)"
                return f"_divides({l}, {r})"
            raise _Interpret
        if isinstance(e, Not):
            return f"(not {emit(e.arg, bound, d, True)})"
        if isinstance(e, (And, Or)):
            if not e.args:
                return repr(isinstance(e, And))
            op = " and " if isinstance(e, And) else " or "
            return f"({op.join([emit(a, bound, d, True) for a in e.args])})"
        raise _Interpret

    def read(self, x: Var, idx: list[str]) -> str:  # a probe's x[idx...]: one dict probe
        v, r = self.name(x), f"_r{next(self.keys)}"
        self.free[x] = self.reads[x] = None
        ks = [f"{r}_{j}" for j in range(len(idx))]
        bg = "".join(f" + {v}_c{j} * {k}" for j, k in enumerate(ks))
        return (f"({r} if ({r} := {v}_g(({''.join(f'{k} := {i}, ' for k, i in zip(ks, idx))})))"
                f" is not None else {v}_b{bg})")
