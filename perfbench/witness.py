"""Independent replay of an `unsafe` witness.

The initial state comes from the model's values; the loop runs concretely
for the model's n; init is evaluated on the initial state and post on the
final one.  Nothing here uses the accelerated transition, lamsolve or the
solver.  It has its own evaluator with in-place array cells because
``loop.run_n`` copies a whole array on every store: on the overview example's
witness (n = 10000) it needs 17.6 s, this replay well under a second.

Array values are an affine background, from a FiniteFn or a closed lambda
the model derived, plus finitely many cells that differ from it.  Two arrays
are equal when they agree on every such cell and on arity + 1 far points
that pin down the backgrounds.
"""

from __future__ import annotations

import itertools

from loopacc.expr import (
    And, Bin, BoolConst, Const, FiniteFn, Ite, Lam, Not, Or, Rel, Sel, State, Var,
    eval_expr, free_vars,
)
from loopacc.recurrence import N

FAR = 10 ** 9


class ReplayError(Exception):
    pass


class Cells:
    def __init__(self, arity: int, read, support):
        self.arity = arity
        self.read = read
        self.support = set(support)
        self.writes: dict[tuple[int, ...], int] = {}

    def __call__(self, point: tuple[int, ...]) -> int:
        if point in self.writes:
            return self.writes[point]
        return self.read(point)

    def probe_points(self):
        far = (FAR,) * self.arity
        yield far
        for d in range(self.arity):
            yield far[:d] + (FAR + 1,) + far[d + 1:]
        yield from self.support
        yield from self.writes


def _consts(e, out: set[int]):
    if isinstance(e, Const):
        out.add(e.value)
    elif isinstance(e, (Bin, Rel)):
        _consts(e.left, out)
        _consts(e.right, out)
    elif isinstance(e, Ite):
        for part in (e.cond, e.then, e.other):
            _consts(part, out)
    elif isinstance(e, (And, Or)):
        for a in e.args:
            _consts(a, out)
    elif isinstance(e, Not):
        _consts(e.arg, out)
    elif isinstance(e, Sel):
        for i in e.idx:
            _consts(i, out)


def _array_value(x: Var, model) -> Cells:
    if x.name in model.arrays:
        fn = model.arrays[x.name]
        return Cells(x.arity, fn, [p for p, _ in fn.overrides])
    val = model.derived.get(x.name)
    if val is None:
        return Cells(x.arity, FiniteFn.const(x.arity, 0), ())
    if isinstance(val, Lam) and not free_vars(val):
        points: set[int] = set()
        _consts(val.body, points)
        support = itertools.product(sorted(points), repeat=x.arity)
        return Cells(x.arity, eval_expr(val, State()), support)
    raise ReplayError(f"the model leaves {x.name} as an open term")


def initial_state(pf, model) -> dict[Var, object]:
    env: dict[Var, object] = {}
    for name, arity in sorted(pf.declarations.items()):
        x = Var(name, arity)
        if arity:
            env[x] = _array_value(x, model)
        elif name in model.scalars:
            env[x] = model.scalars[name]
        elif isinstance(model.derived.get(name), int):
            env[x] = model.derived[name]
        elif name in model.derived:
            raise ReplayError(f"the model leaves {name} as an open term")
        else:
            env[x] = 0  # unconstrained: any value works, lamsolve picks 0 too
    return env


def value(e, env):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Bin):
        left, right = value(e.left, env), value(e.right, env)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if right == 0:
            raise ReplayError("division by zero")
        return left // right
    if isinstance(e, Sel):
        if not isinstance(e.arr, Var):
            raise ReplayError("lambda term in a problem formula")
        v = env[e.arr]
        return v if e.arr.arity == 0 else v(tuple(value(i, env) for i in e.idx))
    if isinstance(e, Ite):
        return value(e.then, env) if holds(e.cond, env) else value(e.other, env)
    raise ReplayError(f"cannot evaluate {e!r}")


def holds(f, env) -> bool:
    if isinstance(f, BoolConst):
        return f.value
    if isinstance(f, Not):
        return not holds(f.arg, env)
    if isinstance(f, And):
        return all(holds(a, env) for a in f.args)
    if isinstance(f, Or):
        return any(holds(a, env) for a in f.args)
    if not isinstance(f, Rel):
        raise ReplayError(f"not a formula: {f!r}")
    if isinstance(f.left, Var):  # array (dis)equality between variables
        p, q = env[f.left], env[f.right]
        same = all(p(pt) == q(pt) for pt in {*p.probe_points(), *q.probe_points()})
        return same if f.op == "=" else not same
    left, right = value(f.left, env), value(f.right, env)
    if f.op == "divides":
        return right == 0 if left == 0 else right % left == 0
    return {"<": left < right, "<=": left <= right, ">": left > right,
            ">=": left >= right, "=": left == right, "!=": left != right}[f.op]


def run(loop, env, n: int):
    """Run n iterations in place; every one must find the guard true."""
    for it in range(1, n + 1):
        if not holds(loop.guard, env):
            raise ReplayError(f"guard false before iteration {it} of {n}")
        pending = [(lv.arr, tuple(value(i, env) for i in lv.idx), value(r, env))
                   for lv, r in zip(loop.lvalues, loop.rhs)]
        if len({(x, pt) for x, pt, _ in pending}) != len(pending):
            raise ReplayError(f"two writes to one cell in iteration {it}")
        for x, pt, v in pending:
            if x.arity == 0:
                env[x] = v
            else:
                env[x].writes[pt] = v


def replay(pf, model) -> str | None:
    """None when the witness reaches post from init; otherwise the reason."""
    try:
        env = initial_state(pf, model)
        n = model.scalars.get(N.name, model.derived.get(N.name))
        if not isinstance(n, int) or n < 1:
            return f"model has no iteration count n >= 1 (n = {n})"
        for f in pf.init:
            if not holds(f, env):
                return f"init {f!r} is false in the initial state"
        run(pf.loop, env, n)
        for f in pf.post:
            if not holds(f, env):
                return f"post {f!r} is false after {n} iterations"
    except ReplayError as exc:
        return str(exc)
    return None
