import random

import pytest

from loopacc.backend import BackendSession, SatResult
from loopacc.expr import Bin, Const, FiniteFn, Rel, Sel, State, Var, sv
from loopacc.loop import Loop

I, K, J, N = Var("i"), Var("k"), Var("j"), Var("n")
A, B = Var("a", 1), Var("b", 1)


def plus(e, c: int):
    if c == 0:
        return e
    if c > 0:
        return Bin("+", e, Const(c))
    return Bin("-", e, Const(-c))


def swap_loop() -> Loop:
    # while i < k do (i, a[i+1], a[i]) <- (i+1, a[i], a[i+1])
    return Loop(
        guard=Rel("<", sv(I), sv(K)),
        lvalues=(Sel(I, ()), Sel(A, (plus(sv(I), 1),)), Sel(A, (sv(I),))),
        rhs=(plus(sv(I), 1), Sel(A, (sv(I),)), Sel(A, (plus(sv(I), 1),))),
    )


def decrement_loop() -> Loop:
    return Loop(
        guard=Rel(">", sv(I), Const(0)),
        lvalues=(Sel(I, ()),),
        rhs=(Bin("-", sv(I), Const(1)),),
    )


def overview_loop() -> Loop:
    # while i < k do (a[i+1], i) <- (a[i], i+1)
    return Loop(
        guard=Rel("<", sv(I), sv(K)),
        lvalues=(Sel(A, (plus(sv(I), 1),)), Sel(I, ())),
        rhs=(Sel(A, (sv(I),)), plus(sv(I), 1)),
    )


def mixing_loop() -> Loop:
    # while i < k do (i, a[i+1]) <- (i+1, a[i] + a[i+1])
    return Loop(
        guard=Rel("<", sv(I), sv(K)),
        lvalues=(Sel(I, ()), Sel(A, (plus(sv(I), 1),))),
        rhs=(plus(sv(I), 1),
             Bin("+", Sel(A, (sv(I),)), Sel(A, (plus(sv(I), 1),)))),
    )


def identity_state(i=0, k=5) -> State:
    return State({I: i, K: k, A: FiniteFn.identity()})


def same_function(f: FiniteFn, g: FiniteFn) -> bool:
    """Whether two finite functions agree everywhere: the same background,
    and the same value at every point either of them overrides."""
    points = {p for p, _ in f.overrides + g.overrides}
    return ((f.arity, f.base, f.coeffs) == (g.arity, g.base, g.coeffs)
            and all(f(p) == g(p) for p in points))


def random_array(rnd: random.Random, arity=1, span=8) -> FiniteFn:
    base = FiniteFn.const(arity, rnd.randint(-3, 3))
    for _ in range(rnd.randint(0, 6)):
        pt = tuple(rnd.randint(-span, span) for _ in range(arity))
        base = base.store(pt, rnd.randint(-9, 9))
    return base


@pytest.fixture(scope="session")
def session():
    with BackendSession(timeout=10.0) as s:
        yield s


class UnknownSession(BackendSession):
    """A session whose solver answers every check-sat ``unknown`` (reason
    timeout): only what the simplifier decides is decided."""

    def check(self, formulas, want_model: bool = True) -> SatResult:
        return SatResult("unknown", diagnostic="unknown", reason="timeout")


@pytest.fixture
def unknown_session():
    with UnknownSession() as s:
        yield s
