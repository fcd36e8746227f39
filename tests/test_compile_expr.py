"""compile_probe against eval_expr: the same value at each point, SKIP where
eval_expr raises EvalError, or the same other exception class, on generated
closed forms at random n and points (a scalar closed form as a
zero-parameter probe), on hand-built edge cases as lambda bodies, and on the
cases that leave its inline path; eval_expr and eval_formula against the
isinstance-chain reference interpreter in eval_reference.py on the same
trees."""

import random
from collections import Counter
from functools import reduce

import pytest

from loopacc.arrayform import closed_form_array
from loopacc.closedform import closed_forms_all
from loopacc import expr
from loopacc.expr import (
    _HOIST_DEPTH, FALSE, SKIP, And, ArityMismatch, Bin, BoolConst, Closure, Const, EvalError,
    FiniteFn, Ite, Lam, Not, Or, Rel, Sel, State, UnboundVariable, Var, compile_probe,
    eval_expr, eval_formula, sv,
)
from loopacc.gen import gen_loop
from loopacc.loop import build_up
from loopacc.oracle import random_state
from loopacc.recurrence import N

import eval_reference as ref
from conftest import A, B, I, J, K, plus
from test_expr import AR, SC, fuzz_state, gen_expr, gen_formula


def outcome(thunk):
    try:
        return "value", thunk()
    except Exception as exc:  # the class is what both evaluators must agree on
        return "raises", type(exc)


def probe_agrees(e, s: State, points):
    """The probe lists eval_expr's value at each point and SKIP exactly where
    that raises EvalError; any other exception propagates from the call."""
    ref = [outcome(lambda: eval_expr(e, s)(pt)) for pt in points]
    other = [v for kind, v in ref if kind == "raises" and not issubclass(v, EvalError)]
    kind, got = outcome(lambda: compile_probe(e)(s, points))
    if other:
        assert (kind, got) == ("raises", other[0]), e
        return got
    assert kind == "value", (e, got)
    assert got == [SKIP if kind == "raises" else v for kind, v in ref], e
    return got


def as_closures(s: State) -> State:
    """s with each array rebound to a Closure of the same values."""
    rebound = {}
    for x, _ in s.items():
        if x.arity:
            ps = tuple(Var(f"p{j}") for j in range(x.arity))
            rebound[x] = eval_expr(Lam(ps, Sel(x, tuple(map(sv, ps)))), s)
    return s.bind(rebound)


def generated(session):
    """The closed forms of generated loops in random states at random n: per
    state the table's entries, and each array lambda with 25 random points."""
    for seed in range(30):
        loop = gen_loop(seed).loop
        forms = closed_forms_all(loop, session)
        up = build_up(loop)
        lams = [closed_form_array(loop, x, forms.table, up)
                for x in sorted(loop.written_vars(), key=lambda v: v.name) if x.arity]
        rnd = random.Random(seed)
        for _ in range(4):
            s = random_state(loop, rnd).bind({N: rnd.randint(0, 10)})
            yield s, forms.table.entries.values(), [
                (lam, [tuple(rnd.randint(-12, 16) for _ in lam.params) for _ in range(25)])
                for lam in lams]


def test_generated_closed_forms_agree(session):
    """Each table entry as a zero-parameter probe, each array lambda at its
    points."""
    compared = 0
    for s, entries, lams in generated(session):
        for cf in entries:
            probe_agrees(Lam((), cf), s, [()])
            compared += 1
        for lam, pts in lams:
            probe_agrees(lam, s, pts)
            compared += len(pts)
    assert compared > 1000


S = State({I: 3, J: 0, K: -7, A: FiniteFn.identity({(2,): 40}), B: FiniteFn.const(1, 5)})
DEEP = 320
P = Var("p")  # the parameter an edge case is probed under; no edge case reads it


def chain(op, terms, right=False):
    if right:
        return reduce(lambda acc, t: Bin(op, t, acc), reversed(terms))
    return reduce(lambda acc, t: Bin(op, acc, t), terms)


EDGE_CASES = [
    (plus(sv(I), -5), -2),
    (Bin("div", Const(1), Const(0)), EvalError),
    (Bin("div", sv(I), sv(J)), EvalError),
    (Bin("div", Const(-7), Const(2)), -4),
    (Bin("div", Const(7), Const(-2)), -4),
    (Bin("div", sv(K), Const(3)), -3),
    (Bin("*", Bin("div", Const(-1), Const(2)), Const(5)), -5),
    (Rel("divides", Const(0), Const(0)), True),
    (Rel("divides", Const(0), Const(3)), False),
    (Rel("divides", sv(J), sv(I)), False),
    (Rel("divides", Const(-3), Const(6)), True),
    (Rel("divides", Const(4), sv(K)), False),
    (Sel(Lam((J,), Bin("+", sv(J), sv(I))), (Const(10),)), 13),
    (Sel(Lam((I, J), Bin("-", sv(I), sv(J))), (sv(J), sv(I))), -3),
    (Sel(Lam((J,), Sel(A, (sv(J),))), (Const(2),)), 40),
    (Sel(Lam((J,), Sel(Lam((I,), Bin("*", sv(I), sv(J))), (Const(4),))), (sv(I),)), 12),
    (Sel(A, (Sel(A, (Const(2),)),)), 40),
    (Sel(B, (Bin("div", Const(1), sv(J)),)), EvalError),
    (Rel("=", A, B), EvalError),
    (Rel("!=", Lam((J,), sv(J)), A), EvalError),
    (Rel("<", sv(I), sv(K)), False),
    (Rel("=", Sel(A, (Const(2),)), Const(40)), True),
    (sv(Var("zz")), UnboundVariable),
    (Sel(Var("zz", 1), (Const(0),)), UnboundVariable),
    (Bin("+", sv(Var("zz")), Bin("div", Const(1), Const(0))), UnboundVariable),
    (Bin("+", Bin("div", Const(1), Const(0)), sv(Var("zz"))), EvalError),
    (Sel(Var("zz", 1), (Bin("div", Const(1), Const(0)),)), UnboundVariable),
    (Ite(Rel("=", sv(J), Const(0)), Const(1), sv(Var("zz"))), 1),
    (Ite(Rel("!=", sv(J), Const(0)), Bin("div", Const(1), sv(J)), Const(-1)), -1),
    (And((Rel("!=", sv(J), Const(0)), Rel("=", Bin("div", Const(6), sv(J)), Const(3)))), False),
    (Or((Rel("=", sv(J), Const(0)), Rel("=", Bin("div", Const(6), sv(J)), Const(3)))), True),
    (And((Rel("=", sv(J), Const(0)), Rel("=", Bin("div", Const(6), sv(J)), Const(3)))), EvalError),
    (Not(And((Rel("<", sv(J), sv(I)), Rel(">", sv(I), sv(K))))), False),
    (And(()), True),
    (Or(()), False),
    (Ite(FALSE, sv(Var("zz")), Const(2)), 2),
    (Ite(Const(1), Const(1), Const(2)), TypeError),
    (Bin("^", Const(1), Const(2)), EvalError),
    (Rel("~", Const(1), Const(2)), EvalError),
    (BoolConst(True), True),
    (chain("+", [sv(I)] * DEEP), 3 * DEEP),
    (chain("+", [sv(I)] * DEEP, right=True), 3 * DEEP),
    (chain("-", [Const(1)] * DEEP + [Bin("div", Const(1), sv(J))]), EvalError),
    (reduce(lambda acc, _: Sel(A, (acc,)), range(DEEP), sv(I)), 3),
    (reduce(lambda acc, k: Ite(Rel("=", sv(I), Const(k)), Const(k), acc), range(DEEP),
            Const(-1)), 3),
    (Sel(Lam((J,), chain("+", [sv(J)] * DEEP)), (Const(2),)), 2 * DEEP),
    (And(tuple(Rel("<", chain("+", [sv(I)] * k), Const(10 ** 6)) for k in (1, DEEP))), True),
    (tuple.__new__(Sel, (Sel, A, ())), ArityMismatch),
    (tuple.__new__(Sel, (Sel, A, (Const(1), Const(2)))), ArityMismatch),
    (tuple.__new__(Sel, (Sel, Lam((J, K), sv(K)), (Const(1),))), ArityMismatch),
    (3, TypeError),
    ((Const, 1), TypeError),
    (tuple.__new__(Sel, (Sel, I, (Const(0),))), ArityMismatch),
]


@pytest.mark.parametrize("e, expected", EDGE_CASES)
def test_edge_cases_agree(e, expected):
    """Each case as a lambda body, in S and in S with its arrays rebound to
    Closures, which a compiled probe hands to the interpreter."""
    if not isinstance(expected, type):
        want = [expected]
    elif issubclass(expected, EvalError):
        want = [SKIP]
    else:
        want = expected
    for s in (S, as_closures(S)):
        assert probe_agrees(Lam((P,), e), s, [(0,)]) == want


@pytest.fixture
def interpreted(monkeypatch):
    """The expressions whose interpreted probe was run (the inline path runs
    none).  Every compiled probe builds its fallback, so runs are counted."""
    seen = []
    build = expr._interpreted

    def counting(e):
        probe = build(e)

        def run(s, points):
            seen.append(e)
            return probe(s, points)
        return run

    monkeypatch.setattr(expr, "_interpreted", counting)
    return seen


def test_probe_agrees_on_generated_closed_forms(interpreted, session):
    compared = 0
    for s, _, lams in generated(session):
        arrays = [x for x, _ in s.items() if x.arity]
        for lam, pts in lams:
            probe_agrees(lam, s, pts)
            assert not interpreted  # every array is a FiniteFn: the inline path
            probe_agrees(lam, as_closures(s), pts)
            probe_agrees(lam, s.without(arrays), pts)
            assert set(interpreted) == {lam}  # only this lambda was interpreted
            interpreted.clear()
            compared += len(pts)
    assert compared > 1000


M = Var("m", 2)
S2 = S.bind({M: FiniteFn.affine(2, 1, [2, -1], {(1, 2): 9, (0, 0): -4})})
PTS = [(j,) for j in range(-4, 6)]
PTS2 = [(j, k) for j in range(-2, 4) for k in range(-2, 4)]


@pytest.mark.parametrize("lam, points, inline", [
    (Lam((J,), Bin("+", Sel(A, (sv(J),)), Sel(B, (Bin("*", sv(J), sv(I)),)))), PTS, True),
    (Lam((J, K), Bin("-", Sel(M, (sv(K), sv(J))), Sel(M, (sv(J), sv(J))))), PTS2, True),
    (Lam((J,), Sel(A, (Sel(A, (Sel(A, (sv(J),)),)),))), PTS, True),
    (Lam((J,), Bin("div", Const(12), plus(sv(J), -2))), PTS, True),
    (Lam((J,), Sel(A, (Bin("div", sv(I), sv(J)),))), PTS, True),
    (Lam((J, K), Ite(Rel("=", sv(J), sv(K)), Bin("div", sv(K), sv(J)), Sel(M, (sv(K), sv(I))))),
     PTS2, True),
    (Lam((J,), Bin("+", sv(J), sv(Var("zz")))), PTS, False),
    (Lam((J,), Sel(Var("zz", 1), (sv(J),))), PTS, False),
    # the deepest chain of reads that is compiled; a deeper one is interpreted
    (Lam((J,), reduce(lambda acc, _: Sel(A, (acc,)), range(_HOIST_DEPTH - 2), sv(J))), PTS, True),
    (Lam((J,), reduce(lambda acc, _: Sel(A, (acc,)), range(DEEP), sv(J))), PTS, False),
    (Lam((J,), chain("+", [Sel(A, (sv(J),))] * DEEP)), PTS, False),
    (Lam((J,), Sel(Lam((K,), Bin("div", sv(K), sv(J))), (Sel(A, (sv(J),)),))), PTS, False),
    (Lam((J,), Sel(Lam((K,), Sel(B, (sv(K),))), (sv(J),))), PTS, False),
    (A, PTS, False),
    (Var("zz", 1), PTS, False),
    # an unbound variable is raised only where it is read
    (Lam((J,), Ite(Rel("<", sv(J), Const(0)), sv(Var("zz")), sv(J))), PTS, False),
    # the parameter j shadows the state's j; i still comes from the state
    (Lam((J,), Bin("+", sv(J), Bin("*", Const(10), sv(I)))), PTS, True),
])
def test_probe_agrees(lam, points, inline, interpreted):
    probe_agrees(lam, S2, points)
    assert (not interpreted) == inline
    probe_agrees(lam, as_closures(S2), points)


def test_probe_skips_the_points_that_do_not_evaluate():
    got = compile_probe(Lam((J,), Bin("div", Const(12), plus(sv(J), -2))))(S, PTS)
    assert [pt for pt, v in zip(PTS, got) if v is SKIP] == [(2,)]
    got = compile_probe(Lam((J,), Sel(A, (Bin("div", sv(I), sv(J)),))))(S, PTS)
    assert [pt for pt, v in zip(PTS, got) if v is SKIP] == [(0,)]
    assert got[PTS.index((1,))] == 3 and got[PTS.index((-1,))] == -3


def test_probe_with_a_wrong_index_count_raises():
    # only a node built around Sel's own check can have the wrong index count
    two = tuple.__new__(Sel, (Sel, M, (sv(J),)))
    one = tuple.__new__(Sel, (Sel, Lam((J, K), sv(K)), (sv(J),)))
    for lam in (Lam((J,), two), Lam((J,), Bin("+", Sel(A, (sv(J),)), two)), Lam((J,), one)):
        assert probe_agrees(lam, S2, PTS) is ArityMismatch


# ---------------------------------------------------------------------------
# eval_expr against the reference interpreter


def matches_reference(e, s: State, points=(), formula=False):
    """eval_expr (eval_formula when formula) and the reference give the same
    outcome on e in s; a function value gives the same outcome at every point,
    and so does a lambda's body with its parameters bound to the point."""
    ours, theirs = (eval_formula, ref.eval_formula) if formula else (eval_expr, ref.eval_expr)
    kind, want = outcome(lambda: theirs(e, s))
    kind2, got = outcome(lambda: ours(e, s))
    assert kind2 == kind, (e, want, got)
    if kind == "value" and isinstance(want, (FiniteFn, Closure)):
        for pt in points:
            assert outcome(lambda: got(pt)) == outcome(lambda: want(pt)), (e, pt)
            if isinstance(e, Lam) and len(pt) == len(e.params):
                inner = s.without(e.params).bind(dict(zip(e.params, map(int, pt))))
                assert (outcome(lambda: eval_expr(e.body, inner))
                        == outcome(lambda: ref.eval_expr(e.body, inner))), (e, pt)
        return kind
    assert got == want and type(got) is type(want), e
    return kind


def test_evaluator_matches_the_reference_on_generated_trees(session):
    kinds = Counter()
    for s, entries, lams in generated(session):
        for cf in entries:
            kinds[matches_reference(cf, s)] += 1
        for lam, pts in lams:
            kinds[matches_reference(lam, s, pts)] += len(pts)
    rnd = random.Random(11)
    for _ in range(1500):  # beta-redexes, nested lambdas and formulas of every kind
        s = fuzz_state(rnd, SC, AR)
        if rnd.random() < 0.3:  # reading the dropped variable raises UnboundVariable
            s = s.without([rnd.choice(SC + AR)])
        e = gen_expr(rnd, 4, SC, AR)
        kinds[matches_reference(e, s)] += 1
        kinds[matches_reference(Bin("div", e, gen_expr(rnd, 2, SC, AR)), s)] += 1
        kinds[matches_reference(Lam((J,), e), s, [(rnd.randint(-9, 9),), (1, 2)])] += 1
        kinds[matches_reference(gen_formula(rnd, 3, SC, AR), s, formula=True)] += 1
    assert kinds["value"] > 8000 and kinds["raises"] > 500


@pytest.mark.parametrize("e, expected", EDGE_CASES)
def test_evaluator_matches_the_reference_on_edge_cases(e, expected):
    matches_reference(e, S)
    matches_reference(e, S, formula=True)  # a node that is no formula raises TypeError


def test_evaluator_raises_as_the_reference_on_non_nodes():
    for e, formula, exc in [(3, False, TypeError), (3, True, TypeError),
                            ((Const, 1), False, TypeError),
                            ((Rel, "<", Const(1), Const(2)), True, TypeError),
                            (Const(1), True, TypeError), (sv(I), True, TypeError)]:
        assert matches_reference(e, S, formula=formula) == "raises"
        with pytest.raises(exc):
            (eval_formula if formula else eval_expr)(e, S)
