"""Accelerated transitions: guard characterization, the Def-3 style
biconditional tested by enumeration, and the reachability encoding."""

import random
from pathlib import Path

import pytest

from loopacc.accel import (
    AcceleratedTransition, accelerate, conjuncts_of, encode_reachability, primed,
)
from loopacc.closedform import Failure, closed_form_of, closed_forms_all
from loopacc.expr import (
    And, Bin, BoolConst, Const, FiniteFn, Not, Or, Rel, Sel, State, Var,
    arity_of, eval_expr, eval_formula, sv,
)
from loopacc.loop import Loop, run_n
from loopacc.problem import parse_problem
from loopacc.recurrence import N
from loopacc.sexpr import to_text

from conftest import (
    A, I, K, decrement_loop, mixing_loop, overview_loop, plus, random_array,
    swap_loop,
)

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples_problems").glob("*.loop"))


def test_decrement_reference_formula(session):
    t = accelerate(decrement_loop(), session)
    ref = And((Rel(">", sv(N), Const(0)),
               Rel(">=", Bin("-", sv(I), sv(N)), Const(0)),
               Rel("=", sv(Var("i'")), Bin("-", sv(I), sv(N)))))
    assert session.is_valid(Or((Not(t.formula), ref)))
    assert session.is_valid(Or((Not(ref), t.formula)))


def test_swap_guard_reference_formula(session):
    t = accelerate(swap_loop(), session)
    target = Rel("<=", Bin("+", sv(I), sv(N)), sv(K))
    assert session.is_valid(Or((Not(t.guard_formula), target)))
    assert session.is_valid(Or((Not(target), t.guard_formula)))


def test_empty_guard_is_true(session):
    loop = Loop(BoolConst(True), (Sel(I, ()),), (plus(sv(I), 1),))
    t = accelerate(loop, session)
    assert t.guard_formula == BoolConst(True)


def test_forward_preserved_guard_kept_at_zero(session):
    # guard i >= 0 with i increasing: psi => psi[up], so psi itself is enough
    loop = Loop(Rel(">=", sv(I), Const(0)), (Sel(I, ()),), (plus(sv(I), 1),))
    t = accelerate(loop, session)
    assert t.guard_formula == Rel(">=", sv(I), Const(0))


def test_non_monotone_guard_fails(session):
    # guard 2 | i flips every iteration: neither direction implies the other
    loop = Loop(Rel("=", Bin("-", sv(I), Bin("*", Const(2), Bin("div", sv(I), Const(2)))), Const(0)),
                (Sel(I, ()),), (plus(sv(I), 1),))
    t = accelerate(loop, session)
    assert isinstance(t, Failure) and t.phase == "guard"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_an_undecided_guard_names_the_backend(path, session, unknown_session):
    # with a backend that answers unknown, every example but mixing.loop gets
    # through (Distinct) and classification on the simplifier alone
    loop = parse_problem(path).loop
    t = accelerate(loop, unknown_session)
    if path.name == "mixing.loop":  # rejected before the guard either way
        assert t == accelerate(loop, session)
    else:
        assert isinstance(accelerate(loop, session), AcceleratedTransition)
        assert t == Failure("guard", "backend inconclusive on guard monotonicity")


def test_mixing_loop_fails_classification(session):
    t = accelerate(mixing_loop(), session)
    assert isinstance(t, Failure) and t.phase == "classification"


def test_unwritten_variables_are_framed(session):
    t = accelerate(swap_loop(), session)
    lits = conjuncts_of(t.formula)
    assert Rel("=", sv(Var("k'")), sv(K)) in lits


# ---------------------------------------------------------------------------
# exactness of the accelerated relation, by enumeration


def _probe_points(arity: int):
    import itertools

    pts = list(itertools.product(range(-7, 11), repeat=arity))
    pts += [tuple(60 for _ in range(arity)), tuple(-60 for _ in range(arity))]
    return pts


def _transition_holds(t, s: State, s2: State, n: int) -> bool:
    env = {}
    for x in t.loop.variables():
        env[x] = s[x]
        env[primed(x)] = s2[x]
    env[N] = n
    st = State(env)
    for lit in conjuncts_of(t.formula):
        neg = isinstance(lit, Not)
        atom = lit.arg if neg else lit
        if isinstance(atom, Rel) and atom.op in ("=", "!=") and arity_of(atom.left) > 0:
            lfn = eval_expr(atom.left, st)
            rfn = eval_expr(atom.right, st)
            same = all(lfn(pt) == rfn(pt) for pt in _probe_points(arity_of(atom.left)))
            if isinstance(lfn, FiniteFn) and isinstance(rfn, FiniteFn):
                same = lfn.same_function(rfn)
            want = (atom.op == "=") != neg
            if same != want:
                return False
        else:
            if not eval_formula(lit, st):
                return False
    return True


def _down_loop():
    # decreasing writes: while i > -50 do (i, a[i]) <- (i-1, 3)
    return Loop(Rel(">", sv(I), Const(-50)),
                (Sel(I, ()), Sel(A, (sv(I),))),
                (Bin("-", sv(I), Const(1)), Const(3)))


def _twodim_loop():
    m2 = Var("m2", 2)
    return Loop(Rel("<", sv(I), sv(K)),
                (Sel(I, ()), Sel(m2, (Bin("*", Const(2), sv(I)), sv(I)))),
                (Bin("+", sv(I), Const(1)), Bin("+", sv(I), Const(7))))


@pytest.mark.parametrize("make", [decrement_loop, swap_loop, overview_loop,
                                  _down_loop, _twodim_loop])
def test_biconditional_enumeration(make, session):
    loop = make()
    t = accelerate(loop, session)
    assert not isinstance(t, Failure)
    rnd = random.Random(41)
    positives = negatives = 0
    for trial in range(8):
        scalars = {v: rnd.randint(-3, 3) for v in loop.variables() if v.arity == 0}
        if I in loop.variables():
            scalars[I] = rnd.randint(-1, 8)  # enough headroom for positive runs
        if K in loop.variables():
            scalars[K] = scalars.get(I, 0) + rnd.randint(3, 7)
        arrays = {v: random_array(rnd, v.arity) for v in loop.variables() if v.arity > 0}
        s = State({**{k: v for k, v in scalars.items() if Var(k.name, k.arity) in loop.variables()},
                   **arrays})
        for n in range(1, 5):
            r = run_n(loop, s, n)
            if r.stuck_at is not None and r.stuck_at < n:
                # the loop cannot run n times: the formula must reject every s'
                assert not _transition_holds(t, s, r.state, n)
                negatives += 1
                continue
            assert _transition_holds(t, s, r.state, n)
            positives += 1
            # perturbed final states must be rejected
            for x in sorted(loop.variables(), key=lambda v: v.name):
                if x.arity == 0:
                    wrong = r.state.bind({x: r.state[x] + 1})
                else:
                    wrong = r.state.bind({x: r.state[x].store((0,) * x.arity,
                                                              r.state[x]((0,) * x.arity) + 1)})
                assert not _transition_holds(t, s, wrong, n)
                negatives += 1
            # and a wrong iteration count (when it changes the state)
            r2 = run_n(loop, s, n + 1)
            if r2.stuck_at is None and r2.state[I] != r.state[I]:
                assert not _transition_holds(t, s, r2.state, n)
                negatives += 1
    assert positives >= 10 and negatives >= 20


def test_guard_characterization_agreement(session):
    # for a post-implies-pre atom, the emitted psi at iteration n-1 holds iff
    # psi held at every iteration k < n (enumerated up to n = 5)
    loop = swap_loop()
    t = accelerate(loop, session)
    rnd = random.Random(43)
    checked = 0
    for trial in range(12):
        i0 = rnd.randint(-2, 6)
        k0 = rnd.randint(i0 - 1, i0 + 6)
        s = State({I: i0, K: k0, A: random_array(rnd)})
        for n in range(1, 6):
            states = [s]
            ok = True
            for _ in range(n):
                from loopacc.loop import step

                nxt = step(loop, states[-1])
                if nxt is None:
                    ok = False
                    break
                states.append(nxt)
            all_guarded = ok  # guard held at iterations 0 .. n-1
            emitted = eval_formula(t.guard_formula, s.bind({N: n}))
            assert emitted == all_guarded, (i0, k0, n)
            checked += 1
    assert checked >= 40


# ---------------------------------------------------------------------------
# encoding


def test_encode_reachability_shape(session):
    t = accelerate(swap_loop(), session)
    pre = [Rel("=", sv(I), Const(0))]
    post = [Rel(">=", sv(I), sv(K)), Rel("!=", Sel(A, (sv(I),)), Const(7))]
    lits = encode_reachability(pre, t, post)
    # post is renamed to primed variables
    assert Rel(">=", sv(Var("i'")), sv(Var("k'"))) in lits
    assert Rel("=", sv(I), Const(0)) in lits
    assert all(not isinstance(l, (And, Or)) for l in lits)


def test_encode_keeps_a_disjunction_as_one_conjunct(session):
    t = accelerate(decrement_loop(), session)
    either = Or((Rel("=", sv(I), Const(0)), Rel("=", sv(I), Const(1))))
    lits = encode_reachability([either], t, [Not(And((either, either)))])
    renamed = Or((Rel("=", sv(Var("i'")), Const(0)), Rel("=", sv(Var("i'")), Const(1))))
    assert lits == [either, *conjuncts_of(t.formula), Not(And((renamed, renamed)))]


def test_post_false_is_unsat(session):
    from loopacc.lamsolve import solve

    t = accelerate(decrement_loop(), session)
    lits = encode_reachability([Rel("=", sv(I), Const(3))], t, [BoolConst(False)])
    assert solve(lits, session).status == "unsat"


def test_guard_lvalue_outside_the_closure_is_displaced(session):
    # i <- i+1, a[i] <- a[i+1]: a guard reading a[i+2] needs a closed form
    # the closure (i, a[i+1]) does not hold
    loop = Loop(BoolConst(True), (Sel(I, ()), Sel(A, (sv(I),))),
                (plus(sv(I), 1), Sel(A, (plus(sv(I), 1),))))
    forms = closed_forms_all(loop, session)
    lv = Sel(A, (plus(sv(I), 2),))
    assert lv not in forms.table
    cf = closed_form_of(lv, loop, forms.table, forms.verdict, session)
    assert to_text(cf) == "(select a (+ (+ i n) 2))"
    rnd = random.Random(7)
    for _ in range(4):
        s = State({I: rnd.randint(-3, 3), A: random_array(rnd)})
        for n in range(7):
            assert eval_expr(cf, s.bind({N: n})) == eval_expr(lv, run_n(loop, s, n).state)
