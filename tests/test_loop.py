"""Loop model: update substitution, transition/interpreter, (Distinct)
validation, and the up_pow/run_n agreement invariant."""

import random

import pytest

from loopacc.expr import (
    Bin, Const, FiniteFn, Lam, Rel, Sel, State, eval_expr, sv,
)
from loopacc.loop import (
    Loop, LoopError, build_up, run_n, step, up_pow, validate_loop,
)
from loopacc.simplify import simplify

from conftest import (
    A, B, I, J, K, decrement_loop, identity_state, plus, random_array, same_function, swap_loop,
)


class TestBuildUp:
    def test_swap_scalar(self):
        up = build_up(swap_loop())
        assert up.of(I) == plus(sv(I), 1)

    def test_swap_array_is_ite_chain(self):
        up = build_up(swap_loop())
        lam = up.of(A)
        assert isinstance(lam, Lam)
        # evaluates like the read-over-write nested ite: j=i+1 -> a[i], j=i -> a[i+1], else a[j]
        s = identity_state(i=0)
        fn = eval_expr(lam, s)
        assert fn((1,)) == 0 and fn((0,)) == 1 and fn((4,)) == 4

    def test_unwritten_is_identity(self):
        up = build_up(swap_loop())
        assert up.of(K) == sv(K)
        assert up.of(B) == B


class TestStep:
    def test_swap_transition_example(self):
        s = identity_state(i=0, k=5)
        s1 = step(swap_loop(), s)
        assert s1[I] == 1 and s1[K] == 5
        fn = s1[A]
        assert fn((1,)) == 0 and fn((0,)) == 1
        for j in (-2, 2, 3, 7):
            assert fn((j,)) == j

    def test_guard_violation_is_stuck(self):
        s = identity_state(i=5, k=5)
        assert step(swap_loop(), s) is None

    def test_decrement(self):
        s = State({I: 1})
        assert step(decrement_loop(), s)[I] == 0

    def test_step_matches_update_substitution(self):
        # direct cell updates agree with evaluating up(x)
        rnd = random.Random(0)
        loop = swap_loop()
        up = build_up(loop)
        for _ in range(25):
            s = State({I: rnd.randint(-3, 3), K: 50, A: random_array(rnd)})
            s1 = step(loop, s)
            lam_val = eval_expr(up.of(A), s)
            for c in range(-6, 10):
                assert s1[A]((c,)) == lam_val((c,))
            assert s1[I] == eval_expr(up.of(I), s)

    def test_determinism(self):
        s = identity_state()
        a = step(swap_loop(), s)
        b = step(swap_loop(), s)
        assert a[I] == b[I] and same_function(a[A], b[A])

    def test_permuting_updates_is_irrelevant(self):
        loop = swap_loop()
        perm = Loop(loop.guard,
                    (loop.lvalues[2], loop.lvalues[0], loop.lvalues[1]),
                    (loop.rhs[2], loop.rhs[0], loop.rhs[1]))
        rnd = random.Random(4)
        for _ in range(20):
            s = State({I: rnd.randint(-2, 2), K: 9, A: random_array(rnd)})
            s1, s2 = step(loop, s), step(perm, s)
            assert s1[I] == s2[I]
            assert same_function(s1[A], s2[A])


class TestRunN:
    def test_three_swaps_rotate(self):
        r = run_n(swap_loop(), identity_state(i=0, k=3), 3)
        assert r.stuck_at is None
        want = {0: 1, 1: 2, 2: 3, 3: 0}
        for c in range(-2, 6):
            assert r.state[A]((c,)) == want.get(c, c)

    def test_zero_iterations(self):
        s = identity_state()
        r = run_n(swap_loop(), s, 0)
        assert r.state is s and r.completed == 0

    def test_stuck_reporting(self):
        r = run_n(decrement_loop(), State({I: 2}), 5)
        assert r.stuck_at == 2 and r.state[I] == 0

    def test_write_log(self):
        r = run_n(swap_loop(), identity_state(i=0, k=3), 2)
        a_writes = [(w.iteration, w.point) for w in r.writes if w.var == A]
        assert a_writes == [(1, (1,)), (1, (0,)), (2, (2,)), (2, (1,))]

    def test_aliasing_update_raises(self):
        bad = Loop(Rel("<", sv(I), sv(K)),
                   (Sel(A, (sv(I),)), Sel(A, (sv(J),))),
                   (Const(0), Const(1)))
        with pytest.raises(LoopError):
            step(bad, State({I: 2, J: 2, K: 9, A: FiniteFn.identity()}))


class TestUpPow:
    def test_swap_examples(self):
        up = build_up(swap_loop())
        assert up_pow(sv(I), 2, up) == plus(sv(I), 2)
        assert up_pow(Sel(A, (plus(sv(I), 1),)), 1, up) == Sel(A, (plus(sv(I), 2),))
        e = Bin("+", sv(I), Const(5))
        assert up_pow(e, 0, up) == simplify(e)

    def test_up_pow_agrees_with_run_n(self):
        # eval(up^n(x), s) == run_n(s, n)(x), probed on >= 20 indices, n <= 8
        rnd = random.Random(9)
        loop = swap_loop()
        up = build_up(loop)
        for trial in range(6):
            s = State({I: rnd.randint(-2, 2), K: 40, A: random_array(rnd)})
            for n in range(0, 9):
                r = run_n(loop, s, n)
                assert r.stuck_at is None
                assert eval_expr(up_pow(sv(I), n, up), s) == r.state[I]
                lam = up_pow(Sel(A, (sv(J),)), n, up)  # open cell expression
                for c in range(-8, 14):
                    got = eval_expr(lam, s.bind({J: c}))
                    assert got == r.state[A]((c,))


class TestValidate:
    def test_swap_ok(self, session):
        assert validate_loop(swap_loop(), session).ok

    def test_single_lvalue_ok(self, session):
        assert validate_loop(decrement_loop(), session).ok

    def test_potential_alias_rejected(self, session):
        bad = Loop(Rel("=", Sel(A, (sv(J),)), Const(0)),
                   (Sel(A, (sv(I),)), Sel(A, (sv(J),))),
                   (Const(0), Const(1)))
        v = validate_loop(bad, session)
        assert not v.ok and not v.inconclusive
        assert v.violation == (0, 1)

    def test_inconclusive_when_the_backend_is(self, unknown_session):
        bad = Loop(Rel("<", sv(I), sv(K)),
                   (Sel(A, (sv(I),)), Sel(A, (sv(J),))),
                   (Const(0), Const(1)))
        v = validate_loop(bad, unknown_session)
        assert not v.ok and v.inconclusive
