"""Closure set, monotonicity, lvalue classes, a-solvability; the stability
property of displacing lvalues and mirror symmetry."""

import random

from loopacc.classify import (
    LvalueClass, Monotonicity, check_a_solvable, classify_lvalue, compute_L,
    monotonicity,
)
from loopacc.expr import Bin, Const, Rel, Sel, State, Var, eval_expr, sv
from loopacc.loop import Loop, build_up, run_n, up_pow

from conftest import A, B, I, J, K, decrement_loop, mixing_loop, plus, random_array, swap_loop


class TestComputeL:
    def test_swap(self):
        L = compute_L(swap_loop())
        assert set(L) == {Sel(I, ()), Sel(A, (sv(I),)), Sel(A, (plus(sv(I), 1),))}

    def test_constant_rhs_empty(self):
        loop = Loop(Rel("<", sv(I), sv(K)), (Sel(A, (sv(I),)),), (Const(7),))
        # the write index reads i, but rhs lvalues drive the closure: 7 has none
        assert compute_L(loop) == []

    def test_nested_index_closure(self):
        # rhs a[b[j]] pulls in b[j] and then j
        loop = Loop(Rel("<", sv(J), sv(K)),
                    (Sel(I, ()),),
                    (Sel(A, (Sel(B, (sv(J),)),)),))
        L = set(compute_L(loop))
        assert L == {Sel(A, (Sel(B, (sv(J),)),)), Sel(B, (sv(J),)), Sel(J, ())}


class TestMonotonicity:
    def test_swap_array_increasing(self, session):
        loop = swap_loop()
        assert monotonicity(loop, A, build_up(loop), session) == Monotonicity.INCREASING

    def test_scalar_both(self, session):
        loop = swap_loop()
        assert monotonicity(loop, I, build_up(loop), session) == Monotonicity.BOTH

    def test_decreasing_writes(self, session):
        loop = Loop(Rel(">", sv(I), Const(0)),
                    (Sel(I, ()), Sel(A, (sv(I),))),
                    (Bin("-", sv(I), Const(1)), Const(0)))
        assert monotonicity(loop, A, build_up(loop), session) == Monotonicity.DECREASING

    def test_lexicographic_two_dim(self, session):
        m = Var("m", 2)
        loop = Loop(Rel("<", sv(I), sv(K)),
                    (Sel(I, ()), Sel(m, (sv(I), Bin("-", Const(0), sv(I))))),
                    (plus(sv(I), 1), Const(1)))
        # index (i, -i): first component grows, so lexicographically increasing
        assert monotonicity(loop, m, build_up(loop), session) == Monotonicity.INCREASING

    def test_inconclusive_backend_is_named(self, session, unknown_session):
        # a[i div 2] grows with i, which only the solver shows; a backend that
        # answers unknown must not make it "not monotonic"
        loop = Loop(Rel("<", sv(I), sv(K)),
                    (Sel(A, (Bin("div", sv(I), Const(2)),)), Sel(I, ())),
                    (Const(0), plus(sv(I), 1)))
        v = check_a_solvable(loop, session)
        assert v.a_solvable and v.monotone[A] == Monotonicity.INCREASING
        assert monotonicity(loop, A, build_up(loop), unknown_session) is None
        v = check_a_solvable(loop, unknown_session)
        assert not v.a_solvable
        assert v.reason == "backend inconclusive on the monotonicity of a"


class TestClassify:
    def test_swap_labels(self, session):
        loop = swap_loop()
        up = build_up(loop)
        ai = classify_lvalue(loop, Sel(A, (sv(I),)), Monotonicity.INCREASING, up, session)
        assert ai.label == LvalueClass.INDUCTIVE
        ai1 = classify_lvalue(loop, Sel(A, (plus(sv(I), 1),)), Monotonicity.INCREASING, up,
                              session)
        assert ai1.label == LvalueClass.DISPLACING
        scalar = classify_lvalue(loop, Sel(I, ()), Monotonicity.BOTH, up, session)
        assert scalar.label == LvalueClass.INDUCTIVE

    def test_unwritten_is_trivial(self, session):
        loop = swap_loop()
        up = build_up(loop)
        c = classify_lvalue(loop, Sel(K, ()), Monotonicity.BOTH, up, session)
        assert c.label == LvalueClass.TRIVIAL

    def test_unwritten_array_with_written_index(self, session):
        # b[i] with b unwritten but i written: reads a written variable, and
        # vacuously satisfies the displacing comparison
        loop = swap_loop()
        up = build_up(loop)
        c = classify_lvalue(loop, Sel(B, (sv(I),)), Monotonicity.BOTH, up, session)
        assert c.label == LvalueClass.DISPLACING

    def test_inconclusive_backend_leaves_it_unclassifiable(self, session, unknown_session):
        # i < 2*((i+1) div 2) + 2 holds, but only the solver shows it
        read = Sel(A, (Bin("+", Bin("*", Const(2), Bin("div", sv(I), Const(2))), Const(2)),))
        loop = Loop(Rel("<", sv(I), sv(K)), (Sel(I, ()), Sel(A, (sv(I),))),
                    (plus(sv(I), 1), read))
        up = build_up(loop)
        c = classify_lvalue(loop, read, Monotonicity.INCREASING, up, session)
        assert c.label == LvalueClass.DISPLACING
        c = classify_lvalue(loop, read, Monotonicity.INCREASING, up, unknown_session)
        assert (c.label, c.justification) == (LvalueClass.UNCLASSIFIABLE, "backend inconclusive")


class TestASolvable:
    def test_swap(self, session):
        v = check_a_solvable(swap_loop(), session)
        assert v.a_solvable
        assert v.rhs_tags == ["a", "a", "b"]

    def test_mixing_rejected(self, session):
        v = check_a_solvable(mixing_loop(), session)
        assert not v.a_solvable
        assert v.reason.startswith("mixed inductive/displacing in Lval(r_")

    def test_scalar_only(self, session):
        v = check_a_solvable(decrement_loop(), session)
        assert v.a_solvable and v.rhs_tags == ["a"]

    def test_non_monotonic_rejected(self, session):
        # i flips sign every iteration, so the write index a[i] oscillates
        loop = Loop(Rel("<", sv(I), sv(K)),
                    (Sel(I, ()), Sel(A, (sv(I),))),
                    (Bin("-", Const(0), sv(I)), Const(1)))
        v = check_a_solvable(loop, session)
        assert not v.a_solvable
        assert "monotonic" in v.reason


class TestStability:
    def test_displacing_cells_untouched_before_read(self):
        # x[up^n(r)] = up^m(x)[up^n(r)] for m <= n <= 5: the cell a displacing
        # lvalue reads in iteration n was never written in iterations <= m
        rnd = random.Random(13)
        loop = swap_loop()
        up = build_up(loop)
        lv = Sel(A, (plus(sv(I), 1),))  # displacing
        for _ in range(8):
            s = State({I: rnd.randint(-2, 2), K: 30, A: random_array(rnd)})
            for n in range(0, 6):
                idx_expr = up_pow(lv.idx[0], n, up)
                cell = eval_expr(idx_expr, s)
                for m in range(0, n + 1):
                    r = run_n(loop, s, m)
                    assert r.state[A]((cell,)) == s[A]((cell,))

    def test_trivial_fixed_under_up(self):
        up = build_up(swap_loop())
        lv = Sel(B, (Const(3),))
        for n in range(6):
            assert up_pow(lv, n, up) == lv


def _mirror_loop(loop: Loop) -> Loop:
    """Negate every array index while keeping scalar dynamics, turning an
    increasing write pattern into a decreasing one."""

    def neg(e):
        return Bin("-", Const(0), e)

    lvs, rhs = [], []
    for lv, r in zip(loop.lvalues, loop.rhs):
        if lv.arr.arity == 0:
            lvs.append(lv)
            rhs.append(r)
        else:
            lvs.append(Sel(lv.arr, tuple(neg(ix) for ix in lv.idx)))
            rhs.append(Const(0))
    return Loop(loop.guard, tuple(lvs), tuple(rhs))


def test_mirror_symmetry(session):
    # increasing corpus loop vs its index-negated counterpart: monotonicity
    # flips and the displacing classification is preserved
    loop = Loop(Rel("<", sv(I), sv(K)),
                (Sel(I, ()), Sel(A, (sv(I),))),
                (plus(sv(I), 1), Const(0)))
    mirrored = _mirror_loop(loop)
    assert monotonicity(loop, A, build_up(loop), session) == Monotonicity.INCREASING
    assert monotonicity(mirrored, A, build_up(mirrored), session) == Monotonicity.DECREASING
    up, mup = build_up(loop), build_up(mirrored)
    ahead = classify_lvalue(loop, Sel(A, (plus(sv(I), 1),)), Monotonicity.INCREASING, up, session)
    behind = classify_lvalue(mirrored, Sel(A, (Bin("-", Const(0), plus(sv(I), 1)),)),
                             Monotonicity.DECREASING, mup, session)
    assert ahead.label == behind.label == LvalueClass.DISPLACING
