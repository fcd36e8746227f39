"""Closed-form table: worked examples, the three-way oracle (closed form vs
symbolic n-fold update vs interpreter), the n:=0 collapse, and pick-step
progress."""

import random

import pytest

from loopacc import closedform
from loopacc.closedform import Failure, closed_forms_all
from loopacc.expr import Bin, Const, Sel, State, eval_expr, substitute, sv
from loopacc.loop import Loop, Rel, run_n, up_pow
from loopacc.recurrence import N, RecurrenceError
from loopacc.simplify import simplify

from conftest import A, B, I, J, K, decrement_loop, mixing_loop, plus, random_array, swap_loop


def test_swap_table():
    cf = closed_forms_all(swap_loop())
    t = cf.table
    assert t.of(Sel(I, ())) == Bin("+", sv(I), sv(N))
    assert t.of(Sel(A, (sv(I),))) == Sel(A, (sv(I),))
    # a[i+1] -> a[i+n+1] modulo term order
    entry = t.of(Sel(A, (plus(sv(I), 1),)))
    assert simplify(Bin("-", entry.idx[0], Bin("+", Bin("+", sv(I), sv(N)), Const(1)))) == Const(0)


def test_decrement_inductive():
    cf = closed_forms_all(decrement_loop())
    got = cf.table.at(Sel(I, ()), 5)
    assert got == Bin("-", sv(I), Const(5))
    # oracle at n = 1..5
    for n in range(1, 6):
        s = State({I: 10})
        r = run_n(decrement_loop(), s, n)
        assert eval_expr(cf.table.at(Sel(I, ()), n), s) == r.state[I]


def test_mixing_fails_classification():
    out = closed_forms_all(mixing_loop())
    assert isinstance(out, Failure) and out.phase == "classification"


def test_trivial_entries():
    # b[c] with b, c unwritten stays itself
    loop = Loop(Rel("<", sv(I), sv(K)),
                (Sel(I, ()),),
                (Bin("+", sv(I), Sel(B, (Const(3),))),))
    cf = closed_forms_all(loop)
    assert cf.table.of(Sel(B, (Const(3),))) == Sel(B, (Const(3),))


def test_two_counter_displacing():
    # j advances by 2: reading a[j+2] is displacing with closed form a[j+2n+2]
    loop = Loop(Rel("<", sv(J), sv(K)),
                (Sel(J, ()), Sel(A, (sv(J),))),
                (plus(sv(J), 2), Sel(A, (plus(sv(J), 2),))))
    cf = closed_forms_all(loop)
    entry = cf.table.of(Sel(A, (plus(sv(J), 2),)))
    want = Bin("+", Bin("+", sv(J), Bin("*", Const(2), sv(N))), Const(2))
    assert simplify(Bin("-", entry.idx[0], want)) == Const(0)


def test_def8_three_way_agreement():
    # eval(l^(n)[n:=k], s) == eval of up^k(l) in s == interpreter probe
    rnd = random.Random(37)
    loop = swap_loop()
    cf = closed_forms_all(loop)
    for _ in range(6):
        s = State({I: rnd.randint(-2, 2), K: 40, A: random_array(rnd)})
        for n in range(0, 9):
            r = run_n(loop, s, n)
            for lv, entry in cf.table.items():
                via_table = eval_expr(substitute(entry, {N: Const(n)}), s)
                via_up = eval_expr(up_pow(loop, lv, n), s)
                via_run = eval_expr(lv, r.state)
                assert via_table == via_up == via_run


def test_n0_collapse_syntactic():
    cf = closed_forms_all(swap_loop())
    for lv, entry in cf.table.items():
        assert simplify(substitute(entry, {N: Const(0)})) == simplify(lv)


def test_empty_update_table():
    loop = Loop(Rel("<", sv(I), sv(K)), (Sel(J, ()),), (Const(5),))
    cf = closed_forms_all(loop)
    assert list(cf.table.items()) == []  # rhs has no lvalues


def test_pick_progress_on_chained_displacing():
    # a[b[j]] where b[j] is itself displacing-resolvable through j
    loop = Loop(Rel("<", sv(J), sv(K)),
                (Sel(J, ()), Sel(A, (sv(J),)), Sel(B, (sv(J),))),
                (plus(sv(J), 1),
                 Sel(A, (Sel(B, (plus(sv(J), 1),)),)),
                 Const(7)))
    cf = closed_forms_all(loop)
    if isinstance(cf, Failure):
        # a[b[j+1]]'s index reads b[j+1], which is inductive; acceptable here
        # is either a full table or a classification failure, but never a
        # pick-step livelock
        assert cf.phase in ("classification", "rec")
    else:
        assert all(lv in cf.table for lv in cf.verdict.closure)


def test_only_recurrence_errors_become_failures(monkeypatch):
    def raising(exc):
        def build_rec(*args, **kwargs):
            raise exc
        return build_rec

    monkeypatch.setattr(closedform, "build_rec", raising(RecurrenceError("no matching write")))
    assert closed_forms_all(decrement_loop()) == Failure("rec", "no matching write")
    monkeypatch.setattr(closedform, "build_rec", raising(ZeroDivisionError("a bug")))
    with pytest.raises(ZeroDivisionError):
        closed_forms_all(decrement_loop())
