"""Closed-form table: worked examples, the three-way oracle (closed form vs
symbolic n-fold update vs interpreter), the n:=0 collapse, and pick-step
progress; one analysis per loop, read by accelerate, the oracle and the
closed-form command."""

import random
import sys
from pathlib import Path

import pytest

from loopacc import cli, closedform, loop as loop_mod
from loopacc.accel import accelerate
from loopacc.closedform import ClosedFormError, Failure, closed_forms_all
from loopacc.expr import Bin, Const, Sel, State, eval_expr, substitute, sv
from loopacc.gen import gen_loop
from loopacc.loop import Loop, Rel, run_n, up_pow
from loopacc.oracle import check_loop
from loopacc.problem import parse_problem
from loopacc.recurrence import N
from loopacc.simplify import simplify

from conftest import A, B, I, J, K, decrement_loop, mixing_loop, plus, random_array, swap_loop


def test_swap_table(session):
    cf = closed_forms_all(swap_loop(), session)
    t = cf.table
    assert t.of(Sel(I, ())) == Bin("+", sv(I), sv(N))
    assert t.of(Sel(A, (sv(I),))) == Sel(A, (sv(I),))
    # a[i+1] -> a[i+n+1] modulo term order
    entry = t.of(Sel(A, (plus(sv(I), 1),)))
    assert simplify(Bin("-", entry.idx[0], Bin("+", Bin("+", sv(I), sv(N)), Const(1)))) == Const(0)


def test_decrement_inductive(session):
    cf = closed_forms_all(decrement_loop(), session)
    got = simplify(substitute(cf.table.of(Sel(I, ())), {N: Const(5)}))
    assert got == Bin("-", sv(I), Const(5))
    # oracle at n = 1..5
    for n in range(1, 6):
        s = State({I: 10})
        r = run_n(decrement_loop(), s, n)
        assert eval_expr(substitute(cf.table.of(Sel(I, ())), {N: Const(n)}), s) == r.state[I]


def test_mixing_fails_classification(session):
    out = closed_forms_all(mixing_loop(), session)
    assert isinstance(out, Failure) and out.phase == "classification"


def test_trivial_entries(session):
    # b[c] with b, c unwritten stays itself
    loop = Loop(Rel("<", sv(I), sv(K)),
                (Sel(I, ()),),
                (Bin("+", sv(I), Sel(B, (Const(3),))),))
    cf = closed_forms_all(loop, session)
    assert cf.table.of(Sel(B, (Const(3),))) == Sel(B, (Const(3),))


def test_two_counter_displacing(session):
    # j advances by 2: reading a[j+2] is displacing with closed form a[j+2n+2]
    loop = Loop(Rel("<", sv(J), sv(K)),
                (Sel(J, ()), Sel(A, (sv(J),))),
                (plus(sv(J), 2), Sel(A, (plus(sv(J), 2),))))
    cf = closed_forms_all(loop, session)
    entry = cf.table.of(Sel(A, (plus(sv(J), 2),)))
    want = Bin("+", Bin("+", sv(J), Bin("*", Const(2), sv(N))), Const(2))
    assert simplify(Bin("-", entry.idx[0], want)) == Const(0)


def test_def8_three_way_agreement(session):
    # eval(l^(n)[n:=k], s) == eval of up^k(l) in s == interpreter probe
    rnd = random.Random(37)
    loop = swap_loop()
    cf = closed_forms_all(loop, session)
    for _ in range(6):
        s = State({I: rnd.randint(-2, 2), K: 40, A: random_array(rnd)})
        for n in range(0, 9):
            r = run_n(loop, s, n)
            for lv, entry in cf.table.items():
                via_table = eval_expr(substitute(entry, {N: Const(n)}), s)
                via_up = eval_expr(up_pow(lv, n, cf.verdict.up), s)
                via_run = eval_expr(lv, r.state)
                assert via_table == via_up == via_run


def test_n0_collapse_syntactic(session):
    cf = closed_forms_all(swap_loop(), session)
    for lv, entry in cf.table.items():
        assert simplify(substitute(entry, {N: Const(0)})) == simplify(lv)


def test_empty_update_table(session):
    loop = Loop(Rel("<", sv(I), sv(K)), (Sel(J, ()),), (Const(5),))
    cf = closed_forms_all(loop, session)
    assert list(cf.table.items()) == []  # rhs has no lvalues


def test_pick_progress_on_chained_displacing(session):
    # a[b[j]] where b[j] is itself displacing-resolvable through j
    loop = Loop(Rel("<", sv(J), sv(K)),
                (Sel(J, ()), Sel(A, (sv(J),)), Sel(B, (sv(J),))),
                (plus(sv(J), 1),
                 Sel(A, (Sel(B, (plus(sv(J), 1),)),)),
                 Const(7)))
    cf = closed_forms_all(loop, session)
    if isinstance(cf, Failure):
        # a[b[j+1]]'s index reads b[j+1], which is inductive; acceptable here
        # is either a full table or a classification failure, but never a
        # pick-step livelock
        assert cf.phase in ("classification", "rec")
    else:
        assert all(lv in cf.table for lv in cf.verdict.closure)


def test_only_recurrence_errors_become_failures(monkeypatch, session):
    def build_rec(*args):
        raise ZeroDivisionError("a bug")

    monkeypatch.setattr(closedform, "build_rec", build_rec)
    with pytest.raises(ZeroDivisionError):
        closed_forms_all(decrement_loop(), session)


# ---------------------------------------------------------------------------
# one analysis per loop

EXAMPLES = Path(__file__).resolve().parent.parent / "examples_problems"

TWO_ARRAYS = """
(declare (i 0) (k 0) (a 1) (b 1))
(loop
  (guard (< i k))
  (update
    ((lhs i) (rhs (+ i 1)))
    ((lhs (select a i)) (rhs 3))
    ((lhs (select b i)) (rhs 4))))
"""


@pytest.fixture
def build_up_calls(monkeypatch):
    """The loops of every build_up call, counted in each loopacc module that
    imports it."""
    calls, real = [], loop_mod.build_up

    def build_up(loop):
        calls.append(loop)
        return real(loop)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "loopacc" and getattr(mod, "build_up", None) is real:
            monkeypatch.setattr(mod, "build_up", build_up)
    return calls


def test_one_update_substitution_per_analysis(build_up_calls, session, capsys):
    paths = sorted(EXAMPLES.glob("*.loop"))
    loops = [parse_problem(p).loop for p in paths] + [gen_loop(s).loop for s in range(10)]
    for loop in loops:
        for analyse in (accelerate, lambda l, ses: check_loop(l, seeds=2, n_max=2, session=ses)):
            build_up_calls.clear()
            analyse(loop, session)
            assert build_up_calls == [loop]
    for path in paths:
        build_up_calls.clear()
        cli.main(["closed-form", str(path)])
        assert len(build_up_calls) == 1, path
    capsys.readouterr()


@pytest.fixture
def a_has_no_closed_form(monkeypatch):
    real = closedform.closed_form_array

    def closed_form_array(loop, x, table, up):
        if x == A:
            raise ClosedFormError("no closed form for a")
        return real(loop, x, table, up)

    monkeypatch.setattr(closedform, "closed_form_array", closed_form_array)


def test_a_closed_form_error_fails_only_its_array(a_has_no_closed_form, session, tmp_path,
                                                  capsys):
    path = tmp_path / "two.loop"
    path.write_text(TWO_ARRAYS)
    loop = parse_problem(path).loop
    failure = Failure("array-closed-form", "no closed form for a")
    forms = closed_forms_all(loop, session)
    assert forms.variables[A] == failure and forms.variables[B] != failure
    assert check_loop(loop, seeds=2, n_max=2, session=session).failure == failure
    assert accelerate(loop, session) == failure
    assert cli.main(["closed-form", str(path), "--array", "b"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("b^(n) = (lambda ")
    for argv in (["--array", "a"], []):
        assert cli.main(["closed-form", str(path), *argv]) == 1
        assert capsys.readouterr().out == "failure(array-closed-form): no closed form for a\n"


def test_the_guard_is_checked_before_the_closed_forms(a_has_no_closed_form, session):
    loop = parse_problem(TWO_ARRAYS, is_path=False).loop
    assert accelerate(loop, session).phase == "array-closed-form"
    loop = Loop(Rel("!=", sv(I), sv(K)), loop.lvalues, loop.rhs)
    out = accelerate(loop, session)
    assert out.phase == "guard" and out.detail.startswith("guard atom is not monotonic")
