"""Random loop generator postcondition and the oracle harness, including its
self-test against a deliberately corrupted closed form."""

import random

from loopacc import closedform
from loopacc.classify import check_a_solvable
from loopacc.closedform import ClosedFormError, closed_forms_all
from loopacc.expr import Bin, Const, EvalError, FiniteFn, Ite, Lam, Rel, Sel, Var, sv
from loopacc.gen import GenConfig, gen_loop
from loopacc.loop import Loop, run_n, validate_loop
from loopacc.oracle import ProbeWindow, check_loop, random_state

from conftest import A, I, J, K, plus, swap_loop


def test_generator_postcondition_is_total(session):
    # every generated loop satisfies (Distinct) and is a-solvable
    for seed in range(120):
        g = gen_loop(seed)
        assert validate_loop(g.loop, session).ok, seed
        assert check_a_solvable(g.loop, session).a_solvable, seed


def test_generator_scalars_only(session):
    for seed in range(20):
        g = gen_loop(seed, GenConfig(scalars_only=True))
        assert not any(v.arity for v in g.loop.written_vars())
        assert check_a_solvable(g.loop, session).a_solvable


def test_generator_two_dim(session):
    found = 0
    for seed in range(20):
        g = gen_loop(seed, GenConfig(force_dim=2, arrays=(1, 2)))
        v = check_a_solvable(g.loop, session)
        assert v.a_solvable
        if any(x.arity == 2 for x in g.loop.written_vars()):
            found += 1
    assert found >= 10


def test_oracle_clean_on_swap(session):
    rep = check_loop(swap_loop(), loop_id="swap", seeds=10, n_max=6, session=session)
    assert rep.ok and rep.checked > 500


def test_oracle_detects_corrupted_closed_form(monkeypatch, session):
    # harness self-test: corrupt one table entry and expect mismatches
    import loopacc.oracle as oracle_mod

    real = closed_forms_all

    def corrupted(loop, session):
        cf = real(loop, session)
        lv = Sel(I, ())
        cf.table.entries[lv] = Bin("+", cf.table.entries[lv], Const(1))
        return cf

    monkeypatch.setattr(oracle_mod, "closed_forms_all", corrupted)
    rep = check_loop(swap_loop(), loop_id="swap", seeds=3, n_max=4, session=session)
    assert not rep.ok and rep.mismatches


def test_oracle_detects_corrupted_array_closed_form(monkeypatch, session):
    # harness self-test on the array side: the swap loop's lambda is off by
    # one at the cell 0 alone
    real = closedform.closed_form_array

    def corrupted(loop, x, table, up):
        lam = real(loop, x, table, up)
        if not x.arity:
            return lam
        at_zero = Rel("=", sv(lam.params[0]), Const(0))
        return Lam(lam.params, Ite(at_zero, Bin("+", lam.body, Const(1)), lam.body))

    monkeypatch.setattr(closedform, "closed_form_array", corrupted)
    rep = check_loop(swap_loop(), loop_id="swap", seeds=3, n_max=4, session=session)
    assert not rep.ok and rep.mismatches
    assert {(m.subject, m.point, m.got - m.expected) for m in rep.mismatches} == {("a", (0,), 1)}


def test_oracle_counts_the_window_points_a_closed_form_cannot_evaluate(monkeypatch, session):
    # the swap loop's lambda plus 0 * (1 div (j - 1)): the same values, but no
    # value at j = 1, so each window holding j = 1 differs from the
    # interpreter's side by its SKIP points alone
    import loopacc.oracle as oracle_mod

    real = closedform.closed_form_array

    def divides_by_j_minus_1(loop, x, table, up):
        lam = real(loop, x, table, up)
        if not x.arity:
            return lam
        zero = Bin("*", Const(0), Bin("div", Const(1), plus(sv(lam.params[0]), -1)))
        return Lam(lam.params, Bin("+", lam.body, zero))

    monkeypatch.setattr(closedform, "closed_form_array", divides_by_j_minus_1)
    loop, seeds, n_max = swap_loop(), 6, 5
    rep = check_loop(loop, loop_id="swap", seeds=seeds, n_max=n_max, session=session)
    visits = window_points = at_one = 0
    for s_idx in range(seeds):
        cur = random_state(loop, random.Random(s_idx))
        window = ProbeWindow(A, cur, oracle_mod.MARGIN)
        for n in range(n_max + 1):
            if n:
                r = run_n(loop, cur, 1)
                if r.stuck_at is not None:
                    break
                cur = r.state
                window.add(r.writes)
            visits += 1
            window_points += len(window.order)
            at_one += sum(p == (1,) for p in window.order)
    table = closed_forms_all(loop, session).table.entries
    assert rep.failure is None and rep.mismatches == []
    assert rep.skipped == at_one > 0
    assert rep.checked + rep.skipped == window_points + visits * len(table)


def test_oracle_json_shape(session):
    rep = check_loop(swap_loop(), loop_id="swap", seeds=2, n_max=3, session=session)
    data = rep.to_json()
    assert data["ok"] is True and data["loop"] == "swap"
    assert set(data) >= {"seeds", "n_max", "checked", "mismatches"}


def test_oracle_counts_cells_that_do_not_evaluate(session):
    # x accumulates a[k div j]: the states with j = 0 cannot evaluate that cell
    x = Var("x")
    loop = Loop(guard=Rel("<", sv(I), sv(K)),
                lvalues=(Sel(I, ()), Sel(x, ())),
                rhs=(plus(sv(I), 1), Bin("+", sv(x), Sel(A, (Bin("div", sv(K), sv(J)),)))))
    rep = check_loop(loop, seeds=40, session=session)
    assert rep.ok and rep.skipped > 0
    assert rep.to_json()["skipped"] == rep.skipped


def test_oracle_skips_runs_the_interpreter_cannot_finish(session):
    # a[i] <- 10 div (j - j) fails whenever the loop runs: the interpreter
    # and the array closed form both divide by zero
    zero = Bin("-", sv(J), sv(J))
    loop = Loop(guard=Rel("<", sv(I), sv(K)),
                lvalues=(Sel(A, (sv(I),)), Sel(I, ())),
                rhs=(Bin("div", Const(10), zero), plus(sv(I), 1)))
    rep = check_loop(loop, seeds=10, seed0=41, session=session)
    assert rep.failure is None and not rep.mismatches
    assert rep.skipped > 0


def _probe_points_reference(writes, state, x, margin):
    """The window as it was rebuilt from every write so far at each n."""
    pts = {w.point for w in writes if w.var == x}
    fn = state[x]
    if isinstance(fn, FiniteFn):
        pts |= {p for p, _ in fn.overrides}
    widened = set()
    for p in pts or {(0,) * x.arity}:
        for d in range(-margin, margin + 1):
            widened.add(tuple(c + d for c in p))
            widened.add((p[0] + d,) + p[1:])
    far = 50
    widened.add(tuple(far for _ in range(x.arity)))
    widened.add(tuple(-far for _ in range(x.arity)))
    return widened


def test_incremental_window_matches_rebuilt_window():
    compared = grown_from_origin = 0
    for seed in range(60):
        loop = gen_loop(seed).loop
        arrays = sorted((x for x in loop.written_vars() if x.arity), key=lambda v: v.name)
        for s_idx in range(3):
            state = random_state(loop, random.Random(s_idx))
            if s_idx == 0:  # no initial overrides: the window starts at the origin
                state = state.bind({x: FiniteFn.const(x.arity, 0) for x in arrays})
            windows = [ProbeWindow(x, state, 2) for x in arrays]
            origin = [not w.points for w in windows]
            cur, writes = state, []
            for n in range(9):
                if n:
                    r = run_n(loop, cur, 1)
                    if r.stuck_at is not None:
                        break
                    cur, writes = r.state, writes + r.writes
                    for w in windows:
                        w.add(r.writes)
                for x, w in zip(arrays, windows):
                    assert w.order == sorted(_probe_points_reference(writes, state, x, 2))
                    compared += 1
            grown_from_origin += sum(o and bool(w.points) for o, w in zip(origin, windows))
    assert compared > 1000 and grown_from_origin > 0


def test_oracle_reports_an_aliasing_loop_as_a_validation_failure(session):
    # a[i] and a[j] are the same cell whenever i = j
    loop = Loop(guard=Rel("<", sv(I), sv(K)),
                lvalues=(Sel(I, ()), Sel(A, (sv(I),)), Sel(A, (sv(J),))),
                rhs=(plus(sv(I), 1), Const(1), Const(2)))
    rep = check_loop(loop, seeds=10, session=session)
    assert not rep.ok and rep.failure.phase == "validation"
    assert "aliasing" in rep.to_json()["failure"]["detail"]


def test_window_stays_sorted_and_is_the_widening_of_its_points():
    # each step's writes go into the window in one add, as in check_loop
    adds = 0
    for dim in (1, 2, 3):
        for seed in range(40):
            loop = gen_loop(seed, GenConfig(force_dim=dim, arrays=(1, 2))).loop
            arrays = [x for x in loop.variables() if x.arity and x in loop.written_vars()]
            state = random_state(loop, random.Random(seed))
            windows = [ProbeWindow(x, state, 2) for x in arrays]
            try:
                writes = run_n(loop, state, 8).writes
            except EvalError:
                continue
            for it in sorted({w.iteration for w in writes}):
                so_far = [w for w in writes if w.iteration <= it]
                for x, window in zip(arrays, windows):
                    window.add([w for w in writes if w.iteration == it])
                    assert window.order == sorted(window.cells)
                    assert window.cells == _probe_points_reference(so_far, state, x, 2)
                    adds += 1
    assert adds > 1000


UNREAD = Var("x")
UNREAD_LOOP = Loop(guard=Rel("<", sv(I), sv(K)), lvalues=(Sel(I, ()), Sel(UNREAD, ())),
                   rhs=(plus(sv(I), 1), Const(5)))


def test_oracle_compares_a_written_scalar_no_rhs_reads(monkeypatch, session):
    # x <- 5 has no table entry: the oracle compares its closed form, and
    # reports a wrong one or a failure to build one
    assert Sel(UNREAD, ()) not in closed_forms_all(UNREAD_LOOP, session).table
    rep = check_loop(UNREAD_LOOP, seeds=10, session=session)
    assert rep.ok and rep.checked > 0
    real = closedform.closed_form_array

    def off_by_one(loop, x, table, up):
        cf = real(loop, x, table, up)
        return Bin("+", cf, Const(1)) if x == UNREAD else cf

    monkeypatch.setattr(closedform, "closed_form_array", off_by_one)
    rep = check_loop(UNREAD_LOOP, seeds=10, session=session)
    assert rep.mismatches and {m.subject for m in rep.mismatches} == {"x"}

    def none_for_x(loop, x, table, up):
        if x == UNREAD:
            raise ClosedFormError("no closed form for x")
        return real(loop, x, table, up)

    monkeypatch.setattr(closedform, "closed_form_array", none_for_x)
    rep = check_loop(UNREAD_LOOP, seeds=10, session=session)
    assert not rep.ok and rep.failure.phase == "array-closed-form"
