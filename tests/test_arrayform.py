"""Array closed forms: displacements, the quantifier-free not_written against
brute-force enumeration of the quantified definition, last-write cases against
the interpreter's write log, and the whole-array lambda against run_n."""

import itertools
import random

from loopacc.arrayform import (
    closed_form_array, displacement, last_write_instantiation, not_written_qf,
)
from loopacc.closedform import closed_forms_all
from loopacc.expr import (
    Bin, Const, Sel, State, Var, eval_expr, eval_formula, substitute, sv,
)
from loopacc.loop import Loop, Rel, build_up, run_n
from loopacc.recurrence import N
from loopacc.simplify import simplify

from conftest import A, B, I, J, K, plus, random_array, swap_loop

M, C = Var("m"), Var("c")


def corpus():
    """Constant-displacement loops covering: the running example, d=0 writes,
    |d|>1 strides, decreasing direction, two-dimensional writes."""
    swap = swap_loop()
    stationary = Loop(Rel("<", sv(I), sv(K)),
                      (Sel(I, ()), Sel(A, (Const(5),))),
                      (plus(sv(I), 1), sv(I)))
    stride2 = Loop(Rel("<", sv(J), sv(K)),
                   (Sel(J, ()), Sel(A, (Bin("*", Const(2), sv(J)),))),
                   (plus(sv(J), 2), plus(sv(J), 1)))
    down = Loop(Rel(">", sv(I), Const(-50)),
                (Sel(I, ()), Sel(A, (sv(I),))),
                (Bin("-", sv(I), Const(1)), Const(3)))
    m2 = Var("m2", 2)
    twodim = Loop(Rel("<", sv(I), sv(K)),
                  (Sel(I, ()), Sel(m2, (Bin("*", Const(2), sv(I)), sv(I)))),
                  (plus(sv(I), 1), plus(sv(I), 7)))
    twowrites = Loop(Rel("<", sv(I), sv(K)),
                     (Sel(I, ()), Sel(A, (sv(I),)), Sel(A, (plus(sv(I), 3),))),
                     (plus(sv(I), 1), Const(1), Const(2)))
    # two writes with different strides: a[2i] moves by 2, a[4i+1] by 4; the
    # parity of the indices keeps (Distinct) valid
    mixedstride = Loop(Rel("<", sv(I), sv(K)),
                       (Sel(I, ()), Sel(A, (Bin("*", Const(2), sv(I)),)),
                        Sel(A, (plus(Bin("*", Const(4), sv(I)), 1),))),
                       (plus(sv(I), 1), sv(I), plus(sv(I), 5)))
    return {
        "swap": swap, "stationary": stationary, "stride2": stride2,
        "down": down, "twodim": twodim, "twowrites": twowrites,
        "mixedstride": mixedstride,
    }


class TestDisplacement:
    def test_swap_both_one(self):
        loop = swap_loop()
        up = build_up(loop)
        assert displacement(loop, Sel(A, (sv(I),)), up).parts == (1,)
        assert displacement(loop, Sel(A, (plus(sv(I), 1),)), up).parts == (1,)

    def test_nonconstant(self):
        loop = Loop(Rel("<", sv(J), sv(K)),
                    (Sel(J, ()), Sel(A, (sv(J),))),
                    (Bin("*", Const(2), sv(J)), Const(0)))
        up = build_up(loop)
        d = displacement(loop, Sel(A, (sv(J),)), up)
        assert d.parts == (None,) and not d.constant

    def test_stationary(self):
        loop = corpus()["stationary"]
        up = build_up(loop)
        d = displacement(loop, Sel(A, (Const(5),)), up)
        assert d.parts == (0,) and d.all_zero


def _written_points(loop, x, state, m, n):
    """Quantified definition: the set of cells written by iterations in
    [m..n], via the arithmetic closed form r + d*(m'-1)."""
    up = build_up(loop)
    pts = set()
    for lv, _ in loop.writes_to(x):
        d = displacement(loop, lv, up)
        base = tuple(eval_expr(ix, state) for ix in lv.idx)
        for mp in range(m, n + 1):
            pts.add(tuple(b + di * (mp - 1) for b, di in zip(base, d.parts)))
    return pts


def _window(loop, x, state, n_max, margin=2):
    pts = _written_points(loop, x, state, 0, n_max + 1)
    out = set()
    for p in pts:
        for delta in itertools.product(range(-margin, margin + 1), repeat=len(p)):
            out.add(tuple(a + b for a, b in zip(p, delta)))
    return sorted(out)


class TestNotWrittenQF:
    def test_swap_shape(self):
        # (c < i+m-1 or i+n-1 < c) and (c < i+m or i+n < c), modulo order
        loop = swap_loop()
        f = not_written_qf(loop, A, sv(M), sv(N), (sv(C),))
        rnd = random.Random(3)
        for _ in range(300):
            s = State({I: rnd.randint(-4, 4), M: rnd.randint(-1, 7),
                       N: rnd.randint(-1, 7), C: rnd.randint(-8, 8)})
            i, m, n, c = s[I], s[M], s[N], s[C]
            want = ((c < i + m - 1 or i + n - 1 < c)
                    and (c < i + m or i + n < c))
            assert eval_formula(f, s) == want

    def test_matches_enumeration_on_corpus(self):
        # acceptance-style: zero mismatches for all m, n in [0..6], c in window
        rnd = random.Random(5)
        for name, loop in corpus().items():
            arrays = [x for x in loop.written_vars() if x.arity > 0]
            for x in arrays:
                params = tuple(Var(f"c{d}") for d in range(x.arity))
                f = not_written_qf(loop, x, sv(M), sv(N), tuple(sv(p) for p in params))
                for trial in range(3):
                    base = State({v: rnd.randint(-3, 3) for v in loop.variables()
                                  if v.arity == 0})
                    window = _window(loop, x, base, 6)
                    for m in range(0, 7):
                        for n in range(0, 7):
                            written = _written_points(loop, x, base, m, n)
                            for c in window:
                                env = {M: m, N: n}
                                env.update({p: ci for p, ci in zip(params, c)})
                                got = eval_formula(f, base.bind(env))
                                want = c not in written
                                assert got == want, (name, x.name, m, n, c)

    def test_d_zero_single_point(self):
        loop = corpus()["stationary"]
        f = not_written_qf(loop, A, sv(M), sv(N), (sv(C),))
        # nonempty interval: exactly c != 5
        s = State({M: 1, N: 3, C: 5, I: 0})
        assert eval_formula(f, s) is False
        assert eval_formula(f, s.bind({C: 6})) is True
        # empty interval: vacuously true even at c = 5
        assert eval_formula(f, s.bind({M: 4, N: 3})) is True

    def test_stride_divisibility_fires(self):
        loop = corpus()["stride2"]
        f = not_written_qf(loop, A, sv(M), sv(N), (sv(C),))
        # writes hit even offsets from 2j: odd-offset cells are never written
        s = State({J: 0, M: 1, N: 6, C: 1})
        assert eval_formula(f, s) is True


class TestLastWrite:
    def test_swap_cases(self):
        loop = swap_loop()
        cf = closed_forms_all(loop)
        up = build_up(loop)
        case_ai = last_write_instantiation(loop, Sel(A, (sv(I),)), (sv(C),), sv(N),
                                           cf.table, up)
        # e = c - i + 1; guard collapses to 0 <= c-i <= n-1; value a[c+1]
        assert simplify(Bin("-", case_ai.instantiation,
                            plus(Bin("-", sv(C), sv(I)), 1))) == Const(0)
        rnd = random.Random(11)
        for _ in range(200):
            s = State({I: rnd.randint(-4, 4), N: rnd.randint(-1, 6), C: rnd.randint(-9, 9)})
            want = 0 <= s[C] - s[I] <= s[N] - 1
            assert eval_formula(case_ai.guard, s) == want
        case_ai1 = last_write_instantiation(loop, Sel(A, (plus(sv(I), 1),)), (sv(C),),
                                            sv(N), cf.table, up)
        for _ in range(200):
            s = State({I: rnd.randint(-4, 4), N: rnd.randint(-1, 6), C: rnd.randint(-9, 9)})
            want = 1 <= s[C] - s[I] == s[N]
            assert eval_formula(case_ai1.guard, s) == want

    def test_stationary_case(self):
        loop = corpus()["stationary"]
        cf = closed_forms_all(loop)
        case = last_write_instantiation(loop, Sel(A, (Const(5),)), (sv(C),), sv(N),
                                        cf.table, build_up(loop))
        assert case.instantiation == sv(N)
        s = State({C: 5, N: 3, I: 0})
        assert eval_formula(case.guard, s) is True
        assert eval_formula(case.guard, s.bind({C: 4})) is False
        assert eval_formula(case.guard, s.bind({N: 0})) is False

    def test_uniqueness_and_log_agreement(self):
        # at most one guard true per (c, n); the true one names the write the
        # interpreter's log recorded last for that cell
        rnd = random.Random(13)
        for name, loop in corpus().items():
            cf = closed_forms_all(loop)
            up = build_up(loop)
            arrays = [x for x in loop.written_vars() if x.arity > 0]
            for x in arrays:
                params = tuple(Var(f"c{d}") for d in range(x.arity))
                cases = [
                    (lv, last_write_instantiation(loop, lv, tuple(sv(p) for p in params),
                                                  sv(N), cf.table, up))
                    for lv, _ in loop.writes_to(x)
                ]
                for trial in range(3):
                    state = State({v: rnd.randint(-3, 3) for v in loop.variables()
                                   if v.arity == 0})
                    full = state.bind({v: random_array(rnd, v.arity)
                                       for v in loop.variables() if v.arity > 0})
                    for n in range(0, 7):
                        r = run_n(loop, full, n)
                        if r.stuck_at is not None and r.stuck_at < n:
                            break
                        last = {}
                        for w in r.writes:
                            if w.var == x:
                                last[w.point] = (w.iteration, loop.lvalues[w.position])
                        for c in _window(loop, x, state, 6, margin=1):
                            env = {N: n}
                            env.update({p: ci for p, ci in zip(params, c)})
                            s = full.bind(env)
                            hits = [(lv, case) for lv, case in cases
                                    if eval_formula(case.guard, s)]
                            assert len(hits) <= 1, (name, c, n)
                            if c in last:
                                assert len(hits) == 1, (name, c, n, last[c])
                                lv, case = hits[0]
                                it, wlv = last[c]
                                assert lv == wlv
                                assert eval_expr(case.instantiation, s) == it
                            else:
                                assert not hits


def test_closed_form_application_beta_reduces():
    # a^(n)[i'] turns into the ite chain with the cell parameter replaced
    from loopacc.expr import Ite, Lam, beta_reduce, free_vars

    loop = swap_loop()
    cf = closed_forms_all(loop)
    lam = closed_form_array(loop, A, cf.table)
    ip = Var("i'")
    red = beta_reduce(Sel(lam, (sv(ip),)))
    assert isinstance(red, Ite)
    assert ip in free_vars(red) and not isinstance(red, Lam)
    # semantics preserved against the unreduced application
    rnd = random.Random(3)
    for _ in range(20):
        s = State({I: rnd.randint(-3, 3), K: 9, N: rnd.randint(0, 5),
                   ip: rnd.randint(-6, 9), A: random_array(rnd)})
        assert eval_expr(red, s) == eval_expr(Sel(lam, (sv(ip),)), s)


class TestClosedFormArray:
    def test_swap_matches_reference_form(self):
        loop = swap_loop()
        cf = closed_forms_all(loop)
        lam = closed_form_array(loop, A, cf.table)
        # semantic check against the expected shifted form:
        # lambda c. ite(0 <= c-i < n, a[c+1], ite(1 <= c-i = n, a[i], a[c]))
        rnd = random.Random(19)
        for _ in range(30):
            s = State({I: rnd.randint(-3, 3), K: 50, A: random_array(rnd),
                       N: rnd.randint(0, 6)})
            fn = eval_expr(lam, s)
            i, n = s[I], s[N]
            for c in range(i - 3, i + n + 4):
                if 0 <= c - i < n:
                    want = s[A]((c + 1,))
                elif 1 <= c - i == n:
                    want = s[A]((i,))
                else:
                    want = s[A]((c,))
                assert fn((c,)) == want

    def test_unwritten_array(self):
        loop = swap_loop()
        cf = closed_forms_all(loop)
        assert closed_form_array(loop, B, cf.table) == B

    def test_n0_collapse_all_guards_false(self):
        # at n = 0 every case guard simplifies away and the array is unchanged
        from loopacc.expr import Lam

        loop = swap_loop()
        cf = closed_forms_all(loop)
        lam = closed_form_array(loop, A, cf.table)
        collapsed = simplify(substitute(lam, {N: Const(0)}))
        assert isinstance(collapsed, Lam)
        assert collapsed.body == Sel(A, (sv(collapsed.params[0]),))

    def test_scalar_collapses(self):
        loop = swap_loop()
        cf = closed_forms_all(loop)
        assert closed_form_array(loop, I, cf.table) == Bin("+", sv(I), sv(N))
        assert closed_form_array(loop, K, cf.table) == sv(K)

    def test_array_closed_forms_oracle_corpus(self):
        rnd = random.Random(23)
        for name, loop in corpus().items():
            cf = closed_forms_all(loop)
            up = build_up(loop)
            for x in sorted(loop.written_vars(), key=lambda v: v.name):
                if x.arity == 0:
                    continue
                lam = closed_form_array(loop, x, cf.table, up)
                for trial in range(3):
                    scalars = {v: rnd.randint(-3, 3) for v in loop.variables()
                               if v.arity == 0}
                    arrays = {v: random_array(rnd, v.arity)
                              for v in loop.variables() if v.arity > 0}
                    s = State({**scalars, **arrays})
                    for n in range(0, 7):
                        r = run_n(loop, s, n)
                        if r.stuck_at is not None and r.stuck_at < n:
                            break
                        fn = eval_expr(substitute(lam, {N: Const(n)}), s)
                        for c in _window(loop, x, s, 6, margin=1):
                            assert fn(c) == r.state[x](c), (name, x.name, n, c)

    def test_nonconstant_displacement_fails(self):
        loop = Loop(Rel("<", sv(J), sv(K)),
                    (Sel(J, ()), Sel(A, (sv(J),))),
                    (Bin("*", Const(2), sv(J)), Const(0)))
        cf = closed_forms_all(loop)
        from loopacc.closedform import Failure

        if isinstance(cf, Failure):
            return  # rejected earlier (j <- 2j is outside the rec fragment)
        import pytest
        from loopacc.arrayform import ArrayFormError

        with pytest.raises(ArrayFormError):
            closed_form_array(loop, A, cf.table)


def test_a_nonconstant_displacement_is_reported_as_text():
    # j <- 2j moves the write a[j] by j per iteration
    import pytest
    from loopacc.arrayform import ArrayFormError

    loop = Loop(Rel("<", sv(J), sv(K)), (Sel(J, ()), Sel(A, (sv(J),))),
                (Bin("*", Const(2), sv(J)), Const(0)))
    for build in (lambda: not_written_qf(loop, A, Const(1), sv(N), (sv(C),)),
                  lambda: last_write_instantiation(loop, loop.lvalues[1], (sv(C),), sv(N), None)):
        with pytest.raises(ArrayFormError) as exc:
            build()
        assert str(exc.value) == "non-constant displacement for (select a j)"
