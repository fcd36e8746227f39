"""Acceptance criteria, one test per criterion, each printing a PASS line with
its elapsed time (run with -v -s for the full report).  Time bounds are
asserted with wall-clock measurements; tolerances are exact equality unless a
criterion states otherwise."""

import random
import time
from pathlib import Path

import pytest

from loopacc.accel import accelerate, encode_reachability
from loopacc.arrayform import closed_form_array, not_written_qf
from loopacc.backend import BackendSession
from loopacc.classify import check_a_solvable
from loopacc.closedform import closed_forms_all
from loopacc.expr import (
    And, Bin, Const, FiniteFn, Lam, Not, Or, Rel, Sel, State, Var, eval_expr,
    eval_formula, substitute, sv,
)
from loopacc.gen import gen_loop
from loopacc.lamsolve import solve, verify_model
from loopacc.loop import build_up, run_n
from loopacc.oracle import check_loop
from loopacc.recurrence import (
    LvalueSubstitution, N, RecurrenceSystem, solve_rec, verify_solution,
)

from conftest import A, B, I, J, K, decrement_loop, mixing_loop, overview_loop, plus, swap_loop

EXAMPLES = Path(__file__).resolve().parent.parent / "examples_problems"


def report(num: int, started: float, note: str = ""):
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {num:2d}: PASS ({elapsed:.2f}s){'  ' + note if note else ''}",
          flush=True)


@pytest.fixture(scope="module")
def ses():
    with BackendSession(timeout=10.0) as s:
        yield s


def test_criterion_01_swap_closed_form_exact(ses):
    """a^(n) agrees with run_n exactly on the stated grid; < 5 s."""
    t0 = time.monotonic()
    loop = swap_loop()
    cf = closed_forms_all(loop, ses)
    lam = closed_form_array(loop, A, cf.table, cf.verdict.up)
    rnd = random.Random(2024)
    mismatches = 0
    for seed in range(50):
        for i0 in range(-3, 4):
            k0 = i0 + 7
            fn = FiniteFn.const(1, rnd.randint(-3, 3),
                                {(p,): rnd.randint(-9, 9) for p in range(i0 - 3, i0 + 11)})
            s = State({I: i0, K: k0, A: fn})
            for n in range(0, 7):
                r = run_n(loop, s, n)
                assert r.stuck_at is None
                val = eval_expr(substitute(lam, {N: Const(n)}), s)
                for c in range(i0 - 2, i0 + n + 3):
                    if val((c,)) != r.state[A]((c,)):
                        mismatches += 1
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, t0, "zero mismatches over 50 seeds")


def test_criterion_02_transition_example_exact():
    """One step from i=0, k=5, a=identity: a' maps 1->0, 0->1, else identity
    on [-3..8]."""
    t0 = time.monotonic()
    from loopacc.loop import step

    s = State({I: 0, K: 5, A: FiniteFn.identity()})
    s1 = step(swap_loop(), s)
    assert s1[I] == 1 and s1[K] == 5
    want = {1: 0, 0: 1}
    for c in range(-3, 9):
        assert s1[A]((c,)) == want.get(c, c)
    report(2, t0)


def test_criterion_03_decrement_acceleration_equivalence(ses):
    """Decrement-loop output equivalent to n>0 and i-n>=0 and i'=i-n; < 1 s."""
    t0 = time.monotonic()
    t = accelerate(decrement_loop(), ses)
    ref = And((Rel(">", sv(N), Const(0)),
               Rel(">=", Bin("-", sv(I), sv(N)), Const(0)),
               Rel("=", sv(Var("i'")), Bin("-", sv(I), sv(N)))))
    assert ses.is_valid(Or((Not(t.formula), ref))) is True
    assert ses.is_valid(Or((Not(ref), t.formula))) is True
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(3, t0)


def test_criterion_04_swap_guard_equivalence(ses):
    """Emitted swap guard conjunct equivalent to i+n <= k."""
    t0 = time.monotonic()
    t = accelerate(swap_loop(), ses)
    target = Rel("<=", Bin("+", sv(I), sv(N)), sv(K))
    assert ses.is_valid(Or((Not(t.guard_formula), target))) is True
    assert ses.is_valid(Or((Not(target), t.guard_formula))) is True
    report(4, t0)


def test_criterion_05_overview_unsafe_with_witness(ses):
    """The overview program is unsafe: a concrete model with witness j, n
    within 30 s on the stock backend, re-verified independently."""
    t0 = time.monotonic()
    loop = overview_loop()
    t = accelerate(loop, ses)
    pre = [Rel("=", sv(I), Const(0)), Rel("=", sv(K), Const(10000))]
    post = [Rel(">=", sv(I), sv(K)), Rel(">=", sv(J), Const(0)),
            Rel("<=", sv(J), sv(K)), Rel("=", Sel(A, (sv(J),)), Sel(A, (Const(0),)))]
    lits = encode_reachability(pre, t, post)
    res = solve(lits, ses)
    elapsed = time.monotonic() - t0
    assert res.status == "model"
    assert "j" in res.model.scalars and "n" in res.model.scalars
    assert res.model.scalars["n"] == 10000
    assert 0 <= res.model.scalars["j"] <= 10000
    assert verify_model(res.model, lits, ses)
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(5, t0, f"witness j={res.model.scalars['j']}, n={res.model.scalars['n']}")


def test_criterion_06_hoare_triple_safe_bounded(ses):
    """The copied-array Hoare triple encoding is unsatisfiable within 10 s."""
    t0 = time.monotonic()
    loop = swap_loop()
    t = accelerate(loop, ses)
    pre = [Rel("=", B, A), Rel("=", sv(J), sv(I)), Rel("<", sv(I), sv(K))]
    post = [Rel(">=", sv(I), sv(K)), Rel("!=", Sel(A, (sv(I),)), Sel(B, (sv(J),)))]
    lits = encode_reachability(pre, t, post)
    res = solve(lits, ses)
    elapsed = time.monotonic() - t0
    assert res.status == "unsat"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(6, t0)


def test_criterion_07_lambda_disagreement_unknown(ses):
    """solve((lambda i. 0) = (lambda i. 1)) returns unknown within 2 s."""
    t0 = time.monotonic()
    p = Var("p")
    res = solve([Rel("=", Lam((p,), Const(0)), Lam((p,), Const(1)))], ses)
    elapsed = time.monotonic() - t0
    assert res.status == "unknown"
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    report(7, t0)


def test_criterion_08_dependent_recurrence():
    """i' = i+1, j' = j+i: verified solution matching j + n^2/2 + n*i - n/2 at
    100 random points with n <= 10."""
    t0 = time.monotonic()
    from fractions import Fraction

    sig = LvalueSubstitution.over([Sel(I, ()), Sel(J, ())])
    ri, rj = sig.symbol(Sel(I, ())), sig.symbol(Sel(J, ()))
    system = RecurrenceSystem({ri: plus(sv(ri), 1), rj: Bin("+", sv(rj), sv(ri))}, sig)
    sol = solve_rec(system)
    assert verify_solution(system, sol) is None
    rnd = random.Random(88)
    for _ in range(100):
        iv, jv, nv = rnd.randint(-10, 10), rnd.randint(-10, 10), rnd.randint(0, 10)
        got = eval_expr(substitute(sol.of(rj),
                                   {ri: Const(iv), rj: Const(jv), N: Const(nv)}), State({}))
        assert got == jv + Fraction(1, 2) * nv * nv + nv * iv - Fraction(1, 2) * nv
    report(8, t0)


def test_criterion_09_mixing_rejection_reason(ses):
    """The inductive/displacing mixing loop is rejected with the stated
    reason."""
    t0 = time.monotonic()
    v = check_a_solvable(mixing_loop(), ses)
    assert not v.a_solvable
    assert v.reason == "mixed inductive/displacing in Lval(r_2)"
    report(9, t0, repr(v.reason))


def test_criterion_10_fuzz_200_generated_loops(ses):
    """200 seeded a-solvable loops: every closed form matches run_n for n <= 8
    on probe windows; zero mismatches; < 120 s."""
    t0 = time.monotonic()
    total_checks = 0
    for seed in range(200):
        g = gen_loop(seed)
        rep = check_loop(g.loop, loop_id=f"gen[{seed}]", seeds=4, n_max=8, session=ses)
        assert rep.failure is None, (seed, rep.failure)
        assert not rep.mismatches, (seed, rep.mismatches[:3])
        total_checks += rep.checked
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    report(10, t0, f"{total_checks} comparisons")


def _corpus_constant_displacement():
    from test_arrayform import corpus

    return {name: loop for name, loop in corpus().items()}


def test_criterion_11_not_written_matches_enumeration():
    """not_written agrees with brute-force enumeration of the quantified
    definition for all m, n in [0..6] and cells in a window, on every corpus
    loop with constant displacements."""
    t0 = time.monotonic()
    from test_arrayform import _window, _written_points

    M = Var("m")
    rnd = random.Random(7)
    mismatches = 0
    checks = 0
    for name, loop in _corpus_constant_displacement().items():
        for x in sorted(loop.written_vars(), key=lambda v: v.name):
            if x.arity == 0:
                continue
            params = tuple(Var(f"c{d}") for d in range(x.arity))
            f = not_written_qf(loop, x, sv(M), sv(N), tuple(sv(p) for p in params),
                               build_up(loop))
            for trial in range(2):
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
                            checks += 1
                            if got != want:
                                mismatches += 1
    assert mismatches == 0
    report(11, t0, f"{checks} instances")


def test_criterion_12_last_write_unique_and_named(ses):
    """At most one last-write guard true per (c, n); the true one names the
    iteration and lvalue the interpreter's write log recorded."""
    t0 = time.monotonic()
    from test_arrayform import _window
    from loopacc.arrayform import last_write_instantiation
    from conftest import random_array

    rnd = random.Random(9)
    checks = 0
    for name, loop in _corpus_constant_displacement().items():
        cf = closed_forms_all(loop, ses)
        up = build_up(loop)
        for x in sorted(loop.written_vars(), key=lambda v: v.name):
            if x.arity == 0:
                continue
            params = tuple(Var(f"c{d}") for d in range(x.arity))
            cases = [(lv, last_write_instantiation(loop, lv, tuple(sv(p) for p in params),
                                                   sv(N), cf.table, up))
                     for lv, _ in loop.writes_to(x)]
            for trial in range(2):
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
                        checks += 1
                        assert len(hits) <= 1, (name, c, n)
                        if c in last:
                            assert len(hits) == 1, (name, c, n)
                            lv, case = hits[0]
                            it, wlv = last[c]
                            assert lv == wlv and eval_expr(case.instantiation, s) == it
                        else:
                            assert not hits
    report(12, t0, f"{checks} cells")
