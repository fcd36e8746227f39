"""Recurrence systems: construction from inductive lvalues, the solving
fragment, identity verification, and concrete agreement with the interpreter."""

import random
from fractions import Fraction

from pathlib import Path

from loopacc.classify import LvalueClass, check_a_solvable
from loopacc.expr import (
    Bin, Const, FiniteFn, Sel, State, Var, eval_expr, reset_fresh_counter, substitute, sv,
)
from loopacc.gen import gen_loop
from loopacc.loop import Loop, Rel, run_n
from loopacc.problem import parse_problem
from loopacc.recurrence import (
    LvalueSubstitution, N, RecSolution, RecurrenceSystem, Unsolvable,
    build_rec, solve_rec, verify_solution,
)
from loopacc.sexpr import to_text
from loopacc.simplify import linearize

from conftest import A, I, J, K, decrement_loop, plus, swap_loop
from rec_reference import build_rec_by_search

EXAMPLES = Path(__file__).resolve().parent.parent / "examples_problems"


def _theta_text(system, sol):
    from loopacc.sexpr import to_text

    return {to_text(lv): to_text(sol.of(r)) for lv, r in system.sigma.pairs}


def _equations_text(build, loop, verdict):
    """build's equations as text, from a reset fresh-name counter."""
    reset_fresh_counter()
    return [(to_text(r), to_text(e)) for r, e in build(loop, verdict)]


class TestBuildRec:
    def test_recorded_write_gives_the_searched_equations(self, session):
        # the write classification matched is the one a per-component
        # validity search over the writes finds
        loops = [gen_loop(seed).loop for seed in range(40)]
        loops += [parse_problem(p).loop for p in sorted(EXAMPLES.glob("*.loop"))]
        equations = 0
        for loop in loops:
            verdict = check_a_solvable(loop, session)
            if not verdict.a_solvable:
                continue
            got = _equations_text(build_rec, loop, verdict)
            want = _equations_text(lambda l, v: build_rec_by_search(l, v, v.up, session),
                                   loop, verdict)
            assert got == want, to_text(loop.guard)
            assert all(c.partner is not None for c in verdict.labels.values()
                       if c.label == LvalueClass.INDUCTIVE)
            equations += len(got)
        assert equations > len(loops)

    def test_swap(self, session):
        loop = swap_loop()
        system = build_rec(loop, check_a_solvable(loop, session))
        sigma = system.sigma
        ri = sigma.symbol(Sel(I, ()))
        rai = sigma.symbol(Sel(A, (sv(I),)))
        assert system.equations[ri] == plus(sv(ri), 1)
        assert system.equations[rai] == sv(rai)
        assert len(system.equations) == 2  # a[i+1] is displacing: no equation

    def test_decrement(self, session):
        loop = decrement_loop()
        system = build_rec(loop, check_a_solvable(loop, session))
        ri = system.sigma.symbol(Sel(I, ()))
        assert system.equations[ri] == Bin("-", sv(ri), Const(1))

    def test_dependent_scalars(self, session):
        # i <- i+1, j <- j+i
        loop = Loop(Rel("<", sv(I), sv(K)),
                    (Sel(I, ()), Sel(J, ())),
                    (plus(sv(I), 1), Bin("+", sv(J), sv(I))))
        system = build_rec(loop, check_a_solvable(loop, session))
        ri = system.sigma.symbol(Sel(I, ()))
        rj = system.sigma.symbol(Sel(J, ()))
        assert system.equations[rj] == Bin("+", sv(rj), sv(ri))


class TestSolve:
    def test_dependent_counters_polynomial_solution(self):
        sig = LvalueSubstitution.over([Sel(I, ()), Sel(J, ())])
        ri, rj = (sig.symbol(Sel(I, ())), sig.symbol(Sel(J, ())))
        system = RecurrenceSystem(
            {ri: plus(sv(ri), 1), rj: Bin("+", sv(rj), sv(ri))}, sig)
        sol = solve_rec(system)
        assert not isinstance(sol, Unsolvable)
        assert verify_solution(system, sol) is None
        # theta(j) = j + n^2/2 + n*i - n/2 at 100 random points
        rnd = random.Random(17)
        for _ in range(100):
            iv, jv, nv = rnd.randint(-10, 10), rnd.randint(-10, 10), rnd.randint(0, 10)
            closed = substitute(sol.of(rj), {ri: Const(iv), rj: Const(jv), N: Const(nv)})
            got = eval_expr(closed, State({}))
            want = jv + Fraction(1, 2) * nv * nv + nv * iv - Fraction(1, 2) * nv
            assert got == want

    def test_constant_equation_identity(self):
        sig = LvalueSubstitution.over([Sel(A, (sv(I),))])
        r = sig.symbol(Sel(A, (sv(I),)))
        system = RecurrenceSystem({r: sv(r)}, sig)
        sol = solve_rec(system)
        assert sol.of(r) == sv(r)
        assert verify_solution(system, sol) is None

    def test_geometric_unsolvable(self):
        sig = LvalueSubstitution.over([Sel(I, ())])
        r = sig.symbol(Sel(I, ()))
        out = solve_rec(RecurrenceSystem({r: Bin("*", Const(2), sv(r))}, sig))
        assert isinstance(out, Unsolvable)

    def test_cycle_unsolvable(self):
        sig = LvalueSubstitution.over([Sel(I, ()), Sel(J, ())])
        x, y = sig.symbols()
        out = solve_rec(RecurrenceSystem({x: sv(y), y: sv(x)}, sig))
        assert isinstance(out, Unsolvable)

    def test_equation_less_symbols_are_constants(self):
        # i <- i + k with k unwritten: theta(i) = i + n*k
        sig = LvalueSubstitution.over([Sel(I, ()), Sel(K, ())])
        ri, rk = (sig.symbol(Sel(I, ())), sig.symbol(Sel(K, ())))
        system = RecurrenceSystem({ri: Bin("+", sv(ri), sv(rk))}, sig)
        sol = solve_rec(system)
        assert verify_solution(system, sol) is None
        got = substitute(sol.of(ri), {ri: Const(2), rk: Const(5), N: Const(4)})
        assert eval_expr(got, State({})) == 2 + 4 * 5


class TestVerify:
    def test_off_by_one_counterexample(self):
        sig = LvalueSubstitution.over([Sel(I, ())])
        r = sig.symbol(Sel(I, ()))
        system = RecurrenceSystem({r: plus(sv(r), 1)}, sig)
        bad = RecSolution({r: linearize(Bin("+", plus(sv(r), 1), sv(N)))})
        out = verify_solution(system, bad)
        assert out is not None and "[n/0]" in out

    def test_shift_identity_counterexample(self):
        sig = LvalueSubstitution.over([Sel(I, ())])
        r = sig.symbol(Sel(I, ()))
        system = RecurrenceSystem({r: plus(sv(r), 2)}, sig)
        bad = RecSolution({r: linearize(plus(sv(r), 0))})
        out = verify_solution(system, bad)
        assert out is not None and "[n/n+1]" in out


class TestRoundTrips:
    def test_solvable_fuzz_round_trip(self):
        # random DAG systems in the supported fragment always verify
        rnd = random.Random(23)
        for trial in range(40):
            count = rnd.randint(1, 4)
            lvs = [Sel(Var(f"v{k}"), ()) for k in range(count)]
            sig = LvalueSubstitution.over(lvs)
            syms = sig.symbols()
            eqs = {}
            for pos, r in enumerate(syms):
                q = Const(rnd.randint(-3, 3))
                for prev in syms[:pos]:
                    if rnd.random() < 0.6:
                        q = Bin("+", q, prev if False else sv(prev))
                eqs[r] = Bin("+", sv(r), q)
            system = RecurrenceSystem(eqs, sig)
            sol = solve_rec(system)
            assert not isinstance(sol, Unsolvable)
            assert verify_solution(system, sol) is None

    def test_solutions_are_integral(self):
        # rational coefficients always cancel on integer inputs
        sig = LvalueSubstitution.over([Sel(I, ()), Sel(J, ()), Sel(K, ())])
        ri, rj, rk = sig.symbols()
        system = RecurrenceSystem(
            {ri: plus(sv(ri), 1), rj: Bin("+", sv(rj), sv(ri)),
             rk: Bin("+", sv(rk), sv(rj))}, sig)
        sol = solve_rec(system)
        rnd = random.Random(29)
        for _ in range(200):
            env = {ri: Const(rnd.randint(-9, 9)), rj: Const(rnd.randint(-9, 9)),
                   rk: Const(rnd.randint(-9, 9)), N: Const(rnd.randint(0, 12))}
            for r in (ri, rj, rk):
                v = eval_expr(substitute(sol.of(r), env), State({}))
                assert isinstance(v, int)

    def test_theorem_2_concrete(self, session):
        # closed forms from Rec match run_n probes for n <= 10
        loop = swap_loop()
        verdict = check_a_solvable(loop, session)
        system = build_rec(loop, verdict)
        sol = solve_rec(system)
        rnd = random.Random(31)
        sigma = system.sigma
        for _ in range(10):
            fn = FiniteFn.const(1, rnd.randint(-3, 3),
                                {(p,): rnd.randint(-9, 9) for p in range(-4, 16)})
            s = State({I: rnd.randint(-2, 2), K: 50, A: fn})
            for n in range(0, 11):
                r = run_n(loop, s, n)
                for lv in (Sel(I, ()), Sel(A, (sv(I),))):
                    closed = sigma.unapply(sol.of(sigma.symbol(lv)))
                    got = eval_expr(substitute(closed, {N: Const(n)}), s)
                    assert got == eval_expr(lv, r.state)
