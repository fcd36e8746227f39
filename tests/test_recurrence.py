"""Recurrence systems: construction from inductive lvalues, the solving
fragment, identity verification, and concrete agreement with the interpreter."""

import random
from fractions import Fraction

from pathlib import Path

from loopacc.classify import LvalueClass, check_a_solvable
from loopacc.expr import Bin, Const, FiniteFn, Sel, State, Var, eval_expr, substitute, sv
from loopacc.gen import gen_loop
from loopacc.loop import Loop, Rel, run_n
from loopacc.problem import parse_problem
from loopacc.recurrence import N, RecSolution, Unsolvable, build_rec, solve_rec, verify_solution
from loopacc.sexpr import to_text
from loopacc.simplify import linearize

from conftest import A, I, J, K, decrement_loop, plus, swap_loop
from rec_reference import build_rec_by_search

EXAMPLES = Path(__file__).resolve().parent.parent / "examples_problems"


def _equations_text(system):
    return [(to_text(lv), to_text(e)) for lv, e in system.items()]


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
            got = _equations_text(build_rec(loop, verdict))
            want = _equations_text(build_rec_by_search(loop, verdict, verdict.up, session))
            assert got == want, to_text(loop.guard)
            assert all(c.partner is not None for c in verdict.labels.values()
                       if c.label == LvalueClass.INDUCTIVE)
            equations += len(got)
        assert equations > len(loops)

    def test_swap(self, session):
        loop = swap_loop()
        system = build_rec(loop, check_a_solvable(loop, session))
        ai = Sel(A, (sv(I),))
        assert system[sv(I)] == plus(sv(I), 1)
        assert system[ai] == ai
        assert len(system) == 2  # a[i+1] is displacing: no equation

    def test_decrement(self, session):
        loop = decrement_loop()
        system = build_rec(loop, check_a_solvable(loop, session))
        assert system[sv(I)] == Bin("-", sv(I), Const(1))

    def test_dependent_scalars(self, session):
        # i <- i+1, j <- j+i
        loop = Loop(Rel("<", sv(I), sv(K)),
                    (Sel(I, ()), Sel(J, ())),
                    (plus(sv(I), 1), Bin("+", sv(J), sv(I))))
        system = build_rec(loop, check_a_solvable(loop, session))
        assert system[sv(J)] == Bin("+", sv(J), sv(I))


class TestSolve:
    def test_dependent_counters_polynomial_solution(self):
        system = {sv(I): plus(sv(I), 1), sv(J): Bin("+", sv(J), sv(I))}
        sol = solve_rec(system)
        assert not isinstance(sol, Unsolvable)
        assert verify_solution(system, sol) is None
        # theta(j) = j + n^2/2 + n*i - n/2 at 100 random points
        rnd = random.Random(17)
        for _ in range(100):
            iv, jv, nv = rnd.randint(-10, 10), rnd.randint(-10, 10), rnd.randint(0, 10)
            closed = substitute(sol.of(sv(J)), {I: Const(iv), J: Const(jv), N: Const(nv)})
            got = eval_expr(closed, State({}))
            want = jv + Fraction(1, 2) * nv * nv + nv * iv - Fraction(1, 2) * nv
            assert got == want

    def test_constant_equation_identity(self):
        ai = Sel(A, (sv(I),))
        system = {ai: ai}
        sol = solve_rec(system)
        assert sol.of(ai) == ai
        assert verify_solution(system, sol) is None

    def test_geometric_unsolvable(self):
        out = solve_rec({sv(I): Bin("*", Const(2), sv(I))})
        assert isinstance(out, Unsolvable)

    def test_cycle_unsolvable(self):
        out = solve_rec({sv(I): sv(J), sv(J): sv(I)})
        assert isinstance(out, Unsolvable)

    def test_equation_less_symbols_are_constants(self):
        # i <- i + k with k unwritten: theta(i) = i + n*k
        system = {sv(I): Bin("+", sv(I), sv(K))}
        sol = solve_rec(system)
        assert verify_solution(system, sol) is None
        got = substitute(sol.of(sv(I)), {I: Const(2), K: Const(5), N: Const(4)})
        assert eval_expr(got, State({})) == 2 + 4 * 5

    def test_self_coefficient_other_than_one_is_named(self):
        i = sv(I)
        for rhs, coeff in ((Const(5), "0"), (Bin("*", Const(2), i), "2"),
                           (Bin("*", i, i), "0"), (Bin("-", Const(0), i), "-1")):
            out = solve_rec({i: rhs})
            assert out == Unsolvable(f"equation for i is not rec' = rec + q "
                                     f"(self coefficient {coeff})"), to_text(rhs)
        out = solve_rec({i: Bin("*", i, Bin("+", sv(K), Const(1)))})
        assert out == Unsolvable("equation for i is not rec' = rec + q "
                                 "(self coefficient (+ k 1))")
        ai = Sel(A, (i,))
        out = solve_rec({ai: Bin("*", Const(2), ai)})
        assert out == Unsolvable("equation for (select a i) is not rec' = rec + q "
                                 "(self coefficient 2)")

    def test_an_opaque_term_over_an_inductive_symbol_is_unsolvable(self):
        # s <- s + (div i 2) with i <- i + 1: (div i 2) changes every
        # iteration, so summing it as a constant would be wrong
        half = lambda x: Bin("div", sv(x), Const(2))
        for eqs, term in (({sv(I): plus(sv(I), 1), sv(J): Bin("+", sv(J), half(I))}, "(div i 2)"),
                          ({sv(J): Bin("+", sv(J), half(J))}, "(div j 2)")):
            out = solve_rec(eqs)
            assert out == Unsolvable(f"inductive lvalue inside an opaque term: {term}")
        # over the equation-less k it is a constant: theta(j) = j + n * (k div 2)
        system = {sv(I): plus(sv(I), 1), sv(J): Bin("+", sv(J), half(K))}
        sol = solve_rec(system)
        assert verify_solution(system, sol) is None
        got = substitute(sol.of(sv(J)), {J: Const(1), K: Const(7), N: Const(4)})
        assert eval_expr(got, State({})) == 1 + 4 * 3


class TestVerify:
    def test_off_by_one_counterexample(self):
        system = {sv(I): plus(sv(I), 1)}
        bad = RecSolution({sv(I): linearize(Bin("+", plus(sv(I), 1), sv(N)))})
        out = verify_solution(system, bad)
        assert out is not None and "[n/0]" in out

    def test_shift_identity_counterexample(self):
        system = {sv(I): plus(sv(I), 2)}
        bad = RecSolution({sv(I): linearize(plus(sv(I), 0))})
        out = verify_solution(system, bad)
        assert out is not None and "[n/n+1]" in out


class TestRoundTrips:
    def test_solvable_fuzz_round_trip(self):
        # random DAG systems in the supported fragment always verify
        rnd = random.Random(23)
        for trial in range(40):
            count = rnd.randint(1, 4)
            lvs = [sv(Var(f"v{k}")) for k in range(count)]
            eqs = {}
            for pos, lv in enumerate(lvs):
                q = Const(rnd.randint(-3, 3))
                for prev in lvs[:pos]:
                    if rnd.random() < 0.6:
                        q = Bin("+", q, prev)
                eqs[lv] = Bin("+", lv, q)
            sol = solve_rec(eqs)
            assert not isinstance(sol, Unsolvable)
            assert verify_solution(eqs, sol) is None

    def test_solutions_are_integral(self):
        # rational coefficients always cancel on integer inputs
        system = {sv(I): plus(sv(I), 1), sv(J): Bin("+", sv(J), sv(I)),
                  sv(K): Bin("+", sv(K), sv(J))}
        sol = solve_rec(system)
        rnd = random.Random(29)
        for _ in range(200):
            env = {I: Const(rnd.randint(-9, 9)), J: Const(rnd.randint(-9, 9)),
                   K: Const(rnd.randint(-9, 9)), N: Const(rnd.randint(0, 12))}
            for lv in system:
                v = eval_expr(substitute(sol.of(lv), env), State({}))
                assert isinstance(v, int)

    def test_theorem_2_concrete(self, session):
        # closed forms from Rec match run_n probes for n <= 10
        loop = swap_loop()
        verdict = check_a_solvable(loop, session)
        sol = solve_rec(build_rec(loop, verdict))
        rnd = random.Random(31)
        for _ in range(10):
            fn = FiniteFn.const(1, rnd.randint(-3, 3),
                                {(p,): rnd.randint(-9, 9) for p in range(-4, 16)})
            s = State({I: rnd.randint(-2, 2), K: 50, A: fn})
            for n in range(0, 11):
                r = run_n(loop, s, n)
                for lv in (Sel(I, ()), Sel(A, (sv(I),))):
                    got = eval_expr(substitute(sol.of(lv), {N: Const(n)}), s)
                    assert got == eval_expr(lv, r.state)
