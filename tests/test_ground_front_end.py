"""The ground solver's front end (to_linear, the congruence clauses and the
presolve) against its earlier forms in ground_reference.py: the same polys
and product names, and through ground.check the same answers, models, rows
after presolve and, against eager congruence, presolve logs."""

import functools
import random

import pytest

from loopacc.expr import And, Bin, Const, Ite, Not, Or, Rel, Sel, Var, sv
from loopacc.solver import ground, session
from loopacc.solver.presburger import SolverTimeout, Unsupported

import ground_reference as ref
from test_backend import _check_triple, _hoare_k

XS = [Var(c) for c in "ijkxy"]
ARRS = [Var("a", 1), Var("b", 1), Var("c", 1)]
GRID = Var("m", 2)

# (problem class, linearisation) of each reference: eager congruence over
# today's presolve and to_linear, and the earlier presolve and to_linear
EAGER = (ref.Eager, ground.to_linear)
EARLIER = (ref.GroundProblem, ref.to_linear)


def _rand_term(rnd, arrs, depth):
    roll = rnd.random()
    if depth == 0 or roll < 0.3:
        return sv(rnd.choice(XS)) if rnd.random() < 0.5 else Const(rnd.randint(-3, 3))
    if roll < 0.45 and arrs:
        arr = rnd.choice(arrs)
        return Sel(arr, tuple(_rand_term(rnd, [], depth - 1) for _ in range(arr.arity)))
    if roll < 0.52:
        return Bin("*", _rand_term(rnd, arrs, depth - 1), _rand_term(rnd, arrs, depth - 1))
    if roll < 0.58:
        return Ite(_rand_formula(rnd, arrs, 1), _rand_term(rnd, arrs, depth - 1),
                   _rand_term(rnd, arrs, depth - 1))
    if roll < 0.62:
        return Bin("div", _rand_term(rnd, arrs, depth - 1), Const(rnd.choice([2, 3])))
    return Bin(rnd.choice("+-"), _rand_term(rnd, arrs, depth - 1), _rand_term(rnd, arrs, depth - 1))


def _rand_formula(rnd, arrs, depth):
    if depth == 0 or rnd.random() < 0.4:
        op = rnd.choice(["<", "<=", ">", ">=", "=", "=", "=", "!="])
        return Rel(op, _rand_term(rnd, arrs, 2), _rand_term(rnd, arrs, 2))
    roll = rnd.random()
    if roll < 0.2:
        return Not(_rand_formula(rnd, arrs, depth - 1))
    parts = tuple(_rand_formula(rnd, arrs, depth - 1) for _ in range(2))
    return And(parts) if roll < 0.6 else Or(parts)


def _poly_term(rnd, depth):
    """Const, scalar, + - * only: what to_linear reads after hoisting."""
    if depth == 0 or rnd.random() < 0.3:
        return sv(rnd.choice(XS)) if rnd.random() < 0.6 else Const(rnd.randint(-3, 3))
    return Bin(rnd.choice("+-**"), _poly_term(rnd, depth - 1), _poly_term(rnd, depth - 1))


def test_linpoly_matches_the_reference():
    rnd = random.Random(7)
    products, ref_products = {}, {}
    nonlinear = 0
    for trial in range(500):
        e = _poly_term(rnd, 4)
        got = ground._linpoly(e, products)
        assert got == ref.linpoly(e, ref_products), f"trial {trial}: {e}"
        # the same keys, in the same order, under the same fresh names
        assert list(products.items()) == list(ref_products.items()), f"trial {trial}: {e}"
        nonlinear += any(k in products.values() for k in got)
    assert nonlinear >= 100 and len(products) >= 50


def _run(formulas, declared, monkeypatch, reference=None):
    """ground.check's answer and model, and each presolve's rows and log,
    with the current front end or through ref.check with a reference."""
    presolved = []

    class Recording(reference[0] if reference else ground.GroundProblem):
        def presolve(self, *args):
            left = super().presolve(*args)
            presolved.append((left, list(self.presolve_log)))
            return left

    with monkeypatch.context() as mp:
        # a budget, not a deadline, so that both sides stop at the same node
        mp.setattr(ground, "PresburgerSolver",
                   functools.partial(ground.PresburgerSolver, branch_limit=5_000))
        try:
            if reference:
                status, model = ref.check(formulas, declared, problem=Recording,
                                          linear=reference[1])
            else:
                mp.setattr(ground, "GroundProblem", Recording)
                status, model = ground.check(formulas, declared)
        except (Unsupported, SolverTimeout) as exc:
            return f"{type(exc).__name__}: {exc}", None, presolved
    return status, model and dict(model.items()), presolved


def _same(formulas, declared, monkeypatch, label):
    """The current front end's answer, model and presolve, checked against
    both references; the earlier presolve may log other names."""
    got = _run(formulas, declared, monkeypatch)
    assert got == _run(formulas, declared, monkeypatch, EAGER), label
    status, model, presolved = _run(formulas, declared, monkeypatch, EARLIER)
    assert (status, model, [rows for rows, _ in presolved]) == \
        (got[0], got[1], [rows for rows, _ in got[2]]), label
    return got


@functools.cache
def _hoare_queries(k_max):
    """Every query lamsolve sends the ground solver on Hoare-K, valid and
    mutated, K = 1..k_max."""
    queries = []

    def recording(formulas, declared, deadline=None):
        queries.append((list(formulas), dict(declared)))
        return ground.check(formulas, declared, deadline)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(session, "check", recording)
        for k in range(1, k_max + 1):
            for mutated in (False, True):
                res, _ = _check_triple(_hoare_k(k, mutated))
                assert res.status == ("model" if mutated else "unsat")
    return queries


def test_front_end_matches_the_reference_on_hoare_k(monkeypatch):
    answers = [_same(f, d, monkeypatch, f"query {n}")[0]
               for n, (f, d) in enumerate(_hoare_queries(12))]
    assert {"sat", "unsat"} <= set(answers)


def test_front_end_matches_the_reference_on_random_formulas(monkeypatch):
    rnd = random.Random(17)
    declared = {**{x: 0 for x in XS}, **{a: 1 for a in ARRS}}
    answers = []
    for trial in range(200):
        fs = [_rand_formula(rnd, ARRS, 2) for _ in range(rnd.randint(1, 6))]
        # equalities to presolve, some of which make congruence clauses collapse
        fs += [Rel("=", sv(x), _rand_term(rnd, [], 1)) for x in rnd.sample(XS, rnd.randint(0, 3))]
        answers.append(_same(fs, declared, monkeypatch, f"trial {trial}")[0])
    assert answers.count("sat") >= 50 and answers.count("unsat") >= 20


def _pinned(rnd, arrs):
    """A select of one of arrs, at scalars plus small constants, pinned to a
    small value: with index equalities, pairs of them collapse."""
    arr = rnd.choice(arrs)
    idx = tuple(Bin("+", sv(rnd.choice(XS)), Const(rnd.randint(-1, 1))) for _ in range(arr.arity))
    return Rel("=", Sel(arr, idx), Const(rnd.randint(0, 2)))


def test_congruence_matches_eager_with_2d_selects_and_collapsing_pairs(monkeypatch):
    # selects of a 1- and a 2-dimensional array pinned to values, and index
    # equalities: presolve makes pairs of selects equal (their clause
    # collapses to units) or contradictory ([False]), or tells them apart
    rnd = random.Random(29)
    arrs = [ARRS[0], GRID]
    declared = {**{x: 0 for x in XS}, ARRS[0]: 1, GRID: 2}
    answers, false_rows = [], 0
    for trial in range(150):
        fs = [_pinned(rnd, arrs) for _ in range(rnd.randint(2, 6))]
        fs += [_rand_formula(rnd, arrs, 1) for _ in range(rnd.randint(0, 2))]
        fs += [Rel("=", sv(x), Bin("+", sv(rnd.choice(XS)), Const(rnd.randint(-1, 1))))
               for x in rnd.sample(XS, rnd.randint(1, 4))]
        status, _, presolved = _same(fs, declared, monkeypatch, f"trial {trial}")
        answers.append(status)
        false_rows += any(rows == [False] for rows, _ in presolved)
    assert answers.count("sat") >= 30 and answers.count("unsat") >= 30 and false_rows >= 20


def test_selects_of_one_array_never_have_equal_index_rows(monkeypatch):
    # a[i + j] and a[j + i], a[2 * i] and a[i + i]: the simplifier gives each
    # pair one normal form, so one select, before the index rows are made;
    # two selects of an array never have equal rows
    rnd = random.Random(31)
    recorded = []

    def array_axioms(gp, real=ground.GroundProblem.array_axioms):
        out = real(gp)
        recorded.extend(rows for rows, _ in out)
        return out

    monkeypatch.setattr(ground.GroundProblem, "array_axioms", array_axioms)
    declared = {**{x: 0 for x in XS}, ARRS[0]: 1, GRID: 2}
    i, j = sv(XS[0]), sv(XS[1])
    same = [(Bin("+", i, j), Bin("+", j, i)), (Bin("*", Const(2), i), Bin("+", i, i))]
    answers = []
    for trial in range(60):
        e1, e2 = rnd.choice(same)
        a, g = ARRS[0], GRID
        fs = [Rel(rnd.choice(["=", "<=", "!="]), Sel(a, (e1,)), Sel(a, (e2,))),
              Rel(rnd.choice(["=", ">=", "!="]), Sel(g, (e1, i)), Sel(g, (e2, i))),
              _rand_formula(rnd, [a, g], 1)]
        answers.append(_same(fs, declared, monkeypatch, f"trial {trial}")[0])
    assert answers.count("sat") >= 10 and answers.count("unsat") >= 10
    assert len(recorded) >= 10  # arrays with two selects or more
    for rows in recorded:
        keys = [tuple(frozenset(p.items()) for p in row) for row in rows]
        assert len(set(keys)) == len(keys), rows
