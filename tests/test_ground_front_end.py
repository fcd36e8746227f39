"""The ground solver's front end (to_linear and the presolve) against its
earlier form in ground_reference.py: the same polys and product names, and
through ground.check the same answers, models and rows after presolve."""

import functools
import random

from loopacc.expr import And, Bin, Const, Ite, Not, Or, Rel, Sel, Var, sv
from loopacc.solver import ground, session
from loopacc.solver.presburger import SolverTimeout, Unsupported

import ground_reference as ref
from test_backend import _check_triple, _hoare_k

XS = [Var(c) for c in "ijkxy"]
ARRS = [Var("a", 1), Var("b", 1), Var("c", 1)]


def _rand_term(rnd, arrs, depth):
    roll = rnd.random()
    if depth == 0 or roll < 0.3:
        return sv(rnd.choice(XS)) if rnd.random() < 0.5 else Const(rnd.randint(-3, 3))
    if roll < 0.45 and arrs:
        return Sel(rnd.choice(arrs), (_rand_term(rnd, [], depth - 1),))
    if roll < 0.52:
        return Bin("*", _rand_term(rnd, arrs, depth - 1), _rand_term(rnd, arrs, depth - 1))
    if roll < 0.58:
        # one array at most: an ite condition holds no array equality
        return Ite(_rand_formula(rnd, arrs[:1], 1), _rand_term(rnd, arrs, depth - 1),
                   _rand_term(rnd, arrs, depth - 1))
    if roll < 0.62:
        return Bin("div", _rand_term(rnd, arrs, depth - 1), Const(rnd.choice([2, 3])))
    return Bin(rnd.choice("+-"), _rand_term(rnd, arrs, depth - 1), _rand_term(rnd, arrs, depth - 1))


def _rand_formula(rnd, arrs, depth):
    if depth == 0 or rnd.random() < 0.4:
        if rnd.random() < 0.1 and len(arrs) > 1:
            return Rel(rnd.choice(["=", "!="]), *rnd.sample(arrs, 2))
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
        assert ground._linpoly(e, products) == ref.linpoly(e, ref_products), f"trial {trial}: {e}"
        # the same keys, in the same order, under the same fresh names
        assert list(products.items()) == list(ref_products.items()), f"trial {trial}: {e}"
        try:
            want = ref.linpoly(e)
        except Unsupported:
            want = "nonlinear"
            nonlinear += 1
        try:
            got = ground._linpoly(e)
        except Unsupported:
            got = "nonlinear"
        assert got == want, f"trial {trial}: {e}"
    assert nonlinear >= 100 and len(products) >= 50


def _run(formulas, declared, monkeypatch, reference: bool):
    """ground.check's answer and model, and the rows after each presolve,
    with the current front end or the reference one."""
    rows = []

    class Recording(ref.GroundProblem if reference else ground.GroundProblem):
        def presolve(self, conjuncts):
            left = super().presolve(conjuncts)
            rows.append(left)
            return left

    with monkeypatch.context() as mp:
        mp.setattr(ground, "GroundProblem", Recording)
        # a budget, not a deadline, so that both sides stop at the same node
        mp.setattr(ground, "PresburgerSolver",
                   functools.partial(ground.PresburgerSolver, branch_limit=5_000))
        if reference:
            mp.setattr(ground, "to_linear", ref.to_linear)
        try:
            status, model = ground.check(formulas, declared)
        except (Unsupported, SolverTimeout) as exc:
            return f"{type(exc).__name__}: {exc}", None, rows
    return status, model and dict(model.items()), rows


def _same(formulas, declared, monkeypatch, label):
    got = _run(formulas, declared, monkeypatch, False)
    assert got == _run(formulas, declared, monkeypatch, True), label
    return got[0]


def test_front_end_matches_the_reference_on_hoare_k(monkeypatch):
    # every query lamsolve sends the ground solver on Hoare-K, K = 1..8
    queries = []

    def recording(formulas, declared, deadline=None):
        queries.append((list(formulas), dict(declared)))
        return ground.check(formulas, declared, deadline)

    with monkeypatch.context() as mp:
        mp.setattr(session, "check", recording)
        for k in range(1, 9):
            for mutated in (False, True):
                res, verified, _ = _check_triple(_hoare_k(k, mutated))
                assert (res.status, verified) == (("model", True) if mutated else ("unsat", False))
    answers = [_same(f, d, monkeypatch, f"query {n}") for n, (f, d) in enumerate(queries)]
    assert {"sat", "unsat"} <= set(answers)


def test_front_end_matches_the_reference_on_random_formulas(monkeypatch):
    rnd = random.Random(17)
    declared = {**{x: 0 for x in XS}, **{a: 1 for a in ARRS}}
    answers = []
    for trial in range(200):
        fs = [_rand_formula(rnd, ARRS, 2) for _ in range(rnd.randint(1, 6))]
        # equalities to presolve, some of which make congruence clauses collapse
        fs += [Rel("=", sv(x), _rand_term(rnd, [], 1)) for x in rnd.sample(XS, rnd.randint(0, 3))]
        answers.append(_same(fs, declared, monkeypatch, f"trial {trial}"))
    assert answers.count("sat") >= 50 and answers.count("unsat") >= 20
