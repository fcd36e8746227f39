"""The tree rewriters of loopacc.expr (substitute, beta_reduce, lval_set,
substitute_lvalues) against the hand-written walkers they replaced, kept in
rewrite_reference.py: the same output and the same fresh names drawn, on the
terms the pipeline rewrites for generated loops and the examples.  Unit
tests of map_children, which the rewriters share."""

import itertools
import random
from pathlib import Path

import pytest

from loopacc import expr
from loopacc.accel import accelerate, encode_reachability
from loopacc.arrayform import ArrayFormError, closed_form_array
from loopacc.closedform import Failure, closed_forms_all
from loopacc.expr import (
    And, Bin, BoolConst, Const, Ite, Lam, Not, Or, Rel, Sel, Var, beta_reduce, lval_set,
    map_children, substitute, substitute_lvalues, sv,
)
from loopacc.gen import gen_loop
from loopacc.loop import build_up
from loopacc.problem import parse_problem
from loopacc.recurrence import N

import rewrite_reference as ref
from conftest import A, I, K, plus
from test_expr import AR, SC, gen_expr, gen_formula

EXAMPLES = Path(__file__).resolve().parent.parent / "examples_problems"
CASES = [f"gen{seed}" for seed in range(40)] + sorted(p.name for p in EXAMPLES.glob("*.loop"))


def problem(case):
    """(init, loop, post) of a case; a generated loop has neither init nor post."""
    if case.startswith("gen"):
        return [], gen_loop(int(case[3:])).loop, []
    pf = parse_problem(EXAMPLES / case)
    return pf.init, pf.loop, pf.post or []


def agree(monkeypatch, new, old, *args):
    """new(*args) == old(*args), each side run from a fresh-name counter at 0
    and drawing as many fresh names; returns the common output."""
    sides = []
    for fn in (new, old):
        monkeypatch.setattr(expr, "_fresh_counter", itertools.count())
        sides.append((fn(*args), expr.fresh_name("next")))
    assert sides[0] == sides[1], args
    return sides[0][0]


@pytest.mark.parametrize("case", CASES)
def test_rewriters_agree_with_the_reference(case, session, monkeypatch):
    init, loop, post = problem(case)
    up = build_up(loop)

    def apply_ref(e):
        return ref.beta_reduce(ref.substitute(e, up.mapping))

    # the update substitution, once and twice, on each lvalue index, each
    # right-hand side and the guard
    for e in [ix for lv in loop.lvalues for ix in lv.idx] + [*loop.rhs, loop.guard]:
        agree(monkeypatch, up.apply, apply_ref, agree(monkeypatch, up.apply, apply_ref, e))
    forms = closed_forms_all(loop, session)
    assert not isinstance(forms, Failure) or not case.startswith("gen"), forms
    if isinstance(forms, Failure):
        return
    # the table entries at each n, as the oracle substitutes them
    for _, cf in forms.table.items():
        for n in range(9):
            agree(monkeypatch, substitute, ref.substitute, cf, {N: Const(n)})
    # the array closed forms at each n, applied to a point, and their bodies
    bodies = []
    for x in sorted(loop.written_vars(), key=lambda v: v.name):
        if not x.arity:
            continue
        try:
            lam = closed_form_array(loop, x, forms.table, up)
        except ArrayFormError:
            continue
        for n in range(9):
            at_n = agree(monkeypatch, substitute, ref.substitute, lam, {N: Const(n)})
            point = tuple(Const(n - j) for j in range(x.arity))
            agree(monkeypatch, beta_reduce, ref.beta_reduce, Sel(at_n, point))
        # n := a parameter captures it, so each copy of the lambda is renamed,
        # those in an application's indices before its head
        nested = Sel(lam, tuple(Sel(lam, point) for _ in lam.params))
        captured = agree(monkeypatch, substitute, ref.substitute, nested, {N: sv(lam.params[0])})
        agree(monkeypatch, beta_reduce, ref.beta_reduce, captured)
        bodies.append(lam.body)
    # the reachability literals (a generated loop's transition), reduced, with
    # their top-level lvalues and those replaced by the table's closed forms
    t = accelerate(loop, session)
    lits = [] if isinstance(t, Failure) else encode_reachability(init, t, post)
    for f in lits + bodies + [loop.guard, *loop.rhs]:
        agree(monkeypatch, beta_reduce, ref.beta_reduce, f)
        lvs = agree(monkeypatch, lval_set, ref.lval_set, f)
        mapping = {lv: forms.table.of(lv) for lv in lvs if lv in forms.table}
        agree(monkeypatch, substitute_lvalues, ref.substitute_lvalues, f, mapping)


def test_rewriters_agree_with_the_reference_on_random_terms(monkeypatch):
    # nested redexes, lambdas whose parameters an image captures, and array
    # literals, which the pipeline's terms hold few or none of
    rnd = random.Random(21)
    u, p0 = Var("u"), Var("p0")
    fresh = 0
    for _ in range(400):
        e = gen_formula(rnd, 4, SC, AR) if rnd.random() < 0.5 else gen_expr(rnd, 4, SC, AR)
        image = gen_expr(rnd, 2, [I, p0], AR)
        lam = Lam((p0,), gen_expr(rnd, 2, SC + [p0], AR))
        if isinstance(e, (Rel, Not, And, Or)):  # a formula, beside an array literal
            f = And((Rel("=", A, Lam((p0,), Sel(lam, (sv(p0),)))), e))
        else:  # an expression, beside a redex whose index it is
            f = Bin("+", e, Sel(lam, (e,)))
        for g in (e, f):
            agree(monkeypatch, beta_reduce, ref.beta_reduce, g)
            agree(monkeypatch, substitute, ref.substitute, g, {u: image, A: lam})
            fresh += expr.fresh_name("next") != "next!1"  # a parameter was renamed
            lvs = agree(monkeypatch, lval_set, ref.lval_set, g)
            agree(monkeypatch, substitute_lvalues, ref.substitute_lvalues, g,
                  {lv: Const(k) for k, lv in enumerate(lvs)})
    assert fresh >= 50


J0 = Var("j0")
LAM = Lam((J0,), Bin("+", sv(J0), Sel(A, (sv(I),))))
NODES = [  # (node, its children in visiting order)
    (Var("x"), []),
    (Const(3), []),
    (BoolConst(True), []),
    (sv(I), [I]),
    (Sel(A, (plus(sv(I), 1),)), [plus(sv(I), 1), A]),
    (Sel(LAM, (Const(1),)), [Const(1), LAM]),
    (Bin("*", sv(I), Const(2)), [sv(I), Const(2)]),
    (Rel("<", sv(I), sv(K)), [sv(I), sv(K)]),
    (Rel("=", A, LAM), [A, LAM]),
    (Ite(Rel("<", sv(I), sv(K)), Const(1), sv(K)), [Rel("<", sv(I), sv(K)), Const(1), sv(K)]),
    (LAM, [LAM.body]),
    (Not(Rel("<", sv(I), sv(K))), [Rel("<", sv(I), sv(K))]),
    (And((Rel("<", sv(I), sv(K)), BoolConst(False))), [Rel("<", sv(I), sv(K)), BoolConst(False)]),
    (Or((BoolConst(True), Rel("!=", sv(K), Const(0)))), [BoolConst(True), Rel("!=", sv(K), Const(0))]),
]


@pytest.mark.parametrize("e, children", NODES)
def test_map_children_visits_each_child_in_order_and_keeps_an_unchanged_node(e, children):
    seen = []

    def identity(c, tag):
        seen.append((c, tag))
        return c

    assert map_children(e, identity, "t") is e
    assert seen == [(c, "t") for c in children]


def test_map_children_rebuilds_around_a_changed_child():
    def one_to_two(c):
        return Const(2) if c == Const(1) else c

    e = Ite(Rel("<", sv(I), Const(1)), Const(1), Bin("+", Const(1), sv(K)))
    assert map_children(e, one_to_two) == Ite(e.cond, Const(2), e.other)
    args = And((Rel("<", sv(I), sv(K)), BoolConst(True), Rel("=", sv(K), Const(1))))
    assert map_children(args, lambda f: map_children(f, one_to_two)) == \
        And((args.args[0], BoolConst(True), Rel("=", sv(K), Const(2))))
    assert map_children(Sel(A, (Const(1),)), one_to_two) == Sel(A, (Const(2),))


@pytest.mark.parametrize("e", [3, "i", (Var, "i", 0), [sv(I)], None])
def test_map_children_rejects_a_non_node(e):
    with pytest.raises(TypeError, match="not an expression"):
        map_children(e, lambda c: c)
