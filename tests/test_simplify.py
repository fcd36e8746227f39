"""Normal forms: constant folding, linear normalization, guard collapse; the
rewrites must preserve evaluation on the fuzz corpus."""

import random
from fractions import Fraction

from loopacc.arrayform import closed_form_array
from loopacc.closedform import closed_forms_all
from loopacc.expr import (
    And, Bin, BoolConst, Const, EvalError, Ite, Lam, Not, Or, Rel, Sel, TRUE, Var, sv,
)
from loopacc.gen import gen_loop
from loopacc.loop import build_up
from loopacc.sexpr import to_text
from loopacc.simplify import (
    as_int_const, eliminate, linearize, polys_equal, simplify, simplify_formula,
)

import fraction_simplify as ref
from conftest import A, I, J, K, plus
from test_expr import AR, SC, fuzz_state, gen_expr, gen_formula, _try_eval


def test_ite_valid_guard_collapses():
    e = Ite(Rel("=", plus(sv(I), 1), plus(sv(I), 1)), Sel(A, (sv(I),)),
            Sel(A, (plus(sv(I), 1),)))
    assert simplify(e) == Sel(A, (sv(I),))


def test_linear_normalization():
    e = Bin("-", Bin("+", plus(sv(I), 1), sv(Var("n"))), Const(1))
    assert simplify(e) == Bin("+", sv(I), sv(Var("n")))


def test_cancellation_to_true():
    c = Var("c")
    f = Rel("=", Bin("-", Bin("+", sv(I), sv(c)), sv(I)), sv(c))
    assert simplify_formula(f) == BoolConst(True)


def test_constant_relations():
    assert simplify_formula(Rel("<", Const(2), Const(3))) == BoolConst(True)
    assert simplify_formula(Rel(">=", Const(2), Const(3))) == BoolConst(False)


def test_gcd_tightening():
    # 2i <= 5  <=>  i <= 2 over the integers
    f = simplify_formula(Rel("<=", Bin("*", Const(2), sv(I)), Const(5)))
    assert f == Rel("<=", sv(I), Const(2))


def test_equality_gcd_infeasible():
    f = simplify_formula(Rel("=", Bin("*", Const(2), sv(I)), Const(3)))
    assert f == BoolConst(False)
    g = simplify_formula(Rel("!=", Bin("*", Const(2), sv(I)), Const(3)))
    assert g == BoolConst(True)


def test_divisibility_rules():
    assert simplify_formula(Rel("divides", Const(1), sv(I))) == BoolConst(True)
    two_i_plus_3 = Bin("+", Bin("*", Const(2), sv(I)), Const(3))
    assert simplify_formula(Rel("divides", Const(2), two_i_plus_3)) == BoolConst(False)
    two_i_plus_4 = Bin("+", Bin("*", Const(2), sv(I)), Const(4))
    assert simplify_formula(Rel("divides", Const(2), two_i_plus_4)) == BoolConst(True)


def test_exact_division_folds():
    e = Bin("div", Bin("+", Bin("*", Const(2), sv(I)), Const(4)), Const(2))
    assert simplify(e) == Bin("+", sv(I), Const(2))


def test_and_contradiction_interval():
    f = And((Rel(">=", Bin("-", sv(J), sv(I)), Const(0)),
             Rel("<=", Bin("-", sv(J), sv(I)), Const(-1))))
    assert simplify_formula(f) == BoolConst(False)


def test_polys_equal_across_syntax():
    a = Bin("+", sv(I), plus(sv(K), 2))
    b = Bin("+", Const(2), Bin("+", sv(K), sv(I)))
    assert polys_equal(a, b)
    assert as_int_const(Bin("-", a, b)) == 0


def test_simplify_preservation_fuzz():
    rnd = random.Random(11)
    checked = 0
    for _ in range(1500):
        e = gen_expr(rnd, 3, SC, AR)
        s = fuzz_state(rnd, SC, AR)
        ok, want = _try_eval(e, s)
        if not ok:
            continue
        ok2, got = _try_eval(simplify(e), s)
        assert ok2 and got == want, f"{e} -> {simplify(e)}"
        checked += 1
    assert checked >= 1000


def test_simplify_formula_preservation_fuzz():
    from loopacc.expr import eval_formula

    rnd = random.Random(12)
    checked = 0
    for _ in range(1200):
        f = gen_formula(rnd, 3, SC, AR)
        s = fuzz_state(rnd, SC, AR)
        try:
            want = eval_formula(f, s)
        except EvalError:
            continue
        try:
            got = eval_formula(simplify_formula(f), s)
        except EvalError:
            continue
        assert got == want
        checked += 1
    assert checked >= 800


def _constant_definition(f):
    """x = k defines x."""
    if isinstance(f, Rel) and f.op == "=" and isinstance(f.right, Const) \
            and isinstance(f.left, Sel) and not f.left.idx:
        return f.left.arr, f.right
    return None


def test_eliminate_takes_an_earlier_literal_a_substitution_made_definable():
    x, y, w = Var("x"), Var("y"), Var("w")
    lits = [Rel(">=", sv(I), Const(0)),
            simplify_formula(Rel("=", Bin("+", sv(x), sv(y)), Const(3))),
            Rel("=", sv(y), Const(1)),
            Rel("=", sv(w), Const(5))]
    rest, log = eliminate(lits, _constant_definition)
    # y = 1 turns x + y = 3 into x = 2, which comes before w = 5
    assert log == [(y, Const(1)), (x, Const(2)), (w, Const(5))]
    assert rest == [Rel(">=", sv(I), Const(0))]


def test_eliminate_drops_true_literals_without_a_definition():
    lit = Rel(">=", sv(I), Const(0))
    assert eliminate([TRUE, lit, TRUE], lambda f: None) == ([lit], [])


def _generated_terms(seeds):
    """Expressions and formulas met on generated loops: rhs, guards, recurrence
    equations, lvalue closed forms and array lambdas; and the recurrence
    solutions' polynomials."""
    terms, polys = [], []
    for seed in seeds:
        loop = gen_loop(seed).loop
        terms += [loop.guard, *loop.rhs]
        forms = closed_forms_all(loop)
        terms += [e for _, e in forms.system] + list(forms.table.entries.values())
        polys += forms.solution.polys.values()
        up = build_up(loop)
        terms += [closed_form_array(loop, x, forms.table, up)
                  for x in sorted(loop.written_vars(), key=lambda v: v.name) if x.arity]
    return terms, polys


def _assert_narrow(poly):
    # an integral coefficient is an int, never an integral Fraction
    for c in poly.values():
        assert c.__class__ is int or (c.__class__ is Fraction and c.denominator != 1), poly


def test_int_coefficients_match_the_fraction_reference():
    rnd = random.Random(23)
    terms, polys = _generated_terms(range(60))
    terms += [gen_expr(rnd, 4, SC, AR) for _ in range(600)]
    terms += [gen_formula(rnd, 3, SC, AR) for _ in range(600)]
    for t in terms:
        if isinstance(t, (BoolConst, Rel, Not, And, Or)):
            assert to_text(simplify_formula(t)) == to_text(ref.simplify_formula(t))
            continue
        assert to_text(simplify(t)) == to_text(ref.simplify(t))
        if not isinstance(t, (Var, Lam)):
            p = linearize(t)
            assert p == ref.linearize(t)
            assert all(c.__class__ is int for c in p.values()), p
    for p in polys:
        _assert_narrow(p)
    # the power sums put true fractions into some solutions
    assert any(c.__class__ is Fraction for p in polys for c in p.values())
