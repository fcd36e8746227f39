"""Evaluation, substitution, beta reduction, top-level lvalues, free
variables; fuzzed preservation properties."""

import copy
import itertools
import pickle
import random

import pytest

from loopacc.expr import (
    FALSE, TRUE, And, ArityMismatch, Bin, BoolConst, Const, EvalError, ExprError,
    FiniteFn, Ite, Lam, Not, Or, Rel, Sel, State, UnboundVariable, Var,
    beta_reduce, eval_expr, eval_formula, free_vars, lval_set, substitute,
    substitute_lvalues, sv,
)

from conftest import A, I, J, K, identity_state, plus


def swap_up_a():
    j = Var("j")
    return Lam((j,), Ite(Rel("=", sv(j), plus(sv(I), 1)), Sel(A, (sv(I),)),
               Ite(Rel("=", sv(j), sv(I)), Sel(A, (plus(sv(I), 1),)), Sel(A, (sv(j),)))))


class TestNodes:
    def test_kinds_with_equal_fields_differ(self):
        # constructors do not check the operator, so Bin and Rel can share one
        pairs = [(Const(1), BoolConst(True)),
                 (Bin("<", sv(I), Const(0)), Rel("<", sv(I), Const(0))),
                 (And((TRUE, FALSE)), Or((TRUE, FALSE))),
                 (Not(TRUE), And((TRUE,)))]
        for a, b in pairs:
            assert a != b and hash(a) != hash(b), (a, b)
            assert len({a, b}) == 2

    def test_equal_terms_built_separately(self):
        def term():
            j = Var("j")
            return Lam((j,), Ite(Rel("<", sv(j), Const(3)), Sel(A, (sv(j),)),
                                 Bin("div", sv(I), Const(2))))
        a, b = term(), term()
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_signatures_and_defaults(self):
        assert Var("x") == Var("x", 0) == Var(name="x", arity=0)
        assert Sel(I) == Sel(arr=I, idx=())
        assert Bin(op="+", left=Const(1), right=Const(2)) == Bin("+", Const(1), Const(2))
        lam = swap_up_a()
        assert (lam.params, lam.body.cond.op, lam.body.then.arr) == ((Var("j"),), "=", A)

    def test_constructor_checks(self):
        with pytest.raises(ArityMismatch):
            Sel(A, ())
        with pytest.raises(ArityMismatch):
            Sel(I, (Const(0),))
        with pytest.raises(ExprError, match="duplicate"):
            Lam((Var("j"), Var("j")), Const(0))
        with pytest.raises(ArityMismatch, match="must be scalar"):
            Lam((A,), Const(0))

    def test_immutable(self):
        for node, name in [(I, "name"), (Const(1), "value"), (Bin("+", sv(I), sv(K)), "left"),
                           (swap_up_a(), "body"), (Sel(I), "idx"), (And(()), "args")]:
            with pytest.raises(AttributeError):
                setattr(node, name, Const(0))
        with pytest.raises(AttributeError):
            Const(1).extra = 2

    def test_repr_text(self):
        j = Var("j")
        assert [repr(n) for n in (
            Var("x"), A, Const(-1), Bin("+", sv(I), Const(2)), Lam((j,), sv(j)),
            Sel(A, (Const(1),)), Ite(TRUE, Const(1), Const(2)), FALSE,
            Rel("<", Const(1), sv(K)), Not(TRUE), And((TRUE, FALSE)), Or(()),
        )] == [
            "Var('x')", "Var('a', 1)", "Const(value=-1)",
            "Bin(op='+', left=Sel(arr=Var('i'), idx=()), right=Const(value=2))",
            "Lam(params=(Var('j'),), body=Sel(arr=Var('j'), idx=()))",
            "Sel(arr=Var('a', 1), idx=(Const(value=1),))",
            "Ite(cond=BoolConst(value=True), then=Const(value=1), other=Const(value=2))",
            "BoolConst(value=False)",
            "Rel(op='<', left=Const(value=1), right=Sel(arr=Var('k'), idx=()))",
            "Not(arg=BoolConst(value=True))",
            "And(args=(BoolConst(value=True), BoolConst(value=False)))",
            "Or(args=())",
        ]

    def test_copy_and_pickle(self):
        lam = swap_up_a()
        for twin in (copy.copy(lam), copy.deepcopy(lam), pickle.loads(pickle.dumps(lam))):
            assert twin == lam and type(twin.body) is Ite


class TestEval:
    def test_swap_lambda_under_identity(self):
        # with i=0 and a = identity the update maps 1->0, 0->1, j->j otherwise
        fn = eval_expr(swap_up_a(), identity_state())
        assert fn((1,)) == 0
        assert fn((0,)) == 1
        for j in (-3, 2, 7):
            assert fn((j,)) == j

    def test_constant(self):
        assert eval_expr(Const(7), State({})) == 7

    def test_cell_sum(self):
        e = Bin("+", Sel(A, (sv(I),)), Sel(A, (plus(sv(I), 1),)))
        assert eval_expr(e, State({I: 2, A: FiniteFn.identity()})) == 5

    def test_floor_division(self):
        assert eval_expr(Bin("div", Const(-7), Const(2)), State({})) == -4
        assert eval_expr(Bin("div", Const(7), Const(-2)), State({})) == -4

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            eval_expr(Bin("div", Const(1), Const(0)), State({}))

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            eval_expr(sv(I), State({}))

    def test_arity_mismatch_at_construction(self):
        with pytest.raises(ArityMismatch):
            Sel(A, ())

    def test_finite_fn_background_is_arity_long(self):
        with pytest.raises(ArityMismatch):
            FiniteFn(2, 0, (1,))
        with pytest.raises(ArityMismatch):
            FiniteFn(1, 0, ())
        fn = FiniteFn.affine(2, 1, (2, -1), {(0, 0): 7})
        assert (fn((0, 0)), fn((3, 4)), fn([True, 0])) == (7, 3, 3)

    def test_finite_fn_lookup_table_is_not_part_of_its_value(self):
        fn = FiniteFn.affine(1, 2, (3,), {(1,): 0, (4,): -9})
        twin = FiniteFn.affine(1, 2, (3,), {(4,): -9, (1,): 0})
        object.__setattr__(twin, "_lookup", {})  # a table the value does not see
        assert fn == twin and hash(fn) == hash(twin) and repr(fn) == repr(twin)
        assert fn != FiniteFn.affine(1, 2, (3,), {(1,): 0})
        assert (fn((1,)), fn((4,)), fn((2,))) == (0, -9, 8)
        ov = fn.override_map()
        ov[(2,)] = 5  # a copy: the function does not change
        assert fn((2,)) == 8 and fn.store((2,), 5)((2,)) == 5

    def test_divisibility_atom(self):
        assert eval_formula(Rel("divides", Const(3), Const(9)), State({}))
        assert not eval_formula(Rel("divides", Const(3), Const(10)), State({}))
        assert eval_formula(Rel("divides", Const(0), Const(0)), State({}))

    def test_closure_restricts_parameters(self):
        # the lambda's parameter shadows any outer binding of the same name
        j = Var("j")
        lam = Lam((j,), plus(sv(j), 1))
        fn = eval_expr(lam, State({j: 99}))
        assert fn((5,)) == 6


class TestSubstitute:
    def test_loop_style_update(self):
        e = Sel(A, (sv(I),))
        out = substitute(e, {A: swap_up_a(), I: plus(sv(I), 1)})
        assert isinstance(out, Sel) and isinstance(out.arr, Lam)
        assert out.idx == (plus(sv(I), 1),)

    def test_identity_substitution(self):
        e = Bin("+", sv(I), Sel(A, (sv(K),)))
        assert substitute(e, {}) == e

    def test_inverse_rec_substitution(self):
        rec = Var("rec0")
        e = Bin("+", sv(rec), sv(Var("n")))
        assert substitute(e, {rec: sv(I)}) == Bin("+", sv(I), sv(Var("n")))

    def test_capture_avoidance(self):
        # (lambda (j) i + a[j]) with i := j must rename the binder
        j = Var("j")
        lam = Lam((j,), Bin("+", sv(I), Sel(A, (sv(j),))))
        out = substitute(lam, {I: sv(j)})
        assert out.params[0] != j
        s = State({j: 3, A: FiniteFn.const(1, 0)})
        assert eval_expr(out, s)((7,)) == 3

    def test_lvalue_substitution_top_level_only(self):
        b = Var("b", 1)
        inner = Sel(b, (sv(J),))
        outer = Sel(A, (inner,))
        e = Bin("+", outer, inner)
        mapping = {outer: Const(1), inner: Const(2)}
        out = substitute_lvalues(e, mapping)
        # the nested b[j] inside a[b[j]] is untouched; the top-level one is not
        assert out == Bin("+", Const(1), Const(2))


class TestBeta:
    def test_direct_redex(self):
        red = beta_reduce(Sel(swap_up_a(), (plus(sv(I), 1),)))
        assert isinstance(red, Ite)
        assert red.cond == Rel("=", plus(sv(I), 1), plus(sv(I), 1))

    def test_no_redex(self):
        e = Sel(A, (Const(3),))
        assert beta_reduce(e) == e

    def test_nested_redexes(self):
        j = Var("j")
        lam = Lam((j,), Sel(Lam((j,), sv(j)), (plus(sv(j), 1),)))
        out = beta_reduce(Sel(lam, (Const(5),)))
        assert out == Const(6) or eval_expr(out, State({})) == 6


class TestLvalSet:
    def test_sum_with_constant(self):
        e = Bin("+", Sel(A, (sv(I),)), Const(7))
        assert lval_set(e) == {Sel(A, (sv(I),))}

    def test_constant(self):
        assert lval_set(Const(5)) == set()

    def test_array_literal_empty(self):
        assert lval_set(Rel("=", A, Var("b", 1))) == set()

    def test_lvalue_is_singleton(self):
        lv = Sel(A, (plus(sv(I), 2),))
        assert lval_set(lv) == {lv}

    def test_below_lambda_excluded(self):
        j = Var("j")
        lam = Lam((j,), Sel(A, (sv(j),)))
        assert lval_set(Rel("=", sv(I), Sel(lam, (sv(K),)))) == {sv(I)}

    def test_ite_unions_guard_and_branches(self):
        e = Ite(Rel("<", sv(I), sv(K)), Sel(A, (sv(I),)), Sel(A, (sv(J),)))
        assert lval_set(e) == {sv(I), sv(K), Sel(A, (sv(I),)), Sel(A, (sv(J),))}


class TestFreeVars:
    def test_lambda_binds(self):
        j = Var("j")
        lam = Lam((j,), Bin("+", Sel(A, (sv(j),)), sv(I)))
        assert free_vars(lam) == {A, I}

    def test_constant(self):
        assert free_vars(Const(3)) == set()

    def test_cell(self):
        assert free_vars(Sel(A, (plus(sv(I), 1),))) == {A, I}


# ---------------------------------------------------------------------------
# fuzzed preservation properties


def gen_expr(rnd: random.Random, depth: int, scalars, arrays):
    roll = rnd.random()
    if depth == 0 or roll < 0.25:
        if rnd.random() < 0.5 and scalars:
            return sv(rnd.choice(scalars))
        return Const(rnd.randint(-9, 9))
    if roll < 0.62:
        op = rnd.choice(["+", "-", "*"])
        return Bin(op, gen_expr(rnd, depth - 1, scalars, arrays),
                   gen_expr(rnd, depth - 1, scalars, arrays))
    if roll < 0.72:
        return Bin("div", gen_expr(rnd, depth - 1, scalars, arrays),
                   Const(rnd.choice([-3, -2, 2, 3, 5])))
    if roll < 0.85 and arrays:
        arr = rnd.choice(arrays)
        if rnd.random() < 0.3:
            p = Var(f"p{rnd.randint(0, 2)}")
            lam = Lam((p,), gen_expr(rnd, depth - 1, scalars + [p], arrays))
            return Sel(lam, (gen_expr(rnd, depth - 1, scalars, arrays),))
        return Sel(arr, (gen_expr(rnd, depth - 1, scalars, arrays),))
    return Ite(gen_formula(rnd, depth - 1, scalars, arrays),
               gen_expr(rnd, depth - 1, scalars, arrays),
               gen_expr(rnd, depth - 1, scalars, arrays))


def gen_formula(rnd: random.Random, depth: int, scalars, arrays):
    roll = rnd.random()
    if depth == 0 or roll < 0.5:
        op = rnd.choice(["<", "<=", ">", ">=", "=", "!="])
        return Rel(op, gen_expr(rnd, depth - 1 if depth else 0, scalars, arrays),
                   gen_expr(rnd, depth - 1 if depth else 0, scalars, arrays))
    if roll < 0.6:
        return Rel("divides", Const(rnd.choice([2, 3, 4])),
                   gen_expr(rnd, depth - 1, scalars, arrays))
    if roll < 0.75:
        return Not(gen_formula(rnd, depth - 1, scalars, arrays))
    parts = tuple(gen_formula(rnd, depth - 1, scalars, arrays)
                  for _ in range(rnd.randint(2, 3)))
    return And(parts) if rnd.random() < 0.5 else Or(parts)


def fuzz_state(rnd: random.Random, scalars, arrays) -> State:
    m = {}
    for x in scalars:
        m[x] = rnd.randint(-6, 6)
    for x in arrays:
        fn = FiniteFn.const(1, rnd.randint(-3, 3))
        for _ in range(rnd.randint(0, 4)):
            fn = fn.store((rnd.randint(-8, 8),), rnd.randint(-9, 9))
        m[x] = fn
    return m and State(m) or State({})


SC = [Var("i"), Var("k"), Var("u")]
AR = [Var("a", 1), Var("b", 1)]


def _try_eval(e, s):
    try:
        return True, eval_expr(e, s)
    except EvalError:
        return False, None


def test_beta_preservation_fuzz():
    rnd = random.Random(7)
    checked = 0
    for _ in range(1200):
        e = gen_expr(rnd, 3, SC, AR)
        s = fuzz_state(rnd, SC, AR)
        ok, want = _try_eval(e, s)
        if not ok:
            continue
        got_ok, got = _try_eval(beta_reduce(e), s)
        assert got_ok and got == want
        checked += 1
    assert checked >= 1000


def test_substitution_lemma_fuzz():
    # eval(e[x := p], s) == eval(e, s[x := eval(p, s)])
    rnd = random.Random(8)
    checked = 0
    x = Var("u")
    for _ in range(800):
        e = gen_expr(rnd, 3, SC, AR)
        p = gen_expr(rnd, 2, [Var("i"), Var("k")], AR)
        s = fuzz_state(rnd, SC, AR)
        ok, pv = _try_eval(p, s)
        if not ok:
            continue
        ok1, direct = _try_eval(substitute(e, {x: p}), s)
        ok2, via = _try_eval(e, s.bind({x: pv}))
        if not (ok1 and ok2):
            continue
        assert direct == via
        checked += 1
    assert checked >= 400



def test_values_at_many_points_are_the_single_calls():
    # FiniteFn.at, the oracle's reference read, against __call__ at every
    # point of a box around the overrides, for arities 1-3
    rnd = random.Random(4)
    compared = 0
    for _ in range(60):
        arity = rnd.choice([1, 2, 3])
        coeffs = [rnd.randint(-3, 3) for _ in range(arity)]
        ov = {tuple(rnd.randint(-3, 3) for _ in range(arity)): rnd.randint(-9, 9)
              for _ in range(rnd.randint(0, 10))}
        fn = FiniteFn.affine(arity, rnd.randint(-5, 5), coeffs, ov)
        points = list(itertools.product(range(-4, 5), repeat=arity))
        rnd.shuffle(points)
        assert fn.at(points) == [fn(p) for p in points]
        compared += len(points)
    assert compared > 10000

def test_store_sequences_match_the_function_built_at_once():
    # store puts each override in its sorted place; the result is the function
    # FiniteFn.affine builds from the same overrides, bool values and
    # overwrites of an existing point included
    rnd = random.Random(9)
    stores = overwrites = 0
    for _ in range(300):
        arity = rnd.choice([1, 2])
        base, coeffs = rnd.randint(-3, 3), [rnd.randint(-1, 1) for _ in range(arity)]
        fn, want = FiniteFn.affine(arity, base, coeffs), {}
        for _ in range(rnd.randint(1, 12)):
            if want and rnd.random() < 0.3:
                pt = rnd.choice(list(want))
                overwrites += 1
            elif rnd.random() < 0.1:
                pt = (rnd.random() < 0.5,) * arity  # a bool point equals the int point
            else:
                pt = tuple(rnd.randint(-5, 5) for _ in range(arity))
            v = rnd.random() < 0.5 if rnd.random() < 0.2 else rnd.randint(-9, 9)
            fn = fn.store(list(pt) if rnd.random() < 0.2 else pt, v)
            want[pt] = v
            once = FiniteFn.affine(arity, base, coeffs, overrides=want)
            assert fn == once and hash(fn) == hash(once) and repr(fn) == repr(once)
            assert list(fn.overrides) == sorted(fn.overrides)
            assert all(type(v) is int for _, v in fn.overrides)
            assert fn._lookup == dict(fn.overrides)
            stores += 1
    assert stores > 1000 and overwrites > 200
