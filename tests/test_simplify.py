"""Normal forms: constant folding, linear normalization, guard collapse; the
rewrites must preserve evaluation on the fuzz corpus and be idempotent.  The
normal-form scope must give the results an unscoped call gives, answer a
normal form handed back from its memo, share nothing that a caller mutates,
and hold its memo only while the outermost entry runs."""

import json
import random
import sys
import threading
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

from loopacc import accel, cli, oracle
from loopacc.accel import accelerate, encode_reachability, guard_characterize
from loopacc.arrayform import closed_form_array
from loopacc.backend import BackendSession
from loopacc.closedform import Failure, closed_forms_all
from loopacc.expr import (
    And, Bin, BoolConst, Const, EvalError, FiniteFn, Ite, Lam, Not, Or, Rel, Sel, State, TRUE,
    Var, free_vars, reset_fresh_counter, substitute, sv,
)
from loopacc.gen import gen_loop
from loopacc.lamsolve import solve, verify_model
from loopacc.loop import build_up
from loopacc.problem import parse_problem
from loopacc.sexpr import to_text
from loopacc.simplify import (
    _scope, as_int_const, eliminate, linearize, normal_form_scope, poly_add, poly_atoms,
    poly_by_degree, poly_compose, poly_const, poly_mul, poly_to_expr, poly_var, simplify,
    simplify_formula,
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
    assert linearize(Bin("-", a, b)) == {}
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


def _generated_terms(seeds, session):
    """Expressions and formulas met on generated loops: rhs, guards, recurrence
    equations, lvalue closed forms and array lambdas; and the recurrence
    solutions' polynomials."""
    terms, polys = [], []
    for seed in seeds:
        loop = gen_loop(seed).loop
        terms += [loop.guard, *loop.rhs]
        forms = closed_forms_all(loop, session)
        terms += list(forms.system.values()) + list(forms.table.entries.values())
        polys += forms.solution.polys.values()
        up = build_up(loop)
        terms += [closed_form_array(loop, x, forms.table, up)
                  for x in sorted(loop.written_vars(), key=lambda v: v.name) if x.arity]
    return terms, polys


def _assert_narrow(poly):
    # an integral coefficient is an int, never an integral Fraction
    for c in poly.values():
        assert c.__class__ is int or (c.__class__ is Fraction and c.denominator != 1), poly


def test_int_coefficients_match_the_fraction_reference(session):
    rnd = random.Random(23)
    terms, polys = _generated_terms(range(60), session)
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


# ---------------------------------------------------------------------------
# the normal-form scope

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "examples.json").read_text())
FORMULAS = (BoolConst, Rel, Not, And, Or)


def _normal_forms(terms):
    """Every memoized function's result on every term, twice over, so that
    inside a scope the second round answers from the memo."""
    out = []
    for t in terms + terms:
        out.append(to_text(simplify(t)))
        if isinstance(t, FORMULAS):
            out.append(to_text(simplify_formula(t)))
        elif not isinstance(t, (Var, Lam)):
            out.append(list(linearize(t).items()))  # insertion order too
    return out


def test_memoized_functions_agree_inside_and_outside_a_scope(session):
    rnd = random.Random(31)
    terms, polys = _generated_terms(range(60), session)  # the loops of oracle --fuzz 60 --seed 0
    terms += [poly_to_expr(p) for p in polys]
    terms += [gen_expr(rnd, 4, SC, AR) for _ in range(400)]
    terms += [gen_formula(rnd, 3, SC, AR) for _ in range(400)]
    outside = _normal_forms(terms)
    assert _scope.memo is None
    assert normal_form_scope(_normal_forms)(terms) == outside


def _loop_forms(loop, session):
    """Closed forms, recurrence solution, array lambdas and the characterized
    guard of a loop, as text, from a reset fresh-name counter."""
    reset_fresh_counter()
    forms = closed_forms_all(loop, session)
    if isinstance(forms, Failure):
        return [forms.phase, forms.detail]
    up = build_up(loop)
    out = [to_text(e) for e in forms.table.entries.values()]
    out += [to_text(poly_to_expr(p)) for p in forms.solution.polys.values()]
    out += [to_text(closed_form_array(loop, x, forms.table, up))
            for x in sorted(loop.written_vars(), key=lambda v: v.name) if x.arity]
    guard = guard_characterize(loop, forms, session)
    out.append(guard.detail if isinstance(guard, Failure) else to_text(guard))
    return out


def test_closed_forms_and_guards_agree_inside_and_outside_a_scope(session):
    for seed in range(60):
        loop = gen_loop(seed).loop
        assert normal_form_scope(_loop_forms)(loop, session) == _loop_forms(loop, session), seed


@pytest.fixture(scope="module")
def pipeline_terms():
    """The lvalue and variable closed forms, characterized guards and
    accelerated formulas of the checked-in examples and of generated loops
    0..19."""
    loops = [parse_problem(p).loop for p in sorted((ROOT / "examples_problems").glob("*.loop"))]
    loops += [gen_loop(seed).loop for seed in range(20)]
    terms = []
    with BackendSession(timeout=10.0) as session:
        for loop in loops:
            forms = closed_forms_all(loop, session)
            t = accelerate(loop, session)
            if isinstance(t, Failure):  # mixing.loop is not a-solvable
                continue
            terms += [*forms.table.entries.values(), *t.closed_forms.values(),
                      t.guard_formula, t.formula]
    assert len(terms) > 100
    return terms


def _random_terms(seed):
    rnd = random.Random(seed)
    return ([gen_expr(rnd, 4, SC, AR) for _ in range(1000)]
            + [gen_formula(rnd, 3, SC, AR) for _ in range(1000)])


def test_simplify_and_simplify_formula_are_idempotent(pipeline_terms):
    """The memo stores each normal form as its own fixed point, which is sound
    only while normalizing a normal form gives it back."""
    assert _scope.memo is None
    for t in pipeline_terms + _random_terms(41):
        once = simplify(t)
        assert simplify(once) == once, t
        if isinstance(t, FORMULAS):
            once = simplify_formula(t)
            assert simplify_formula(once) == once, t


# ---------------------------------------------------------------------------
# the polynomial interface

N = Var("n")


def _arithmetic_parts(t):
    """The integer terms of t: t itself, or the sides of its relations."""
    if isinstance(t, (Var, Lam)):
        return []
    if isinstance(t, Rel):
        return _arithmetic_parts(t.left) + _arithmetic_parts(t.right)
    if isinstance(t, (And, Or)):
        return [p for a in t.args for p in _arithmetic_parts(a)]
    if isinstance(t, Not):
        return _arithmetic_parts(t.arg)
    if isinstance(t, BoolConst):
        return []
    return [t]


@pytest.fixture(scope="module")
def pipeline_polys(pipeline_terms, session):
    """The polynomials of pipeline_terms and the recurrence solutions of the
    loops of oracle --fuzz 60 --seed 0."""
    polys = [linearize(e) for t in pipeline_terms for e in _arithmetic_parts(t)]
    polys += _generated_terms(range(60), session)[1]
    assert len(polys) > 200 and any(len(poly_atoms(p)) > 1 for p in polys)
    return polys


def _plain_scalars(p):
    """The scalars of p that are factors of its monomials."""
    return {a.arr for a in poly_atoms(p) if isinstance(a, Sel) and not a.idx}


def _state(rnd, exprs):
    """Random values for the names of exprs, drawn in name order."""
    names = sorted(set().union(*map(free_vars, exprs)), key=lambda v: (v.name, v.arity))
    return State({x: FiniteFn.const(x.arity, rnd.randint(-3, 3)) if x.arity
                  else rnd.randint(-6, 6) for x in names})


def test_poly_compose_evaluates_like_substitution(pipeline_polys):
    # only scalars that no opaque atom reads are replaced: poly_compose leaves
    # the atoms as they are, where substitute reaches inside them
    rnd = random.Random(53)
    checked = 0
    for p in pipeline_polys:
        opaque = set().union(*(free_vars(a) for a in poly_atoms(p)
                               if not (isinstance(a, Sel) and not a.idx)))
        xs = sorted(_plain_scalars(p) - opaque - {N}, key=lambda v: v.name)
        images = {}
        for x in rnd.sample(xs, min(len(xs), 2)) + [N] * (N not in opaque):
            images[sv(x)] = rnd.choice([poly_const(0), poly_add(poly_var(x), poly_const(1)),
                                        linearize(gen_expr(rnd, 2, SC, AR))])
        got = poly_to_expr(poly_compose(p, images))
        want = substitute(poly_to_expr(p), {a.arr: poly_to_expr(q) for a, q in images.items()})
        for _ in range(3):
            s = _state(rnd, [got, want])
            ok, value = _try_eval(want, s)
            if ok:
                assert _try_eval(got, s) == (True, value), (to_text(want), to_text(got))
                checked += 1
    assert checked > 500


def test_poly_by_degree_recombines_to_the_polynomial(pipeline_polys):
    checked = 0
    for p in pipeline_polys:
        for x in _plain_scalars(p) | {N, Var("absent")}:
            power, total = poly_const(1), {}
            parts = poly_by_degree(p, sv(x))
            for d in range(max(parts, default=0) + 1):
                cp = parts.get(d, {})
                assert sv(x) not in poly_atoms(cp)
                total = poly_add(total, poly_mul(cp, power))
                power = poly_mul(power, poly_var(x))
            assert total == p and all(parts.values())
            checked += len(parts) > 1
    assert checked > 50


class _Misses(dict):
    """A memo table that counts its lookups that miss: each runs the body of
    the memoized function."""

    misses = 0

    def get(self, key):
        self.misses += key not in self
        return super().get(key)


def test_a_normal_form_handed_back_is_a_memo_hit(monkeypatch, pipeline_terms):
    memo = defaultdict(_Misses)
    monkeypatch.setattr(_scope, "memo", memo)  # the outermost scope
    for t in pipeline_terms + _random_terms(43):
        for fn in (simplify, simplify_formula) if isinstance(t, FORMULAS) else (simplify,):
            once = fn(t)
            table = memo[fn.__wrapped__]
            misses = table.misses
            assert fn(once) == once and table.misses == misses, t
    assert memo[simplify.__wrapped__].misses and memo[simplify_formula.__wrapped__].misses


class _ReadOnlyPolys(defaultdict):
    """A scope's memo whose linearize table stores read-only views, so that a
    caller that mutates a shared polynomial raises TypeError."""

    def __missing__(self, fn):
        self[fn] = _Views() if fn is linearize.__wrapped__ else {}
        return self[fn]


class _Views(dict):
    def __setitem__(self, key, value):
        super().__setitem__(key, MappingProxyType(value))

    def setdefault(self, key, value):
        return super().setdefault(key, MappingProxyType(value))


def test_no_caller_mutates_a_memoized_polynomial(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    memo = _ReadOnlyPolys()
    monkeypatch.setattr(_scope, "memo", memo)  # the outermost scope
    keys = [k for k in sorted(GOLDEN) if k.split()[0] in ("accelerate", "check")]
    for key in keys:
        reset_fresh_counter()
        code = cli.main(key.split())
        assert (capsys.readouterr().out, code) == (GOLDEN[key]["stdout"], GOLDEN[key]["exit"])
    views = memo[linearize.__wrapped__].values()
    assert views and all(isinstance(v, MappingProxyType) for v in views)


def test_the_memo_lives_as_long_as_the_outermost_entry(monkeypatch, session):
    seen = []
    real = accel.closed_forms_all

    def spy(*args):
        seen.append(_scope.memo)
        return real(*args)

    monkeypatch.setattr(accel, "closed_forms_all", spy)
    loop = gen_loop(3).loop
    assert _scope.memo is None
    accelerate(loop, session)
    assert seen[-1] is not None and seen[-1][simplify.__wrapped__]
    assert _scope.memo is None

    def outer():
        memo = _scope.memo
        accelerate(loop, session)
        assert seen[-1] is memo and _scope.memo is memo
        other = threading.Thread(target=lambda: seen.append(_scope.memo))
        other.start()
        other.join()
        assert seen[-1] is None  # another thread sees no scope
        return memo

    memo = normal_form_scope(outer)()
    assert memo[linearize.__wrapped__] and _scope.memo is None
    with pytest.raises(ZeroDivisionError):
        normal_form_scope(lambda: 1 // 0)()
    assert _scope.memo is None


def test_each_oracle_loop_gets_its_own_memo(monkeypatch, capsys):
    """oracle --fuzz runs no scope of its own: each check_loop opens one, and
    its memo is gone before the next loop starts."""
    outside, inside = [], []
    real_check, real_forms = cli.check_loop, oracle.closed_forms_all

    def check_spy(*args, **kwargs):
        outside.append(_scope.memo)
        return real_check(*args, **kwargs)

    def forms_spy(*args):
        inside.append(_scope.memo)
        return real_forms(*args)

    monkeypatch.setattr(cli, "check_loop", check_spy)
    monkeypatch.setattr(oracle, "closed_forms_all", forms_spy)
    assert cli.main(["oracle", "--fuzz", "2", "--seed", "0", "--states", "2"]) == 0
    assert "total: 2/2 ok" in capsys.readouterr().out
    assert outside == [None, None] and _scope.memo is None
    assert len(inside) == 2 and all(m is not None for m in inside)
    assert inside[0] is not inside[1] and inside[0][simplify.__wrapped__]


def _verdict(path, session):
    pf = parse_problem(path)
    t = accelerate(pf.loop, session)
    if isinstance(t, Failure):
        return "unknown"
    lits = encode_reachability(pf.init, t, pf.post)
    res = solve(lits, session)
    if res.status == "model":
        return "unsafe" if verify_model(res.model, lits, session) else "unverified"
    return {"unsat": "safe-bounded"}.get(res.status, "unknown")


def test_threads_check_concurrently():
    # more threads than cores and a short switch interval, so that the
    # threads' scopes interleave at fine grain
    want = {}
    for key, golden in GOLDEN.items():
        if key.startswith("check") and key.endswith("--json") and golden["stdout"]:
            want[str(ROOT / key.split()[1])] = json.loads(golden["stdout"])["result"]
    assert len(want) == 4
    start = threading.Barrier(3)
    got = [[], [], []]

    def run(out):
        with BackendSession(timeout=30.0) as session:
            start.wait()
            for _ in range(3):
                out.extend((path, _verdict(path, session)) for path in sorted(want))

    threads = [threading.Thread(target=run, args=(out,)) for out in got]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in got:
        assert out == [(path, want[path]) for _ in range(3) for path in sorted(want)]
