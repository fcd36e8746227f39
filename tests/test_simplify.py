"""Normal forms: constant folding, linear normalization, guard collapse; the
rewrites must preserve evaluation on the fuzz corpus.  The normal-form scope
must give the results an unscoped call gives, share nothing that a caller
mutates, and hold its memo only while the outermost entry runs."""

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
    And, Bin, BoolConst, Const, EvalError, Ite, Lam, Not, Or, Rel, Sel, TRUE, Var,
    reset_fresh_counter, sv,
)
from loopacc.gen import gen_loop
from loopacc.lamsolve import solve, verify_model
from loopacc.loop import build_up
from loopacc.problem import parse_problem
from loopacc.sexpr import to_text
from loopacc.simplify import (
    _scope, as_int_const, eliminate, linearize, normal_form_scope, poly_to_expr, simplify,
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


def test_memoized_functions_agree_inside_and_outside_a_scope():
    rnd = random.Random(31)
    terms, polys = _generated_terms(range(60))  # the loops of oracle --fuzz 60 --seed 0
    terms += [poly_to_expr(p) for p in polys]
    terms += [gen_expr(rnd, 4, SC, AR) for _ in range(400)]
    terms += [gen_formula(rnd, 3, SC, AR) for _ in range(400)]
    outside = _normal_forms(terms)
    assert _scope.memo is None
    assert normal_form_scope(_normal_forms)(terms) == outside


def _loop_forms(loop):
    """Closed forms, recurrence solution, array lambdas and the characterized
    guard of a loop, as text, from a reset fresh-name counter."""
    reset_fresh_counter()
    forms = closed_forms_all(loop)
    if isinstance(forms, Failure):
        return [forms.phase, forms.detail]
    up = build_up(loop)
    out = [to_text(e) for e in forms.table.entries.values()]
    out += [to_text(poly_to_expr(p)) for p in forms.solution.polys.values()]
    out += [to_text(closed_form_array(loop, x, forms.table, up))
            for x in sorted(loop.written_vars(), key=lambda v: v.name) if x.arity]
    guard = guard_characterize(loop, forms, None)
    out.append(guard.detail if isinstance(guard, Failure) else to_text(guard))
    return out


def test_closed_forms_and_guards_agree_inside_and_outside_a_scope():
    for seed in range(60):
        loop = gen_loop(seed).loop
        assert normal_form_scope(_loop_forms)(loop) == _loop_forms(loop), seed


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


def test_the_memo_lives_as_long_as_the_outermost_entry(monkeypatch):
    seen = []
    real = accel.closed_forms_all

    def spy(*args):
        seen.append(_scope.memo)
        return real(*args)

    monkeypatch.setattr(accel, "closed_forms_all", spy)
    loop = gen_loop(3).loop
    assert _scope.memo is None
    accelerate(loop)
    assert seen[-1] is not None and seen[-1][simplify.__wrapped__]
    assert _scope.memo is None

    def outer():
        memo = _scope.memo
        accelerate(loop)
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
