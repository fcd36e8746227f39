"""Theory solver with lambdas: preprocessing steps, the refinement loop, the
documented unknown case, and sat-soundness on forward-constructed formulas."""

import random
from pathlib import Path

from loopacc.accel import accelerate, encode_reachability
from loopacc.closedform import Failure
from loopacc.expr import (
    Bin, Const, FiniteFn, Ite, Lam, Or, Rel, Sel, State, Var, arity_of, eval_expr,
    eval_formula, sv,
)
from loopacc.backend import BackendSession, SatResult
from loopacc.lamsolve import (
    check_model, collect_idx, eliminate_diseq, propagate_and_reduce, solve, verify_model,
)
from loopacc.problem import parse_problem

from conftest import A, B, J, plus, same_function

X = Var("x")


def lam_const(v: int) -> Lam:
    p = Var("p")
    return Lam((p,), Const(v))


class TestEliminateDiseq:
    def test_array_diseq_gets_fresh_index(self):
        out = eliminate_diseq([Rel("!=", A, B)])
        (lit,) = out
        assert lit.op == "!=" and isinstance(lit.left, Sel) and lit.left.arr == A
        assert lit.left.idx == lit.right.idx

    def test_scalar_diseq_untouched(self):
        lit = Rel("!=", sv(X), Const(3))
        assert eliminate_diseq([lit]) == [lit]

    def test_lambda_diseq_beta_reduces_away(self, session):
        out = eliminate_diseq([Rel("!=", lam_const(0), lam_const(1))])
        prop = propagate_and_reduce(out)
        # (lambda p. 0)[i*] != (lambda p. 1)[i*] reduces to 0 != 1, i.e. true
        assert prop.literals == []


class TestPropagate:
    def test_equality_propagates_into_application(self):
        ap = Var("a'", 1)
        lam = lam_const(5)
        lits = [Rel("=", ap, lam), Rel("!=", Sel(ap, (sv(J),)), sv(X))]
        prop = propagate_and_reduce(lits)
        assert prop.log == [(ap, lam)]
        (lit,) = prop.literals
        assert lit == Rel("!=", sv(X), Const(5))  # canonical orientation

    def test_no_equalities_no_log(self):
        lits = [Rel("<", sv(X), Const(3)), Rel(">", sv(X), Const(0))]
        prop = propagate_and_reduce(lits)
        assert prop.log == []
        # literals survive (canonical integer-tightened forms)
        assert prop.literals == [Rel("<=", sv(X), Const(2)), Rel(">=", sv(X), Const(1))]

    def test_scalar_propagation_with_log(self):
        lits = [Rel("=", sv(X), Const(3)), Rel(">", plus(sv(X), 1), Const(3))]
        prop = propagate_and_reduce(lits)
        assert prop.log == [(X, Const(3))]
        assert prop.literals == []  # 4 > 3 simplifies to true

    def test_self_referential_not_propagated(self):
        lit = Rel("=", sv(X), plus(sv(X), 1))
        prop = propagate_and_reduce([lit])
        assert prop.log == []


class TestCollectIdx:
    def test_select_indices(self):
        lits = [Rel("=", Sel(A, (plus(sv(X), 1),)), Sel(B, (Const(0),)))]
        assert set(collect_idx(lits)) == {(Const(0),), (plus(sv(X), 1),)}

    def test_array_equality_contributes_nothing(self):
        assert collect_idx([Rel("=", A, B)]) == []

    def test_lambda_bodies_excluded(self):
        lam = Lam((Var("p"),), Sel(A, (sv(Var("p")),)))
        assert collect_idx([Rel("=", B, lam)]) == []


class TestSolve:
    def test_distinct_constant_lambdas_unknown(self, session):
        r = solve([Rel("=", lam_const(0), lam_const(1))], session)
        assert r.status == "unknown"

    def test_pure_arithmetic_model(self, session):
        r = solve([Rel(">", sv(X), Const(3)), Rel("divides", Const(3), sv(X))], session)
        assert r.status == "model"
        assert r.model.scalars["x"] > 3 and r.model.scalars["x"] % 3 == 0

    def test_unsat_arithmetic(self, session):
        r = solve([Rel("<", sv(X), Const(0)), Rel(">", sv(X), Const(0))], session)
        assert r.status == "unsat"

    def test_refinement_loop_fires(self, session):
        # p = q for two lambdas that agree only when x = y; the indices 0 from
        # other literals drive the instantiation lemmas
        p, q = Var("p"), Var("q")
        y = Var("y")
        base = Var("base", 1)
        lam1 = Lam((p,), Ite(Rel("=", sv(p), Const(0)), sv(X), Sel(base, (sv(p),))))
        lam2 = Lam((q,), Ite(Rel("=", sv(q), Const(0)), sv(y), Sel(base, (sv(q),))))
        lits = [
            Rel("=", lam1, lam2),
            Rel("=", Sel(base, (Const(0),)), Const(7)),
            Rel("=", sv(X), Const(1)),
        ]
        r = solve(lits, session)
        assert r.status == "model"
        assert r.lemmas >= 1
        assert r.model.scalars["y"] == 1  # forced equal to x by the lemma

    def test_derived_model_from_propagation(self, session):
        ap = Var("a'", 1)
        lam = Lam((Var("c"),), Ite(Rel("=", sv(Var("c")), sv(X)), Const(9),
                                   Sel(A, (sv(Var("c")),))))
        lits = [Rel("=", ap, lam), Rel("=", sv(X), Const(2)),
                Rel("=", Sel(A, (Const(5),)), Const(4))]
        r = solve(lits, session)
        assert r.status == "model"
        assert r.model.scalars["x"] == 2
        assert "a'" in r.model.derived  # closed lambda value
        assert verify_model(r.model, lits, session)

    def test_array_equality_chain_is_unsat(self, session):
        c = Var("c", 1)
        r = solve([Rel("=", A, B), Rel("=", B, c), Rel("=", Sel(A, (Const(0),)), Const(1)),
                   Rel("=", Sel(c, (Const(0),)), Const(2))], session)
        assert r.status == "unsat"

    def test_array_disequality_gets_arrays_that_differ(self, session):
        r = solve([Rel("!=", A, B)], session)
        assert r.status == "model"
        assert not same_function(r.model.arrays["a"], r.model.arrays["b"])

    def test_a_scalar_disjunction_goes_to_the_backend(self, session):
        either = Or((Rel("=", sv(X), Const(0)), Rel("=", sv(X), Const(1))))
        r = solve([either, Rel("!=", sv(X), Const(0))], session)
        assert r.status == "model" and r.model.scalars["x"] == 1
        assert verify_model(r.model, [either], session)
        # only an array (in)equality must be a conjunct of its own
        r = solve([Or((Rel("=", A, B), Rel("=", sv(X), Const(1))))], session)
        assert (r.status, r.diagnostic) == (
            "unknown", "unsupported: array equality under a connective")


class TestCheckModel:
    def test_scalar_violation(self, session):
        from loopacc.backend import Model

        m = Model({"x": 1}, {})
        assert not check_model(m, [Rel("=", sv(X), Const(2))], session)
        assert check_model(m, [Rel("=", sv(X), Const(1))], session)

    def test_array_equality_probed(self, session):
        from loopacc.backend import Model

        fn = FiniteFn.const(1, 0, {(2,): 5})
        m = Model({}, {"a": fn, "b": fn})
        assert check_model(m, [Rel("=", A, B)], session)
        m2 = Model({}, {"a": fn, "b": FiniteFn.const(1, 0)})
        assert not check_model(m2, [Rel("=", A, B)], session)


# ---------------------------------------------------------------------------
# soundness on forward-constructed satisfiable formulas


def _forward_instance(rnd: random.Random):
    """Pick a model first, then emit literals that are true under it."""
    xs = [Var("u0"), Var("u1"), Var("u2")]
    arrays = [Var("d0", 1), Var("d1", 1)]
    m = {x: rnd.randint(-5, 5) for x in xs}
    fns = {}
    for a in arrays:
        fn = FiniteFn.const(1, rnd.randint(-2, 2))
        for _ in range(rnd.randint(0, 3)):
            fn = fn.store((rnd.randint(-4, 4),), rnd.randint(-6, 6))
        fns[a] = fn
    state = State({**m, **fns})
    lits = []
    for _ in range(rnd.randint(2, 6)):
        kind = rnd.random()
        if kind < 0.5:
            e = Bin("+", sv(rnd.choice(xs)), Const(rnd.randint(-3, 3)))
            v = eval_expr(e, state)
            op = rnd.choice(["=", "<=", ">="])
            rhs = v if op == "=" else (v + rnd.randint(0, 3) if op == "<=" else v - rnd.randint(0, 3))
            lits.append(Rel(op, e, Const(rhs)))
        elif kind < 0.8:
            a = rnd.choice(arrays)
            ix = rnd.randint(-4, 4)
            lits.append(Rel("=", Sel(a, (Const(ix),)), Const(fns[a]((ix,)))))
        else:
            a = rnd.choice(arrays)
            lits.append(Rel("=", a, a))
    return lits


def test_soundness_sat_fuzz(session):
    rnd = random.Random(47)
    for trial in range(40):
        lits = _forward_instance(rnd)
        r = solve(lits, session)
        assert r.status != "unsat", (trial, lits)
        if r.status == "model":
            assert verify_model(r.model, lits, session)


def test_scalar_solve_matches_enumeration(session):
    # bounded scalar conjunctions: solve's verdict equals brute-force search
    rnd = random.Random(53)
    u = Var("u")
    for trial in range(30):
        lits = [Rel(">=", sv(u), Const(-4)), Rel("<=", sv(u), Const(4))]
        for _ in range(rnd.randint(1, 4)):
            op = rnd.choice(["<", "<=", ">", ">=", "=", "!="])
            lits.append(Rel(op, Bin("*", Const(rnd.randint(1, 2)), sv(u)),
                            Const(rnd.randint(-6, 6))))
        enum = any(all(eval_formula(l, State({u: v})) for l in lits)
                   for v in range(-4, 5))
        r = solve(list(lits), session)
        assert (r.status == "model") == enum
        if r.status == "model":
            got = r.model.scalars["u"]
            assert all(eval_formula(l, State({u: got})) for l in lits)


def test_solve_passes_on_the_backend_reason(session, monkeypatch):
    monkeypatch.setattr(session, "check", lambda formulas, want_model=True: SatResult(
        "unknown", diagnostic="unknown", reason="branch budget exhausted"))
    res = solve([Rel("=", sv(X), Const(1))], session)
    assert (res.status, res.diagnostic, res.reason) == (
        "unknown", "unknown", "branch budget exhausted")


def test_alpha_equivalent_recursive_lambdas_decided_by_a_lemma():
    # x = (lambda p. ite(p = 0, y[p], x[p])) and the alpha-equivalent
    # y = (lambda q. ite(q = 0, y[q], x[q])) make x and y equal, so x[3] != y[3]
    # is unsat; neither equality propagates, and the lemma y[3] = x[3] settles it
    p, q, y = Var("p"), Var("q"), Var("y", 1)
    x = Var("x", 1)

    def lam(v):
        return Lam((v,), Ite(Rel("=", sv(v), Const(0)), Sel(y, (sv(v),)), Sel(x, (sv(v),))))

    with BackendSession() as session:  # x and y are scalars in the shared one
        r = solve([Rel("=", x, lam(p)), Rel("=", y, lam(q)),
                   Rel("!=", Sel(x, (Const(3),)), Sel(y, (Const(3),)))], session)
    assert r.status == "unsat"
    assert r.lemmas >= 1


def _subterms(e):
    """Every node below e, plain tuples (index vectors, arguments) included."""
    yield e
    for part in e if type(e) is tuple else e[1:]:
        if isinstance(part, tuple):
            yield from _subterms(part)


_REFINEMENT = """(declare (i 0) (k 0) (a 1) (b 1))
(init (= i 0) (= (select a 0) 5))
(loop
  (guard (< i k))
  (update
    ((lhs i) (rhs (+ i 1)))
    ((lhs (select a (+ i 1))) (rhs (select a i)))
    ((lhs (select b (+ i 1))) (rhs (select b i)))))
(post (= a b) (distinct (select b 1) 5))"""


def test_backend_queries_hold_no_lambda_and_no_array_literal(session, monkeypatch):
    examples = Path(__file__).resolve().parent.parent / "examples_problems"
    problems = [parse_problem(path) for path in sorted(examples.glob("*.loop"))]
    problems.append(parse_problem(_REFINEMENT, is_path=False))
    sent = []
    real = session.check

    def recording_check(formulas, want_model=True):
        formulas = list(formulas)
        sent.extend(formulas)
        return real(formulas, want_model)

    lemmas = 0
    for pf in problems:
        if pf.post is None:
            continue
        t = accelerate(pf.loop, session)
        if isinstance(t, Failure):
            continue
        with monkeypatch.context() as m:
            m.setattr(session, "check", recording_check)
            res = solve(encode_reachability(pf.init, t, pf.post), session)
        assert res.status in ("model", "unsat")
        lemmas += res.lemmas
    assert sent and lemmas >= 1  # the post a = b reached refinement
    for f in sent:
        for t in _subterms(f):
            assert not isinstance(t, Lam), f
            assert not (isinstance(t, Rel) and t.op in ("=", "!=")
                        and arity_of(t.left) > 0), f


def test_arrays_equal_after_the_loop_get_a_checked_model(session):
    # a' = b' holds only where a and b agree off the cells the query reads;
    # the ground model's arrays all read 0 there, so the model checks
    text = _REFINEMENT.replace("(distinct (select b 1) 5)", "(= (select b 1) 5)")
    pf = parse_problem(text, is_path=False)
    lits = encode_reachability(pf.init, accelerate(pf.loop, session), pf.post)
    r = solve(lits, session)
    assert r.status == "model" and verify_model(r.model, lits, session)
