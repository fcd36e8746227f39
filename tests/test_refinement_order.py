"""lamsolve's refinement round: violated instances first, the model check
only on a model no instance refutes.  Differential against the loop that
checked the model first (lamsolve_reference.py), the index case split of the
model check against the unsplit validity question and against evaluation,
and the scaled refine family that the unsplit question could not decide."""

import itertools
import random
import re

import pytest

from loopacc import expr
from loopacc.accel import accelerate, conjuncts_of, encode_reachability
from loopacc.backend import BackendSession
from loopacc.expr import (
    And, Bin, Const, FiniteFn, Ite, Lam, Rel, Sel, State, Var, beta_reduce, eval_expr,
    eval_formula, fresh_var, sv,
)
from loopacc.lamsolve import _equal_by_cases, finite_fn_expr, solve
from loopacc.loop import step
from loopacc.problem import parse_problem
from loopacc.sexpr import to_text
from loopacc.simplify import simplify

from conftest import same_function
from lamsolve_reference import solve_check_first
from test_verdicts import random_problem


def refinement_text(c: int, d: int, p: int, cells: int = 1, reach: bool = False) -> str:
    """Two arrays shifted right from i = d >= 0, with a[t] = c + t for the
    first `cells` cells initially, and the post a' = b' /\\ b'[p] != c.  With
    d = 0 and p in {0, 1}, or p = 0, the post is unreachable in n > 0
    iterations (safe); with reach, b'[p] = c is asked instead, which a' = b'
    allows once b agrees with a (unsafe).  cells = 1 are the benchmark
    corpus's refine members."""
    init = " ".join(f"(= (select a {t}) {c + t})" for t in range(cells))
    cell = f"(= (select b {p}) {c})" if reach else f"(distinct (select b {p}) {c})"
    return f"""(declare (i 0) (k 0) (a 1) (b 1))
(init (= i {d}) {init})
(loop
  (guard (< i k))
  (update
    ((lhs i) (rhs (+ i 1)))
    ((lhs (select a (+ i 1))) (rhs (select a i)))
    ((lhs (select b (+ i 1))) (rhs (select b i)))))
(post (= a b) {cell})"""


# the corpus's refine members at seed 1 (c = -5, d1 = 5, d2 = 1)
CORPUS_REFINE = [refinement_text(-5, d, p) for d, p in ((0, 0), (0, 1), (5, 0), (1, 0))]
FAMILY = [refinement_text(3, 0, 1, cells, reach) for cells in (1, 2, 4, 8, 16)
          for reach in (False, True)]


def _queries(text: str, session) -> list[list]:
    """The n > 0 query of check and its n = 0 query init /\\ post."""
    pf = parse_problem(text, is_path=False)
    t = accelerate(pf.loop, session)
    return [encode_reachability(pf.init, t, pf.post),
            [c for f in pf.init + pf.post for c in conjuncts_of(f)]]


_FRESH = re.compile(r"([^\s()]+)!(\d+)")


def _renumbered(text: str) -> str:
    """text with fresh names numbered by first appearance."""
    seen: dict = {}
    return _FRESH.sub(lambda m: f"{m[1]}!{seen.setdefault(m[0], len(seen))}", text)


def _answer(res):
    """Status, diagnostic, lemma count and the model."""
    model = None
    if res.model is not None:
        model = (res.model.scalars, res.model.arrays,
                 {x: v if isinstance(v, int) else _renumbered(to_text(v))
                  for x, v in res.model.derived.items()})
    return res.status, res.diagnostic, res.lemmas, model


def _both(lits):
    expr.reset_fresh_counter()
    with BackendSession() as ses:
        new = _answer(solve(lits, ses))
    expr.reset_fresh_counter()
    with BackendSession() as ses:
        old = _answer(solve_check_first(lits, ses))
    return new, old


@pytest.mark.parametrize("text", CORPUS_REFINE + FAMILY)
def test_the_round_order_keeps_answers_lemmas_and_models(text, session):
    for lits in _queries(text, session):
        new, old = _both(lits)
        assert new == old


def test_the_round_order_keeps_answers_on_random_boolean_posts(session):
    rng = random.Random(2026)
    statuses = set()
    for _ in range(40):
        text, _ranges = random_problem(rng)
        for lits in _queries(text, session):
            new, old = _both(lits)
            assert new == old, text
            statuses.add(new[0])
    assert statuses == {"model", "unsat"}


@pytest.mark.parametrize("text", CORPUS_REFINE)
def test_a_refuted_model_sends_no_validity_question(text, session, monkeypatch):
    lits = _queries(text, session)[0]
    asked = []
    real = session.check

    def check(formulas, want_model=True):
        asked.append(want_model)
        return real(formulas, want_model)

    monkeypatch.setattr(session, "check", check)
    res = solve(lits, session)
    assert res.status == "unsat" and res.lemmas >= 1
    assert len(asked) >= 2 and all(asked)  # refuted models, then the unsat answer


# ---------------------------------------------------------------------------
# the scaled refine family: a surviving model has P overrides per array


def replays(pf, model) -> bool:
    """The model's initial arrays and scalars meet init, the guard holds for
    its n iterations, and the state they reach meets post."""
    values = {}
    for name, arity in pf.declarations.items():
        if arity:
            values[Var(name, arity)] = model.arrays.get(name, FiniteFn.const(arity, 0))
        else:
            values[Var(name)] = model.scalars.get(name, 0)
    state = State(values)

    def holds(f, s):
        if isinstance(f, Rel) and isinstance(f.left, Var):  # a = b
            return same_function(s[f.left], s[f.right]) == (f.op == "=")
        return eval_formula(f, s)

    if not all(holds(f, state) for f in pf.init):
        return False
    for _ in range(model.scalars["n"]):
        state = step(pf.loop, state)
        if state is None:
            return False
    return all(holds(f, state) for f in pf.post)


@pytest.mark.parametrize("cells", [8, 16])
def test_the_scaled_refine_family_is_decided(cells, session):
    for reach in (False, True):
        text = refinement_text(3, 0, 1, cells, reach)
        expr.reset_fresh_counter()  # names order the backend's variables
        lits = _queries(text, session)[0]
        with BackendSession() as ses:  # the default 2 s deadline
            res = solve(lits, ses)
        if not reach:
            assert (res.status, res.lemmas) == ("unsat", cells)
            continue
        assert (res.status, res.lemmas) == ("model", cells - 2)
        assert replays(parse_problem(text, is_path=False), res.model)


# ---------------------------------------------------------------------------
# the index case split against the unsplit question and against evaluation


def _random_lambda(rng, arity: int) -> Lam:
    """A default-plus-overrides function, or an ite chain whose conditions
    bound or fix the indices, over at most 4 overrides."""
    if rng.random() < 0.5:
        fn = FiniteFn.affine(arity, rng.randint(-2, 2), [rng.randint(-1, 1) for _ in range(arity)])
        for _ in range(rng.randint(0, 4)):
            fn = fn.store(tuple(rng.randint(-3, 3) for _ in range(arity)), rng.randint(-3, 3))
        return finite_fn_expr(fn)
    params = tuple(fresh_var("q") for _ in range(arity))

    def leaf():
        body = Const(rng.randint(-2, 2))
        for p in params:
            if rng.random() < 0.4:
                body = Bin("+", body, Bin("*", Const(rng.choice([-1, 1])), sv(p)))
        return body

    def cond():
        atoms = [Rel(rng.choice(["=", "<=", ">="]), sv(p), Const(rng.randint(-3, 3)))
                 for p in params if rng.random() < 0.8] or \
                [Rel("=", sv(params[0]), Const(rng.randint(-3, 3)))]
        return atoms[0] if len(atoms) == 1 else And(tuple(atoms))

    body = leaf()
    for _ in range(rng.randint(0, 4)):
        body = Ite(cond(), leaf(), body)
    return Lam(params, body)


def _perturbed(rng, lam: Lam) -> Lam:
    """lam, or an ite chain that agrees with it but at most one point."""
    if rng.random() < 0.4:
        return lam
    point = tuple(rng.randint(-3, 3) for _ in lam.params)
    here = And(tuple(Rel("=", sv(p), Const(k)) for p, k in zip(lam.params, point)))
    value = eval_expr(lam, State())(point) + rng.choice([0, 0, 1])
    return Lam(lam.params, Ite(here, Const(value), lam.body))


WINDOW = range(-8, 9)


def test_the_index_split_agrees_with_the_unsplit_question_and_evaluation(session):
    rng = random.Random(11)
    answers = {True: 0, False: 0}
    for trial in range(120):
        arity = rng.choice([1, 1, 2])
        p = _random_lambda(rng, arity)
        q = _perturbed(rng, p) if rng.random() < 0.5 else _random_lambda(rng, arity)
        index = tuple(sv(fresh_var("i*")) for _ in range(arity))
        lhs = simplify(beta_reduce(Sel(p, index)))
        rhs = simplify(beta_reduce(Sel(q, index)))
        split = _equal_by_cases(lhs, rhs, frozenset(index), session)
        assert split == session.is_valid(Rel("=", lhs, rhs)), (trial, p, q)
        fp, fq = eval_expr(p, State()), eval_expr(q, State())
        differ = [pt for pt in itertools.product(WINDOW, repeat=arity) if fp(pt) != fq(pt)]
        assert split == (not differ), (trial, p, q, differ[:1])
        answers[split] += 1
    assert min(answers.values()) >= 20, answers
