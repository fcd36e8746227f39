"""Ground solver and protocol layer: the case split and Cooper search against
brute-force enumeration, array reasoning, the SMT-LIB server loop, the
in-process solver API against the text a --backend command reads, and model
parsing."""

import functools
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from loopacc import accel, cli
from loopacc.accel import accelerate, check_reachability, encode_reachability
from loopacc.backend import BackendSession, SatResult
from loopacc.expr import (
    And, Bin, Const, Ite, Not, Or, Rel, Sel, State, Var, eval_formula, reset_fresh_counter, sv,
)
from loopacc.lamsolve import SolveResult, solve
from loopacc.problem import parse_problem
from loopacc.sexpr import ParseError, parse_formula, read_all, smt_int, smt_text
from loopacc.simplify import simplify_formula
from loopacc.solver import ground, server
from loopacc.solver.session import floor_div
from loopacc.solver.ground import GroundProblem, check, to_linear
from loopacc.solver.presburger import (
    PresburgerSolver, SolverTimeout, Unsupported, _propagate, fand, feval, fnot, fsubst, fvars,
    peval,
)

from cooper_reference import ListCooper, TreeCooper

# the bundled solver as an external command: the subprocess transport
SERVER = f"{sys.executable} -m loopacc.solver.server"
EXAMPLES = sorted((Path(__file__).parent.parent / "examples_problems").glob("*.loop"))


def _rand_poly(rnd, xs):
    e = Const(rnd.randint(-4, 4))
    for x in xs:
        c = rnd.randint(-3, 3)
        if c:
            e = Bin("+", e, Bin("*", Const(c), sv(x)))
    return e


def _rand_formula(rnd, xs, depth):
    if depth == 0 or rnd.random() < 0.45:
        if rnd.random() < 0.2:
            return Rel("divides", Const(rnd.choice([2, 3, 4])), _rand_poly(rnd, xs))
        op = rnd.choice(["<", "<=", ">", ">=", "=", "!="])
        return Rel(op, _rand_poly(rnd, xs), _rand_poly(rnd, xs))
    roll = rnd.random()
    if roll < 0.3:
        return Not(_rand_formula(rnd, xs, depth - 1))
    parts = tuple(_rand_formula(rnd, xs, depth - 1) for _ in range(2))
    return And(parts) if roll < 0.65 else Or(parts)


def _rand_term(rnd, xs, depth):
    """A term with selects of a 1- and a 2-dimensional array, ite and floor
    division by a constant of either sign."""
    roll = rnd.random()
    if depth == 0 or roll < 0.4:
        return _rand_poly(rnd, xs)
    sub = functools.partial(_rand_term, rnd, xs, depth - 1)
    if roll < 0.55:
        return Bin("div", sub(), Const(rnd.choice([-3, -2, 2, 3])))
    if roll < 0.7:
        return Sel(Var("a", 1), (sub(),))
    if roll < 0.8:
        return Sel(Var("m", 2), (sub(), sub()))
    if roll < 0.9:
        return Ite(_rand_formula(rnd, xs, 1), sub(), sub())
    return Bin(rnd.choice("+-*"), sub(), sub())


def test_encoded_formulas_read_back_from_their_text():
    # what a --backend command and the log read is what the in-process
    # solver gets, once the ground solver has simplified both
    rnd = random.Random(5)
    xs = [Var("x"), Var("y'"), Var("i*!1")]
    env = {"x": 0, "y'": 0, "i*!1": 0, "a": 1, "m": 2}
    for trial in range(300):
        op = rnd.choice(["<", "=", "!=", "divides"])
        left = Const(rnd.choice([-4, 0, 3])) if op == "divides" else _rand_term(rnd, xs, 2)
        atom = Rel(op, left, _rand_term(rnd, xs, 2))
        f = Not(Or((atom, _rand_formula(rnd, xs, 2)))) if trial % 2 else And((Not(atom),))
        g = ground.encode(f)
        text = smt_text(g)
        back = parse_formula(floor_div(read_all(text)[0]), env)
        assert simplify_formula(back) == simplify_formula(g), text


def test_cooper_vs_enumeration():
    # variables bounded by explicit range conjuncts, so enumeration is complete
    rnd = random.Random(3)
    B = 4
    xs = [Var("x"), Var("y"), Var("z")]
    for trial in range(250):
        k = rnd.randint(1, 3)
        vs = xs[:k]
        f = _rand_formula(rnd, vs, 2)
        ranges = [Rel(">=", sv(x), Const(-B)) for x in vs] + \
                 [Rel("<=", sv(x), Const(B)) for x in vs]
        status, model = check([f] + ranges, {x: 0 for x in vs})
        enum_sat = False
        for point in itertools.product(range(-B, B + 1), repeat=k):
            s = State(dict(zip(vs, point)))
            if eval_formula(f, s):
                enum_sat = True
                break
        assert (status == "sat") == enum_sat, f"trial {trial}: {f}"
        if status == "sat":
            assert eval_formula(f, model)


def test_fsubst_agrees_with_evaluation():
    # f[x := img] at m is f at m with x read as img's value there
    rnd = random.Random(5)
    xs = [Var("x"), Var("y"), Var("z")]
    for trial in range(300):
        f = to_linear(_rand_formula(rnd, xs, 3), {})
        img = {k: c for k, c in (("y", rnd.randint(-3, 3)), ("z", rnd.randint(-3, 3)),
                                 (None, rnd.randint(-4, 4))) if c}
        g = fsubst(f, {"x": img})
        assert "x" not in fvars(g), f"trial {trial}"
        for _ in range(5):
            m = {n: rnd.randint(-6, 6) for n in "xyz"}
            assert feval(g, m) == feval(f, {**m, "x": peval(img, m)}), f"trial {trial}: {f}"
        without_x = to_linear(_rand_formula(rnd, xs[1:], 3), {})
        assert fsubst(without_x, {"x": img}) is without_x


def _decide(run, limit, solver=PresburgerSolver):
    """run(solver)'s model or None, or "budget" when limit nodes ran out."""
    try:
        return run(solver(branch_limit=limit))
    except SolverTimeout:
        return "budget"


def test_split_vs_cooper_and_enumeration():
    # find_model (the case split) against the whole-formula Cooper search, kept
    # as the reference, and against enumeration over the box.  Cooper can
    # exhaust a small budget on some conjunctions with non-unit coefficients,
    # the reference on more formulas than the split: where the reference
    # decides, the split must decide too.
    rnd = random.Random(11)
    B = 3
    xs = [Var("x"), Var("y"), Var("z")]
    decided = 0
    for trial in range(150):
        vs = xs[:rnd.randint(1, 3)]
        f = _rand_formula(rnd, vs, 3)
        lin = fand([to_linear(g, {}) for g in [f] + [Rel(">=", sv(x), Const(-B)) for x in vs]
                    + [Rel("<=", sv(x), Const(B)) for x in vs]])
        names = sorted(fvars(lin))
        enum_sat = any(feval(lin, dict(zip(names, point)))
                       for point in itertools.product(range(-B, B + 1), repeat=len(names)))
        ref = _decide(lambda s: s._search(lin, names), 5000, TreeCooper)
        split = _decide(lambda s: s.find_model(lin), 5000)
        assert ref == "budget" or split != "budget", f"trial {trial}: {f}"
        for m in (ref, split):
            if m != "budget":
                assert (m is not None) == enum_sat, f"trial {trial}: {f}"
                assert m is None or feval(lin, m), f"trial {trial}: {f}"
        decided += split != "budget"
    assert decided >= 140


class _Recorder(PresburgerSolver):
    """Keeps each conjunction find_model hands to _search."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.asked = []

    def _search(self, atoms, xs):
        self.asked.append((list(atoms), list(xs)))
        return super()._search(atoms, xs)


class _CheckedAtEveryLevel(PresburgerSolver):
    """Checks the model of every level of Cooper's search against that
    level's atoms, as the search once did; failed counts the misses."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.checks = self.failed = 0

    def _eliminate(self, conj, xs):
        # this level's atoms, read before the search changes them in place
        atoms = [a for a in conj.slots if a is not None]
        m = super()._eliminate(conj, xs)
        if m is not None:
            self.checks += 1
            self.failed += not all(feval(a, m) for a in atoms)
        return m


def _nodes(solver, f, names):
    """(solver._search(f, names)'s model, or "budget", and the nodes spent)."""
    budget = solver.budget
    try:
        m = solver._search(f, names)
    except SolverTimeout:
        m = "budget"
    return m, budget - solver.budget


def test_list_search_matches_the_tree_reference():
    # each conjunction the split hands to Cooper, decided as a flat list and
    # by the whole-formula reference: the same model, in no more nodes.  Every
    # other formula is left unboxed, so that names without a lower bound take
    # the minus-infinity case.  The search checks its model once, at the
    # top; below it, every level's model satisfies that level's atoms
    rnd = random.Random(13)
    xs = [Var("x"), Var("y"), Var("z")]
    compared = inner_checks = 0
    for trial in range(200):
        vs = xs[:rnd.randint(1, 3)]
        box = [Rel(">=", sv(x), Const(-3)) for x in vs] + [Rel("<=", sv(x), Const(3)) for x in vs]
        f = _rand_formula(rnd, vs, 3)
        lin = fand([to_linear(g, {}) for g in [f] + box * (trial % 2)])
        split = _Recorder(branch_limit=5000)
        try:
            split.find_model(lin)
        except SolverTimeout:
            pass
        for atoms, _ in split.asked:
            names = sorted(fvars(fand(atoms)))
            ref, ref_nodes = _nodes(TreeCooper(branch_limit=5000), fand(atoms), names)
            if ref == "budget":
                continue
            checked = _CheckedAtEveryLevel(branch_limit=5000)
            m, nodes = _nodes(checked, atoms, names)
            assert (m, nodes <= ref_nodes) == (ref, True), f"trial {trial}: {atoms}"
            assert checked.failed == 0, f"trial {trial}: {atoms}"
            compared += 1
            inner_checks += checked.checks
    assert compared >= 200 and inner_checks >= 400


def _same_search_as_the_list(asked, limit):
    """Each (atoms, names) decided by the indexed search and by ListCooper
    with a budget of limit nodes: the same model, or both out of budget,
    in the same number of nodes."""
    for n, (atoms, names) in enumerate(asked):
        got = _nodes(PresburgerSolver(branch_limit=limit), atoms, names)
        assert got == _nodes(ListCooper(branch_limit=limit), atoms, names), f"{n}: {atoms}"


def test_indexed_search_matches_the_list_on_every_conjunction_of_the_split():
    rnd = random.Random(23)
    xs = [Var("x"), Var("y"), Var("z")]
    asked = []
    for trial in range(400):
        vs = xs[:rnd.randint(1, 3)]
        box = [Rel(">=", sv(x), Const(-3)) for x in vs] + [Rel("<=", sv(x), Const(3)) for x in vs]
        lin = fand([to_linear(g, {}) for g in [_rand_formula(rnd, vs, 3)] + box * (trial % 2)])
        split = _Recorder(branch_limit=5000)
        try:
            split.find_model(lin)
        except SolverTimeout:
            pass
        asked += split.asked
    assert len(asked) >= 300
    _same_search_as_the_list(asked, 5000)


def test_indexed_search_matches_the_list_on_mutated_hoare_k(monkeypatch):
    # every conjunction find_model hands Cooper while lamsolve finds the
    # witnesses of mutated Hoare-K, K = 1..16
    solvers = []

    def recording(**kw):
        solvers.append(_Recorder(**kw))
        return solvers[-1]

    monkeypatch.setattr(ground, "PresburgerSolver", recording)
    for k in range(1, 17):
        res, _ = _check_triple(_hoare_k(k, True))
        assert res.status == "model"
    monkeypatch.undo()
    asked = [q for s in solvers for q in s.asked]
    assert len(asked) >= 100
    _same_search_as_the_list(asked, 2_000_000)


def test_bounds_propagate_through_inequalities_and_stop_on_cycles():
    x_pos, y_above_x = ("gt", {"x": 1}), ("gt", {"y": 1, "x": -1})
    y_nonpos, z_pos = ("gt", {"y": -1, None: 1}), ("gt", {"z": 1})
    # y > x > 0 rules out y <= 0, which leaves z > 0 as a unit; y's bound
    # takes a second round, as x's is found after y > x is visited
    units, live = _propagate([y_above_x, x_pos], [[y_nonpos, z_pos]])
    assert units == [y_above_x, x_pos, z_pos] and live == []
    # x > y > x raises both lower bounds without end; the rounds stop and
    # Cooper proves the cycle unsat
    cycle = [x_pos, y_above_x, ("gt", {"x": 1, "y": -1}), ("or", [z_pos, fnot(z_pos)])]
    assert PresburgerSolver(branch_limit=1000).find_model(("and", cycle)) is None


def _pigeons(n):
    """n variables in [0, n - 2], pairwise distinct: unsat, and only splitting
    over the disequalities shows it."""
    xs = [sv(Var(f"p{k}")) for k in range(n)]
    return ([Rel(">=", x, Const(0)) for x in xs] + [Rel("<", x, Const(n - 1)) for x in xs]
            + [Rel("!=", x, y) for x, y in itertools.combinations(xs, 2)])


def test_split_nodes_spend_the_budget_and_keep_the_deadline(monkeypatch):
    with BackendSession() as s:
        assert s.check(_pigeons(5)).status == "unsat"
    monkeypatch.setattr(ground, "PresburgerSolver",
                        functools.partial(PresburgerSolver, branch_limit=50))
    with BackendSession() as s:
        r = s.check(_pigeons(5))
    assert (r.status, r.reason) == ("unknown", "branch budget exhausted")
    monkeypatch.undo()
    with BackendSession(timeout=0.05) as s:
        t0 = time.monotonic()
        r = s.check(_pigeons(6))
        elapsed = time.monotonic() - t0
    assert (r.status, r.reason) == ("unknown", "timeout")
    assert elapsed < 0.5


def _hoare_k(k: int, mutated: bool) -> str:
    """The swap loop of hoare13.loop from b = a, j = i < k, with m_t = i + t.
    Valid: the post asks a'[i'] != b[j] and a'[m_t] != b[m_t + 1] for t < K,
    which the swap rules out.  Mutated: a'[i'] != b[j + 1] and
    a'[m_t] != b[m_t], which a[c] = c satisfies."""
    ms = [f"m{t}" for t in range(1, k)]
    decl = "(declare (i 0) (k 0) (j 0) (a 1) (b 1)" + "".join(f" ({m} 0)" for m in ms) + ")"
    init = ["(= b a)", "(= j i)", "(< i k)"] + [f"(= {m} (+ i {t}))" for t, m in enumerate(ms, 1)]
    if mutated:
        post = ["(>= i k)", "(distinct (select a i) (select b (+ j 1)))"]
        post += [f"(distinct (select a {m}) (select b {m}))" for m in ms]
    else:
        post = ["(>= i k)", "(distinct (select a i) (select b j))"]
        post += [f"(distinct (select a {m}) (select b (+ {m} 1)))" for m in ms]
    if ms:
        post.append(f"(< {ms[-1]} k)")
    loop = ("(loop (guard (< i k)) (update ((lhs i) (rhs (+ i 1)))"
            " ((lhs (select a (+ i 1))) (rhs (select a i)))"
            " ((lhs (select a i)) (rhs (select a (+ i 1))))))")
    return "\n".join([decl, "(init " + " ".join(init) + ")", loop,
                      "(post " + " ".join(post) + ")"])


def _check_triple(text: str):
    """(check_reachability's result, seconds)."""
    pf = parse_problem(text, is_path=False)
    t0 = time.monotonic()
    with BackendSession() as ses:
        res = check_reachability(pf.init, pf.loop, pf.post, ses)
    return res, time.monotonic() - t0


def test_hoare_k_no_longer_falls_off_the_cliff():
    # valid K >= 2 used to time out: one Cooper search re-branched on every
    # ite, congruence and distinct disjunction under every candidate
    res, seconds = _check_triple(_hoare_k(3, False))
    assert res.status == "unsat" and seconds < 1.0
    res, _ = _check_triple(_hoare_k(5, False))
    assert res.status == "unsat"
    res, _ = _check_triple(_hoare_k(5, True))
    assert res.status == "model"


def test_congruence_clauses_grow_linearly_on_valid_hoare_k(monkeypatch):
    # the selects of one array make s(s - 1)/2 pairs, 2,145 at K = 32; once
    # presolve has made the indices m_t = i + t, all but 5K - 1 of them
    # differ by a nonzero constant and get no clause.  Counted over the
    # acceleration and the n > 0 query; check_reachability's n = 0 query
    # adds K - 1 more.
    built = []
    monkeypatch.setattr(ground, "_congruence",
                        lambda *args, real=ground._congruence: built.append(args) or real(*args))
    for k in (8, 16, 32):
        pf = parse_problem(_hoare_k(k, False), is_path=False)
        built.clear()
        with BackendSession() as ses:
            res = solve(encode_reachability(pf.init, accelerate(pf.loop, ses), pf.post), ses)
        assert res.status == "unsat" and 0 < len(built) <= 5 * k, (k, len(built))


def test_cooper_unbounded_models():
    x, y = Var("x"), Var("y")
    status, m = check([Rel(">", sv(x), Const(100000)),
                       Rel("divides", Const(7), sv(x)),
                       Rel("=", sv(y), Bin("*", Const(3), sv(x)))], {x: 0, y: 0})
    assert status == "sat"
    assert m[x] > 100000 and m[x] % 7 == 0 and m[y] == 3 * m[x]


def test_nonlinear_is_unsupported():
    x, y = Var("x"), Var("y")
    with pytest.raises(Unsupported):
        check([Rel("=", Bin("*", sv(x), sv(y)), Const(6))], {x: 0, y: 0})


def test_array_congruence():
    a = Var("a", 1)
    i, j = Var("i"), Var("j")
    status, _ = check([
        Rel("=", sv(i), sv(j)),
        Rel("!=", Sel(a, (sv(i),)), Sel(a, (sv(j),))),
    ], {a: 1, i: 0, j: 0})
    assert status == "unsat"


def test_session_answers_unknown_to_an_array_equality():
    # outside the ground fragment, also under an or: lamsolve decides array
    # equalities (test_lamsolve) and sends the ground solver none
    for relation in ("(= a b)", "(distinct a b)", "(or (= a b) (> x 0))"):
        s = server.Session()
        answers = [s.command(f) for f in server.parse_forms(
            "(declare-const a (Array Int Int))(declare-const b (Array Int Int))"
            f"(declare-const x Int)(assert {relation})(check-sat)(get-info :reason-unknown)")]
        assert [a for a in answers if a] == [
            "unknown", '(:reason-unknown "unsupported: array equality")'], relation


def test_ite_and_div_terms():
    x, v = Var("x"), Var("v")
    status, m = check([
        Rel("=", sv(v), Ite(Rel(">", sv(x), Const(0)), Bin("div", sv(x), Const(2)), Const(-1))),
        Rel("=", sv(x), Const(9)),
    ], {x: 0, v: 0})
    assert status == "sat" and m[v] == 4


def test_presolve_definition_skips_a_product():
    x, y, z = (sv(Var(n)) for n in "xyz")
    gp = GroundProblem({})
    # the only +-1 coefficient is on the abstracted product x*y: nothing is solved
    rows = list(to_linear(Rel("=", Bin("+", Bin("*", x, y), Bin("*", Const(2), z)), Const(0)),
                          gp.products)[1])
    assert gp.presolve(rows) == rows and gp.presolve_log == []
    # ".prod0" sorts before "z", but a product is never solved for
    rows = list(to_linear(Rel("=", Bin("+", z, Bin("*", x, y)), Const(0)), gp.products)[1])
    assert gp.presolve(rows) == []
    assert gp.presolve_log == [("z", {".prod0": -1})]


def test_presolve_chained_equalities_come_back_in_the_model():
    x, y, z, w = (Var(n) for n in "xyzw")
    formulas = [Rel("=", sv(x), Bin("+", sv(y), Const(1))),
                Rel("=", sv(y), Bin("+", sv(z), Const(1))),
                Rel("=", Bin("*", Const(2), sv(w)), sv(z)),
                Rel(">", sv(w), Const(3))]
    gp = GroundProblem({v: 0 for v in (x, y, z, w)})
    left = gp.presolve([a for f in formulas for a in ground._top(to_linear(f, gp.products))])
    # x is solved before y, and y before z: the replay runs in reverse
    assert [name for name, _ in gp.presolve_log] == ["x", "y", "z"]
    assert left == [("gt", {"w": 1, None: -3})]
    m = ground.rebuild_model(gp, {"w": 4})
    assert (m[w], m[z], m[y], m[x]) == (4, 8, 9, 10)
    status, m = check(formulas, {v: 0 for v in (x, y, z, w)})
    assert status == "sat" and all(eval_formula(f, m) for f in formulas)


def test_presolve_finds_an_equality_a_substitution_made():
    x, y = Var("x"), Var("y")
    gp = GroundProblem({})
    # y >= x and y <= 2 - x: no pair until x = 1 is substituted
    rows = [a for f in (Rel(">=", sv(y), sv(x)), Rel("<=", sv(y), Bin("-", Const(2), sv(x))),
                        Rel("=", sv(x), Const(1)))
            for a in ground._top(to_linear(f, gp.products))]
    assert gp.presolve(rows) == []
    assert gp.presolve_log == [("x", {None: 1}), ("y", {None: 1})]
    assert gp.presolve(rows + [("gt", {"x": -1})]) == [False]


@pytest.mark.parametrize("mutated, verdict", [(False, "safe-bounded"), (True, "unsafe")])
def test_hoare_k16_is_decided_at_the_default_timeout(mutated, verdict, tmp_path, capsys):
    path = tmp_path / "hoare16.loop"
    path.write_text(_hoare_k(16, mutated))
    cli.main(["check", str(path), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == verdict
    assert out.get("reverified", True) is True


@pytest.mark.parametrize("text", ["(assert (= (-) 0))", "(assert (= a m))"])
def test_session_rejects_malformed_terms(text):
    s = server.Session()
    for form in server.parse_forms("(declare-const a (Array Int Int))"
                                   "(declare-const m (Array Int (Array Int Int)))"):
        s.command(form)
    with pytest.raises(ParseError):
        s.command(server.parse_forms(text)[0])


@pytest.mark.parametrize("text", ["(push x)", "(pop y)", "(declare-const)", "(assert)",
                                  "(get-info)", "(push 1 2)", "(declare-fun f Int)"])
def test_session_rejects_malformed_commands(text):
    # a protocol error naming the command, not an internal error of the server
    head = text[1:-1].split()[0]
    with pytest.raises(server.SmtError, match=f"^{head}: (wrong number|expected a numeral)"):
        server.Session().command(server.parse_forms(text)[0])


def test_get_value_needs_a_list_of_terms():
    # a symbol is not iterated character by character as a list of terms
    s = server.Session()
    forms = server.parse_forms("(declare-const x Int)(declare-const y Int)(assert (> x 2))"
                               "(check-sat)(get-value xy)")
    assert [s.command(f) for f in forms[:-1]] == ["", "", "", "sat"]
    with pytest.raises(server.SmtError, match="^get-value: expected a list of terms"):
        s.command(forms[-1])


def test_get_value_echoes_terms_that_read_back():
    # |i'| and |a b| are echoed quoted: unquoted, i' is no symbol and
    # (select a b 0) reads back as a select of three arguments
    s = server.Session()
    forms = server.parse_forms("(declare-const |i'| Int)(declare-const |a b| (Array Int Int))"
                               "(assert (> |i'| 0))(assert (= (select |a b| 0) 4))(check-sat)"
                               "(get-value (|i'| (select |a b| 0)))")
    answers = [s.command(f) for f in forms]
    assert answers[-2:] == ["sat", "((|i'| 1) ((select |a b| 0) 4))"]
    assert [term for term, _ in server.parse_forms(answers[-1])[0]] == forms[-1][1]


def test_get_value_of_a_name_the_model_leaves_open():
    # y and b are declared after check-sat: get-value answers the values
    # get-model prints for them, 0 and the constant-0 array
    s = server.Session()
    forms = server.parse_forms("(declare-const x Int)(assert (> x 0))(check-sat)"
                               "(declare-const y Int)(declare-const b (Array Int Int))"
                               "(get-value (x y (select b 3) (+ y 2)))(get-model)")
    answers = [s.command(f) for f in forms]
    assert answers[2:-1] == ["sat", "", "", "((x 1) (y 0) ((select b 3) 0) ((+ y 2) 2))"]
    assert "(define-fun y () Int 0)" in answers[-1]
    assert "(define-fun b () (Array Int Int) ((as const (Array Int Int)) 0))" in answers[-1]


@pytest.mark.parametrize("d", [2, -2, 3, -3])
def test_div_by_a_constant(d):
    """The session reads SMT-LIB's euclidean div, t = d*q + r with
    0 <= r < |d|, for t written as a literal and through a pinned x, and d
    as a numeral and as a product; the ground solver reads the expression
    syntax's floor div."""
    x, v = Var("x"), Var("v")
    for t in range(-7, 8):
        q = (t - t % abs(d)) // d
        for term, divisor in itertools.product((smt_int(t), "x"),
                                               (smt_int(d), f"(* 1 {smt_int(d)})")):
            div = f"(div {term} {divisor})"
            s = server.Session()
            answers = [s.command(f) for f in server.parse_forms(
                f"(declare-const x Int)(assert (= x {smt_int(t)}))"
                f"(push 1)(assert (= {div} {smt_int(q)}))(check-sat)(pop 1)"
                f"(assert (distinct {div} {smt_int(q)}))(check-sat)")]
            assert [a for a in answers if a] == ["sat", "unsat"], div
        status, m = check([Rel("=", sv(v), Bin("div", sv(x), Const(d))),
                           Rel("=", sv(x), Const(t))], {x: 0, v: 0})
        assert status == "sat" and m[v] == t // d, (t, d)


class TestServerProtocol:
    def run_script(self, script: str) -> list[str]:
        out = subprocess.run([sys.executable, "-m", "loopacc.solver.server"],
                             input=script, capture_output=True, text=True, timeout=60)
        return [l for l in out.stdout.splitlines() if l.strip()]

    def test_starts_without_warnings(self):
        # loopacc/__init__ imports the backend; were the session defined in
        # the server module, -m would load that module a second time
        out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                              "-m", "loopacc.solver.server"],
                             input="(check-sat)\n", capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout, out.stderr) == (0, "sat\n", "")

    def test_push_pop(self):
        lines = self.run_script(
            "(declare-const x Int)(assert (> x 0))(check-sat)"
            "(push 1)(assert (< x 0))(check-sat)(pop 1)(check-sat)(exit)")
        assert lines == ["sat", "unsat", "sat"]

    def test_failed_pop_leaves_the_stack_as_it_was(self):
        lines = self.run_script(
            "(declare-const x Int)(assert (> x 0))(push 1)(assert (< x 0))(pop 2)(check-sat)(exit)")
        assert lines == ['(error "pop: 2 exceeds the stack depth 1")', "unsat"]

    def test_divisible_and_model(self):
        lines = self.run_script(
            "(declare-const x Int)(assert ((_ divisible 4) x))(assert (> x 5))"
            "(check-sat)(get-value (x))(exit)")
        assert lines[0] == "sat"
        val = int(lines[1].strip("()").split()[1])
        assert val % 4 == 0 and val > 5

    def test_error_recovery(self):
        lines = self.run_script("(frobnicate)(declare-const x Int)(check-sat)(exit)")
        assert lines[0].startswith("(error")
        assert lines[-1] == "sat"

    def test_comment_with_an_open_paren(self):
        lines = self.run_script("(declare-const x Int) ; an int (the only one\n"
                                "(assert (> x 0))\n(check-sat)\n(exit)\n")
        assert lines == ["sat"]

    def test_quoted_symbols(self):
        lines = self.run_script(
            "(declare-const |i'| Int)(assert (= |i'| 3))(check-sat)(get-model)(exit)")
        assert lines[0] == "sat"
        assert any("i'" in l and "3" in l for l in lines)


class TestBackendSession:
    def test_validity_cache_and_check(self, session):
        i, k = Var("i"), Var("k")
        f = Or((Not(Rel("<", sv(i), sv(k))), Rel("<=", sv(i), Bin("-", sv(k), Const(1)))))
        assert session.is_valid(f) is True
        assert session.is_valid(f) is True
        assert session.is_valid(Rel("<", sv(i), sv(k))) is False

    def test_model_arrays_2dim(self, session):
        m2 = Var("m", 2)
        r = session.check([Rel("=", Sel(m2, (Const(1), Const(2))), Const(5)),
                           Rel("=", Sel(m2, (Const(1), Const(3))), Const(7))])
        assert r.status == "sat"
        fn = r.model.arrays["m"]
        assert fn((1, 2)) == 5 and fn((1, 3)) == 7

    def test_unknown_on_nonlinear(self, session):
        x, y = Var("x"), Var("y")
        r = session.check([Rel("=", Bin("*", sv(x), sv(y)), Const(6))])
        assert r.status == "unknown"

    def test_timeout_recovery(self):
        # a dead backend must surface as unknown, and the session must recover
        with BackendSession(backend=SERVER, timeout=2.0) as s:
            i = Var("i")
            assert s.check([Rel("=", sv(i), Const(1))]).status == "sat"
            s.proc.kill()
            r = s.check([Rel("=", sv(i), Const(2))])
            assert r.status in ("sat", "unknown")  # restarted or reported


def test_smt_log_written(tmp_path):
    log = tmp_path / "dialogue.smt2"
    with BackendSession(timeout=5.0, smt_log=str(log)) as s:
        s.check([Rel("=", sv(Var("x")), Const(3))])
    text = log.read_text()
    assert "(check-sat)" in text and "(declare-const x Int)" in text
    assert "; <- sat" in text


def test_model_parse_store_chain():
    text = ("((define-fun x () Int (- 7))")
    text += "(define-fun a () (Array Int Int) (store ((as const (Array Int Int)) 1) 2 9)))"
    s = BackendSession()
    m = s._parse_model(text)
    assert m["x"] == -7
    assert m["a"]((2,)) == 9 and m["a"]((5,)) == 1


def test_string_literal_escapes():
    text = server.smt_string('say "hi"')
    assert server.balanced(text)
    assert server.parse_forms(text) == [("str", 'say "hi"')]


def test_is_valid_asks_again_after_unknown():
    # an unknown (say, a timeout) is no final answer: the next call asks again
    i, k = Var("i"), Var("k")
    with BackendSession() as s:
        real = s.check
        stubbed = [SatResult("unknown", diagnostic="unknown", reason="timeout")]

        def check_once_unknown(formulas, want_model=True):
            return stubbed.pop() if stubbed else real(formulas, want_model)

        s.check = check_once_unknown
        f = Rel("<", sv(i), sv(k))
        assert s.is_valid(f) is None
        assert s.is_valid(f) is False


def _many_selects(n: int = 240):
    """n selects at distinct unknown indices: quadratic work in Ackermann
    reduction, linearisation and presolve before the search starts.  On a
    2-core machine the stages before the search take about 0.9 s at
    n = 240 (0.05 s at n = 60), so a 0.05 s deadline falls in them."""
    a = Var("a", 1)
    return [Rel("=", Sel(a, (sv(Var(f"i{k}")),)), Bin("+", sv(Var(f"i{k}")), Const(1)))
            for k in range(n)]


def test_deadline_holds_before_the_search():
    with BackendSession(timeout=0.05) as s:
        s.check([Rel("=", sv(Var("x")), Const(0))])  # session started
        t0 = time.monotonic()
        r = s.check(_many_selects())
        elapsed = time.monotonic() - t0
    assert r.status == "unknown" and r.reason == "timeout"
    assert elapsed < 0.5


@pytest.fixture(params=["in-process", "subprocess"])
def open_session(request):
    """BackendSession factory for one transport, with a per-check timeout."""
    def make(timeout: float) -> BackendSession:
        if request.param == "in-process":
            return BackendSession(timeout=timeout)
        return BackendSession(backend=f"{SERVER} --timeout {timeout}", timeout=timeout)
    return make


def test_reason_unknown_timeout(open_session):
    with open_session(0.05) as s:
        r = s.check(_many_selects())
    assert (r.status, r.diagnostic, r.reason) == ("unknown", "unknown", "timeout")


def test_reason_unknown_nonlinear(open_session):
    x, y = Var("x"), Var("y")
    with open_session(5.0) as s:
        r = s.check([Rel("=", Bin("*", sv(x), sv(y)), Const(6))])
        assert (r.status, r.diagnostic) == ("unknown", "unknown")
        assert r.reason.startswith("unsupported: ")
        assert s.check([Rel("=", sv(x), Const(6))]).reason == ""


@pytest.mark.parametrize("backend", [None, SERVER], ids=["in-process", "subprocess"])
def test_one_name_at_two_arities_on_one_session(backend, tmp_path):
    # x as a scalar, then x as an array, then as a scalar again: the session
    # starts the solver afresh with (reset) whenever a name changes arity
    x, y = Var("x"), Var("y")
    scalar = Rel(">", sv(x), Const(0))
    array = Rel(">", Sel(Var("x", 1), (Const(0),)), Const(0))
    log = tmp_path / "dialogue.smt2"
    with BackendSession(backend=backend, timeout=5.0, smt_log=str(log)) as s:
        r1, r2 = s.check([scalar]), s.check([array])
        assert (r1.status, r2.status) == ("sat", "sat"), r2.diagnostic
        assert r2.model.arrays["x"]((0,)) > 0
        r3 = s.check([scalar, Rel("<", sv(y), Const(0))])
        assert r3.status == "sat" and r3.model.scalars["x"] > 0
        assert s.check([scalar]).status == "sat"  # no clash: no reset
    assert log.read_text().count("(reset)\n(set-option :produce-models true)\n"
                                 "(set-logic ALL)\n") == 2


MODEL_KEYS = """
import sys
from loopacc.backend import BackendSession
from loopacc.expr import Bin, Const, Rel, Var, sv
x, y, z, w = (sv(Var(name)) for name in "xyzw")
with BackendSession(backend=sys.argv[1] or None, timeout=5.0) as s:
    r = s.check([Rel("=", Bin("+", x, y), Const(6)), Rel("=", z, Const(2)),
                 Rel("=", w, Const(3))])
print(list(r.model.scalars))
"""


@pytest.mark.parametrize("backend", ["", SERVER], ids=["in-process", "subprocess"])
def test_a_model_lists_its_names_in_the_same_order_in_every_process(backend):
    """Node hashes mix in the address of the node's class, so a set of names
    iterates in another order in each process, whatever PYTHONHASHSEED says."""
    outs = [subprocess.run([sys.executable, "-c", MODEL_KEYS, backend], capture_output=True,
                           text=True, timeout=60, env={**os.environ, "PYTHONHASHSEED": "0"})
            for _ in range(2)]
    assert [out.stdout for out in outs] == ["['w', 'x', 'y', 'z']\n"] * 2, outs[0].stderr


@pytest.mark.parametrize("backend", [None, SERVER], ids=["in-process", "subprocess"])
def test_a_model_values_only_the_names_of_its_check(backend):
    # the names an earlier check declared stay declared but are not valued
    i, k, x = sv(Var("i*!2")), sv(Var("k")), sv(Var("x"))
    with BackendSession(backend=backend, timeout=5.0) as s:
        assert s.is_valid(Rel("<", i, k)) is False
        assert s.check([Rel(">", Sel(Var("a", 1), (k,)), Const(0))]).status == "sat"
        r = s.check([Rel(">", x, Const(0))])
    assert r.status == "sat"
    assert (list(r.model.scalars), r.model.arrays) == (["x"], {})
    assert r.model.scalars["x"] > 0


def test_the_in_process_solver_gets_no_text(monkeypatch):
    # without a log it takes the encoded formulas and gives back values: no
    # command or answer is printed or parsed, and none goes through a queue
    def text(*args):
        raise AssertionError("SMT-LIB text in-process")

    for name in ("loopacc.backend.read_all", "loopacc.backend.smt_text", "queue.Queue",
                 "loopacc.backend.BackendSession._parse_model",
                 "loopacc.solver.session.parse_formula",
                 "loopacc.backend.model_text", "loopacc.backend.reason_text"):
        monkeypatch.setattr(name, text)
    x, a = sv(Var("x")), Var("a", 1)
    with BackendSession() as s:
        r = s.check([Rel("=", Sel(a, (x,)), Bin("+", x, Const(1))), Rel(">", x, Const(2))])
        assert r.status == "sat" and r.model.arrays["a"]((r.model.scalars["x"],)) > 3
        r = s.check([Rel("=", Bin("*", x, x), Const(4))])
        assert r.status == "unknown" and r.reason.startswith("unsupported: ")


@pytest.mark.parametrize("logged", [False, True], ids=["no-log", "smt-log"])
def test_in_process_checks_build_no_session(logged, monkeypatch, tmp_path):
    # each in-process check is one solve call: the SMT-LIB session is only
    # for loopacc-smt and log replays
    def no_session(*args, **kwargs):
        raise AssertionError("a Session built in-process")

    monkeypatch.setattr("loopacc.solver.session.Session.__init__", no_session)
    log = str(tmp_path / "dialogue.smt2") if logged else None
    x, a = sv(Var("x")), Var("a", 1)
    with BackendSession(timeout=5.0, smt_log=log) as s:
        r = s.check([Rel("=", Sel(a, (x,)), Bin("+", x, Const(1))), Rel(">", x, Const(2))])
        assert r.status == "sat" and r.model.arrays["a"]((r.model.scalars["x"],)) > 3
        assert s.check([Rel(">", x, Const(0)), Rel("<", x, Const(0))]).status == "unsat"
        r = s.check([Rel("=", Bin("*", x, x), Const(4))])
        assert r.status == "unknown" and r.reason.startswith("unsupported: ")
    with BackendSession(timeout=0.05, smt_log=log) as s:
        r = s.check(_many_selects())
        assert (r.status, r.reason) == ("unknown", "timeout")
    if logged:
        assert Path(log).read_text().count("; <- (:reason-unknown") == 2


def test_one_name_at_two_arities_in_one_query_is_unknown(session):
    x = Var("x")
    r = session.check([Rel(">", sv(x), Const(0)),
                       Rel(">", Sel(Var("x", 1), (Const(0),)), Const(0))])
    assert r.status == "unknown" and "redeclared" in r.diagnostic
    assert session.check([Rel(">", sv(x), Const(0))]).status == "sat"


def check_json(path: Path, capsys, *options) -> str:
    """check --json's report on a file, with the fresh-name counter reset as
    in a new process; empty when the file has no post."""
    reset_fresh_counter()
    cli.main(["check", str(path), "--json", *options])
    return capsys.readouterr().out


def _verdict(path: Path, capsys, *options) -> str:
    out = check_json(path, capsys, *options)
    return json.loads(out)["result"] if out else "no post"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_transport_parity(path, capsys):
    # the whole report: verdict, witness, arrays, derived values and lemmas
    assert check_json(path, capsys) == check_json(path, capsys, "--backend", SERVER)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_logging_changes_nothing(path, capsys, tmp_path):
    log = str(tmp_path / "dialogue.smt2")
    assert check_json(path, capsys) == check_json(path, capsys, "--smt-log", log)


def test_smt_log_replays(tmp_path, capsys):
    # the in-process dialogue, fed to a fresh server session, gets the same answers
    compared = 0
    for path in EXAMPLES:
        log = tmp_path / f"{path.stem}.smt2"
        if _verdict(path, capsys, "--smt-log", str(log)) == "no post":
            continue
        logged, replayed, session = [], [], None
        for line in log.read_text().splitlines():
            if line.startswith("; <- "):
                logged.append(line[5:])
                continue
            (form,) = server.parse_forms(line)
            if form == ["set-option", ":produce-models", "true"]:
                session = server.Session(timeout=10.0)
            answer = session.command(form)
            if answer:
                replayed.append(answer.replace("\n", " "))
        assert replayed == logged, path.name
        compared += len(logged)
    assert compared > 0


def test_is_valid_answers_from_the_simplifier_without_a_check_sat(tmp_path):
    i, k = sv(Var("i")), sv(Var("k"))
    log = tmp_path / "dialogue.smt2"
    with BackendSession(smt_log=str(log)) as s:
        assert s.is_valid(Rel("<=", i, Bin("+", i, Const(1)))) is True
        assert s.is_valid(Rel("<", i, i)) is False
        assert "(check-sat)" not in log.read_text()
        assert s.is_valid(Rel("<", i, k)) is False
        assert "(check-sat)" in log.read_text()


# a --backend command that answers sat, and a model of x at the sort argv[1]
FAKE_SOLVER = """
import sys
for line in sys.stdin:
    if line.startswith("(check-sat)"):
        print("sat", flush=True)
    elif line.startswith("(get-model)"):
        print(f"((define-fun x () {sys.argv[1]} 1))", flush=True)
"""


def test_unsupported_model_sort_is_unknown(tmp_path):
    script = tmp_path / "fake_solver.py"
    script.write_text(FAKE_SOLVER)
    for sort in ("Real", "(Array Bool Int)"):
        command = shlex.join([sys.executable, str(script), sort])
        with BackendSession(backend=command) as s:
            r = s.check([Rel("=", sv(Var("x")), Const(1))])
        assert (r.status, r.model) == ("unknown", None)
        assert "sort" in r.diagnostic


# a --backend command that gives its arguments in turn as the answers to
# check-sat, get-model and get-info
CANNED_SOLVER = """
import sys
answers = iter(sys.argv[1:])
for line in sys.stdin:
    if line.startswith(("(check-sat)", "(get-model)", "(get-info")):
        print(next(answers), flush=True)
"""


def test_models_and_reasons_in_an_external_solvers_syntax(tmp_path):
    # z3's spellings, each answering one check of the session
    script = tmp_path / "canned_solver.py"
    script.write_text(CANNED_SOLVER)
    grid = "(Array Int (Array Int Int))"
    row = "((as const (Array Int Int)) 0)"
    answers = {
        # an older printer's (model ...) prefix; a define-fun with arguments
        # is not one of ours
        "prefix": ("sat", "(model (define-fun x () Int (- 3)) (define-fun f ((y Int)) Int y))"),
        "grid": ("sat", f"((define-fun m () {grid} (store ((as const {grid}) {row}) 1 "
                        f"(store {row} 2 5))))"),
        "non-uniform": ("sat", f"((define-fun m () {grid} (store ((as const {grid}) {row}) 1 "
                               "((as const (Array Int Int)) 7))))"),
        "bad int": ("sat", "((define-fun x () Int (/ 1 2)))"),
        "bad array": ("sat", f"((define-fun m () {grid} (_ as-array k!0)))"),
        "symbol reason": ("unknown", "(:reason-unknown incomplete)"),
        "no reason": ("unknown", "unsupported"),
        "unparsable": ("unknown", "(:reason-unknown incomplete))"),
    }
    command = shlex.join([sys.executable, str(script), *itertools.chain(*answers.values())])
    x = Rel(">", sv(Var("x")), Const(0))
    m = Rel("=", Sel(Var("m", 2), (Const(1), Const(2))), Const(5))
    with BackendSession(backend=command, timeout=10.0) as s:
        r = s.check([x])
        assert (r.status, r.model.scalars, r.model.arrays) == ("sat", {"x": -3}, {})
        grid = s.check([m]).model.arrays["m"]
        assert (grid((1, 2)), grid((1, 3)), grid((0, 2))) == (5, 0, 0)
        for formula, diagnostic in ((m, "nested array with non-uniform default"),
                                    (x, "unsupported integer value: ['/', '1', '2']"),
                                    (m, "unsupported array value: ['_', 'as-array', 'k!0']")):
            r = s.check([formula])
            assert (r.status, r.model, r.diagnostic) == ("unknown", None, diagnostic)
        for reason in ("incomplete", "unsupported", "(:reason-unknown incomplete))"):
            r = s.check([x])
            assert (r.status, r.diagnostic, r.reason) == ("unknown", "unknown", reason)


def test_backend_command_gets_a_deadline():
    # the bundled server without --timeout: the client's timeout still holds
    # (seven pigeons in six holes take the server many seconds, well past
    # timeout + grace)
    with BackendSession(backend=SERVER, timeout=0.5) as s:
        t0 = time.monotonic()
        r = s.check(_pigeons(7))
        elapsed = time.monotonic() - t0
        assert (r.status, r.diagnostic, r.reason) == ("unknown", "unknown", "timeout")
        assert elapsed < 3.0
        assert s.check([Rel("=", sv(Var("x")), Const(0))]).status == "sat"  # restarted


def test_close_releases_the_log_and_the_child(tmp_path):
    with BackendSession(backend=SERVER, smt_log=str(tmp_path / "d.smt2")) as s:
        s.check([Rel("=", sv(Var("x")), Const(3))])
        log, proc = s._log, s.proc
    assert log.closed
    assert proc.returncode is not None


def test_check_prints_the_reason_for_unknown(monkeypatch, capsys):
    monkeypatch.setattr(accel, "solve", lambda lits, ses: SolveResult(
        "unknown", diagnostic="unknown", reason="timeout"))
    path = str(EXAMPLES[0].parent / "overview.loop")
    assert cli.main(["check", path]) == 2
    assert capsys.readouterr().out.strip() == "unknown (unknown: timeout)"
    cli.main(["check", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert (out["detail"], out["reason"]) == ("unknown", "timeout")
