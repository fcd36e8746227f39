"""check's verdicts against the interpreter: Boolean init / post, zero
iterations, and random terminating scalar loops whose every reachable state
is enumerated.  An unsafe witness replays: its initial state meets init, the
guard holds for its n iterations and the state they reach meets post."""

import itertools
import json
import random
import shlex
import subprocess
from pathlib import Path

import pytest

from loopacc import cli
from loopacc.expr import State, Var, eval_formula, reset_fresh_counter
from loopacc.loop import step
from loopacc.problem import parse_problem

from test_backend import SERVER, check_json

HOARE13 = (Path(__file__).resolve().parent.parent / "examples_problems" / "hoare13.loop").read_text()
COUNTER = """
(declare (i 0) (k 0))
(init {init})
(loop (guard (< i k)) (update ((lhs i) (rhs (+ i 1)))))
(post {post})
"""
NAMED = {
    # the triple {b = a and j = i < k} swap {a[i] = b[j] or k < i}
    "hoare13-or": HOARE13.replace("(post (>= i k) (distinct (select a i) (select b j)))",
                                  "(post (>= i k) (or (distinct (select a i) (select b j)) (< k i)))"),
    "or": COUNTER.format(init="(= i 0) (= k 5)", post="(or (= i 3) (= i 4))"),
    "zero": COUNTER.format(init="(= i 5) (= k 5)", post="(>= i k)"),
    "array-or": HOARE13.replace("(post (>= i k) (distinct (select a i) (select b j)))",
                                "(post (or (= a b) (= i 4)))"),
}


@pytest.fixture
def run_check(capsys):
    """check --json on a file: its exit code and its report, with the
    fresh-name counter reset as in a new process."""
    def run(path, *options) -> tuple[int, dict]:
        reset_fresh_counter()
        code = cli.main(["check", str(path), "--json", *options])
        return code, json.loads(capsys.readouterr().out)
    return run


def write(tmp_path, name: str, text: str) -> Path:
    path = tmp_path / f"{name}.loop"
    path.write_text(text)
    return path


def replays(pf, witness: dict) -> bool:
    """The witness's scalars as the initial state meet init; the guard holds
    before each of its n iterations and the state they reach meets post."""
    state = State({Var(x): witness.get(x, 0) for x, arity in pf.declarations.items()
                   if arity == 0})
    if not all(eval_formula(f, state) for f in pf.init):
        return False
    for _ in range(witness["n"]):
        state = step(pf.loop, state)
        if state is None:
            return False
    return all(eval_formula(f, state) for f in pf.post)


def test_named_boolean_and_zero_iteration_verdicts(tmp_path, run_check):
    code, data = run_check(write(tmp_path, "hoare13-or", NAMED["hoare13-or"]))
    assert (code, data["result"]) == (1, "safe-bounded")
    for name, n in (("or", {3, 4}), ("zero", {0})):
        path = write(tmp_path, name, NAMED[name])
        code, data = run_check(path)
        assert (code, data["result"], data["reverified"]) == (0, "unsafe", True), name
        assert data["witness"]["n"] in n, name
        assert replays(parse_problem(path), data["witness"]), name
    code, data = run_check(write(tmp_path, "array-or", NAMED["array-or"]))
    assert (code, data["result"]) == (2, "unknown")
    assert (data["detail"], data["reason"]) == ("unknown", "unsupported: array equality")


# posts outside the solver's fragment, and the one reason each gets
REFUSED = {
    "(= (div i y) 3)": "unsupported: division by a non-constant or zero",
    "(divides y i)": "unsupported: divisibility by a non-constant",
    "(or (= a b) (> i 3))": "unsupported: array equality",
}


def test_a_query_outside_the_fragment_gets_one_reason_on_every_route(tmp_path, run_check):
    # check in-process, with a log and through a --backend child, and
    # loopacc-smt on the same assertion
    declare = "(declare (i 0) (k 0) (y 0) (a 1) (b 1))"
    for post, reason in REFUSED.items():
        path = write(tmp_path, "refused", COUNTER.format(init="(= i 0)", post=post).replace(
            "(declare (i 0) (k 0))", declare))
        for options in ((), ("--smt-log", str(tmp_path / "dialogue.smt2")), ("--backend", SERVER)):
            code, data = run_check(path, *options)
            assert (code, data["result"], data["detail"], data["reason"]) == (
                2, "unknown", "unknown", reason), (post, options)
    script = "".join(f"(declare-const {x} Int)" for x in "iy") + "".join(
        f"(declare-const {x} (Array Int Int))" for x in "ab") + "".join(
        f"(push 1)(assert {post})(check-sat)(get-info :reason-unknown)(pop 1)" for post in REFUSED)
    answers = subprocess.run(shlex.split(SERVER), input=script, capture_output=True, text=True,
                             timeout=60).stdout.splitlines()
    assert answers == [line for reason in REFUSED.values()
                       for line in ("unknown", f'(:reason-unknown "{reason}")')]


# s <- s + (div i 2) and x <- x + (div x 2) read an inductive lvalue under an
# inexact div: summed as constants, they gave s' = 0 at i = 4 and x' = 16 after
# two steps, and an unsafe verdict, where a run gives s = 2 and x = 18
HALVING = """
(declare (i 0) (k 0) ({x} 0) (m 0))
(init (= i 0) (= k {k}) (= m 5) (= {x} {start}))
(loop (guard (< i k)) (update ((lhs i) (rhs (+ i 1))) ((lhs {x}) (rhs (+ {x} (div {y} 2))))))
(post (>= i k) (= {x} {end}))
"""


def test_an_inductive_lvalue_under_an_inexact_div_is_refused(tmp_path, run_check, capsys):
    for y, x, k, start, end in (("i", "s", 4, 0, 0), ("x", "x", 2, 8, 16)):
        path = write(tmp_path, "halving", HALVING.format(x=x, y=y, k=k, start=start, end=end))
        detail = f"inductive lvalue inside an opaque term: (div {y} 2)"
        code, data = run_check(path)
        assert (code, data["result"], data["phase"], data["detail"]) == (
            2, "unknown", "rec", detail), y
        assert cli.main(["accelerate", str(path)]) == 1
        assert capsys.readouterr().out == f"failure(rec): {detail}\n"
    # the unwritten m is a constant: s' = 4 * (5 div 2)
    path = write(tmp_path, "halving", HALVING.format(x="s", y="m", k=4, start=0, end=8))
    code, data = run_check(path)
    assert (code, data["result"], data["reverified"]) == (0, "unsafe", True)
    assert data["witness"]["n"] == 4 and replays(parse_problem(path), data["witness"])


def test_a_negated_disjunction_is_the_conjunction_of_the_negations(tmp_path, run_check):
    # hoare13 with post a != b and i != 4, spelled three ways: each array
    # disequality is a conjunct of its own for lamsolve
    spellings = ["(post (distinct a b) (distinct i 4))",
                 "(post (not (or (= a b) (= i 4))))",
                 "(post (not (not (distinct a b))) (not (= i 4)))"]
    post = "(post (>= i k) (distinct (select a i) (select b j)))"
    answers = []
    for k, spelled in enumerate(spellings):
        code, data = run_check(write(tmp_path, f"post{k}", HOARE13.replace(post, spelled)))
        answers.append((code, data["result"], data["reverified"], data["witness"]))
    assert answers[0][:3] == (0, "unsafe", True) and answers[0][3]["n"] == 2
    assert answers[1] == answers[2] == answers[0]


def test_zero_iteration_witness_names_only_the_initial_state(tmp_path, capsys):
    assert cli.main(["check", str(write(tmp_path, "zero", NAMED["zero"]))]) == 0
    assert capsys.readouterr().out == "unsafe\n  i = 5\n  k = 5\n  n = 0\n"


# ---------------------------------------------------------------------------
# differential: random Boolean posts on terminating scalar loops


def _term(rng) -> str:
    return rng.choice(["i", "j", "k", str(rng.randint(-2, 6)), "(+ i j)", "(- k i)"])


def _atom(rng) -> str:
    op = rng.choice(["=", ">=", "<", "divides"])
    if op == "divides":
        return f"(divides {rng.randint(2, 3)} {rng.choice(['i', 'j', '(+ i j)'])})"
    return f"({op} {_term(rng)} {_term(rng)})"


def _formula(rng, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return _atom(rng)
    op = rng.choice(["not", "and", "or", "=>"])
    if op == "not":
        return f"(not {_formula(rng, depth - 1)})"
    return f"({op} {_formula(rng, depth - 1)} {_formula(rng, depth - 1)})"


def random_problem(rng) -> tuple[str, dict]:
    """Problem text and each scalar's initial range: i <- i + c, j <- j - d
    under i < k, init by constants or nondets, a depth-2 Boolean post."""
    c, d = rng.randint(1, 2), rng.randint(-1, 2)
    ranges, init = {}, []
    for x, lo in (("i", rng.randint(-1, 3)), ("j", rng.randint(-2, 2)), ("k", rng.randint(0, 5))):
        hi = lo + rng.choice([0, 0, 1, 2])
        ranges[x] = (lo, hi)
        init.append(f"(= {x} {lo})" if lo == hi else f"(= {x} (nondet {lo} {hi}))")
    text = f"""
(declare (i 0) (j 0) (k 0))
(init {' '.join(init)})
(loop (guard (< i k))
      (update ((lhs i) (rhs (+ i {c}))) ((lhs j) (rhs (- j {d})))))
(post {_formula(rng, 2)})
"""
    return text, ranges


def reachable_meets_post(pf, ranges: dict) -> bool:
    """Some state s_0 .. s_T of some run from the ranges meets post."""
    names = sorted(ranges)
    for values in itertools.product(*(range(lo, hi + 1) for lo, hi in
                                      (ranges[x] for x in names))):
        state = State({Var(x): v for x, v in zip(names, values)})
        while state is not None:
            if all(eval_formula(f, state) for f in pf.post):
                return True
            state = step(pf.loop, state)
    return False


PROBLEMS = 200


def test_verdicts_match_exhaustive_exploration(tmp_path, run_check):
    rng = random.Random(2026)
    seen = {"unsafe": 0, "safe-bounded": 0, "zero": 0}
    for k in range(PROBLEMS):
        text, ranges = random_problem(rng)
        path = write(tmp_path, f"p{k}", text)
        pf = parse_problem(path)
        code, data = run_check(path)
        expected = "unsafe" if reachable_meets_post(pf, ranges) else "safe-bounded"
        assert data["result"] == expected, text
        seen[expected] += 1
        if expected == "unsafe":
            assert code == 0 and data["reverified"], text
            assert replays(pf, data["witness"]), text
            seen["zero"] += data["witness"]["n"] == 0
    # the seed reaches both verdicts, zero-iteration witnesses among them
    assert min(seen.values()) >= 3, seen


def test_transport_parity_on_boolean_posts(tmp_path, capsys):
    rng = random.Random(7)
    problems = dict(NAMED, **{f"random{k}": random_problem(rng)[0] for k in range(3)})
    for name, text in problems.items():
        path = write(tmp_path, name, text)
        assert check_json(path, capsys) == check_json(path, capsys, "--backend", SERVER), name
