"""Problem files and the command-line front end."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from loopacc import accel, cli
from loopacc.accel import check_reachability
from loopacc.backend import BackendSession
from loopacc.expr import Const, Rel, Var, sv
from loopacc.problem import parse_problem
from loopacc.sexpr import ParseError, to_text

EXAMPLES = Path(__file__).resolve().parent.parent / "examples_problems"

SWAP_TEXT = """
(declare (i 0) (k 0) (a 1))
(loop
  (guard (< i k))
  (update
    ((lhs i) (rhs (+ i 1)))
    ((lhs (select a (+ i 1))) (rhs (select a i)))
    ((lhs (select a i)) (rhs (select a (+ i 1))))))
"""


class TestParseProblem:
    def test_swap_structure(self):
        pf = parse_problem(SWAP_TEXT, is_path=False)
        assert pf.declarations == {"i": 0, "k": 0, "a": 1}
        assert len(pf.loop.lvalues) == 3
        assert pf.loop.guard == Rel("<", sv(Var("i")), sv(Var("k")))

    def test_round_trip_via_printer(self):
        pf = parse_problem(SWAP_TEXT, is_path=False)
        for lv, r in zip(pf.loop.lvalues, pf.loop.rhs):
            from loopacc.sexpr import parse_expr, read_all

            env = pf.env()
            assert parse_expr(read_all(to_text(lv))[0], env) == lv
            assert parse_expr(read_all(to_text(r))[0], env) == r

    def test_malformed_paren(self):
        with pytest.raises(ParseError):
            parse_problem("(declare (i 0)", is_path=False)

    def test_guard_disjunction_rejected(self):
        bad = """(declare (i 0))
        (loop (guard (or (< i 3) (> i 5))) (update ((lhs i) (rhs (+ i 1)))))"""
        with pytest.raises(ParseError):
            parse_problem(bad, is_path=False)

    def test_guard_divisibility_rejected(self):
        bad = """(declare (i 0))
        (loop (guard (divides 2 i)) (update ((lhs i) (rhs (+ i 1)))))"""
        with pytest.raises(ParseError):
            parse_problem(bad, is_path=False)

    def test_reserved_n_rejected(self):
        with pytest.raises(ParseError):
            parse_problem("(declare (n 0)) (loop (guard (< n 3)) (update ((lhs n) (rhs n))))",
                          is_path=False)

    def test_undeclared_variable_rejected(self):
        bad = "(declare (i 0)) (loop (guard (< i z)) (update ((lhs i) (rhs i))))"
        with pytest.raises(ParseError):
            parse_problem(bad, is_path=False)

    def test_lambda_rhs_rejected(self):
        bad = """(declare (i 0) (a 1))
        (loop (guard (< i 3))
          (update ((lhs i) (rhs (select (lambda (c) c) i)))))"""
        with pytest.raises(ParseError):
            parse_problem(bad, is_path=False)

    def test_nondet_hoisting(self):
        text = """(declare (i 0) (k 0))
        (init (= i (nondet 0 k)))
        (loop (guard (< i k)) (update ((lhs i) (rhs (+ i 1)))))"""
        pf = parse_problem(text, is_path=False)
        assert len(pf.nondets) == 1
        nd = pf.nondets[0]
        assert pf.declarations[nd.name] == 0
        assert len(pf.init) == 3  # range conjuncts + the equation

    def test_nondet_names_avoid_declared_names(self):
        # nd0 and nd2 are declared, one of them only after the init block
        text = """(declare (i 0) (nd0 0))
        (init (= i (nondet 0 (nondet 1 2))) (= nd0 7))
        (loop (guard (< i 3)) (update ((lhs i) (rhs (+ i 1)))))
        (declare (nd2 0))"""
        pf = parse_problem(text, is_path=False)
        assert [v.name for v in pf.nondets] == ["nd1", "nd3"]
        inner, outer = (sv(v) for v in pf.nondets)
        assert pf.init[:4] == [Rel("<=", Const(1), inner), Rel("<=", inner, Const(2)),
                               Rel("<=", Const(0), outer), Rel("<=", outer, inner)]

    def test_nondet_outside_init_post_rejected(self):
        bad = """(declare (i 0))
        (loop (guard (< i 3)) (update ((lhs i) (rhs (nondet 0 3)))))"""
        with pytest.raises(ParseError):
            parse_problem(bad, is_path=False)


def run_cli(*argv) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "loopacc.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


class TestCli:
    def test_classify_swap(self):
        code, out = run_cli("classify", str(EXAMPLES / "swap.loop"))
        assert code == 0
        assert "a-solvable: yes" in out
        assert "displacing" in out and "inductive" in out

    def test_classify_json(self):
        code, out = run_cli("classify", str(EXAMPLES / "swap.loop"), "--json")
        data = json.loads(out)
        assert data["schema"] == 1 and data["a_solvable"] is True
        assert data["rhs_tags"] == ["a", "a", "b"]

    def test_closed_form_array_flag(self):
        code, out = run_cli("closed-form", str(EXAMPLES / "swap.loop"), "--array", "a")
        assert code == 0 and "a^(n) = (lambda" in out

    def test_closed_form_check_flag(self):
        code, out = run_cli("closed-form", str(EXAMPLES / "swap.loop"), "--check", "n=5")
        assert code == 0 and "oracle check" in out and "ok" in out

    def test_accelerate_decrement(self):
        code, out = run_cli("accelerate", str(EXAMPLES / "decrement.loop"), "--json")
        data = json.loads(out)
        assert code == 0
        assert data["formula"].startswith("(and (> n 0)")

    def test_check_exit_codes(self):
        code, out = run_cli("check", str(EXAMPLES / "overview.loop"))
        assert code == 0 and out.startswith("unsafe")
        code, out = run_cli("check", str(EXAMPLES / "hoare13.loop"))
        assert code == 1 and out.strip() == "safe-bounded"
        code, out = run_cli("check", str(EXAMPLES / "mixing.loop"))
        assert code == 2 and out.startswith("unknown")

    def test_check_json_witness_reverified(self):
        code, out = run_cli("check", str(EXAMPLES / "overview.loop"), "--json")
        data = json.loads(out)
        assert data["result"] == "unsafe"
        assert data["reverified"] is True
        assert data["witness"]["n"] == 10000

    def test_oracle_fixed_seed_deterministic(self):
        code1, out1 = run_cli("oracle", "--fuzz", "3", "--seed", "11", "--json")
        code2, out2 = run_cli("oracle", "--fuzz", "3", "--seed", "11", "--json")
        assert code1 == code2 == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        assert [r["checked"] for r in d1["reports"]] == [r["checked"] for r in d2["reports"]]

    def test_oracle_file_mode(self):
        code, out = run_cli("oracle", str(EXAMPLES / "swap.loop"), "--n-max", "5")
        assert code == 0 and "1/1 ok" in out

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.loop"
        bad.write_text("(declare (i 0)")
        code, _ = run_cli("classify", str(bad))
        assert code == 2

    def test_check_requires_post_block(self):
        code, out = run_cli("check", str(EXAMPLES / "decrement.loop"))
        assert code == 2

    def test_two_dim_closed_form(self):
        code, out = run_cli("closed-form", str(EXAMPLES / "twodim.loop"), "--array", "m")
        assert code == 0
        assert "m^(n) = (lambda (c0" in out
        assert "divides 2" in out  # stride-2 dimension needs divisibility

    def test_decreasing_loop_check(self):
        code, out = run_cli("check", str(EXAMPLES / "countdown.loop"))
        assert code == 1 and out.strip() == "safe-bounded"

    def test_oracle_two_dim_file(self):
        code, out = run_cli("oracle", str(EXAMPLES / "twodim.loop"), "--n-max", "6")
        assert code == 0 and "1/1 ok" in out


ALIASING_TEXT = """
(declare (i 0) (j 0) (a 1))
(init (= i 0))
(loop
  (guard (< i 10))
  (update
    ((lhs i) (rhs (+ i 1)))
    ((lhs (select a i)) (rhs 1))
    ((lhs (select a j)) (rhs 2))))
"""


def test_closed_form_show_rec_array_and_check_in_process(capsys):
    swap = str(EXAMPLES / "swap.loop")
    argv = ["closed-form", swap, "--show-rec", "--array", "a", "--check", "n=4"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "  rec[i]' = (+ i 1)\n" in out and "  theta(rec[i]) = (+ i n)\n" in out
    assert [l.split(" = ")[0] for l in out.splitlines() if "^(n) = (lambda" in l] == ["a^(n)"]
    assert "oracle check (n<=4): ok" in out
    assert cli.main(argv + ["--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] and "i" in data["rec"] and data["oracle"]["ok"]
    assert list(data["arrays"]) == ["a"] and data["arrays"]["a"].startswith("(lambda")
    assert cli.main(["closed-form", swap, "--array", "zz"]) == 2
    assert "unknown array 'zz'" in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.loop")), ids=lambda p: p.name)
def test_show_rec_names_the_loop_lvalues(path, capsys):
    # the recurrences are over the loop's own lvalues: no fresh rec symbol
    code = cli.main(["closed-form", str(path), "--show-rec", "--json"])
    out = capsys.readouterr().out
    assert not re.search(r"rec[^\s\"()]*!", out), out
    if code == 0:
        data = json.loads(out)
        assert set(data["rec"]) <= set(data["lvalues"])


RESET_TEXT = """
(declare (i 0) (k 0) (x 0) (y 0))
(loop
  (guard (< i k))
  (update
    ((lhs i) (rhs (+ i 1)))
    ((lhs y) (rhs (+ y x)))
    ((lhs x) (rhs 5))))
(post (>= i k) (= y 0))
"""


def test_a_self_coefficient_refusal_names_the_lvalue(tmp_path, capsys):
    path = str(tmp_path / "reset.loop")
    Path(path).write_text(RESET_TEXT)
    reason = "equation for x is not rec' = rec + q (self coefficient 0)"
    assert cli.main(["accelerate", path]) == 1
    assert capsys.readouterr().out == f"failure(rec): {reason}\n"
    assert cli.main(["check", path]) == 2
    assert capsys.readouterr().out == f"unknown (rec: {reason})\n"


_DECL = "(declare (i 0) (k 0) (a 1))\n"
_UPD = "(update ((lhs i) (rhs (+ i 1))))"


def _looped(part):
    return f"{_DECL}(loop (guard (< i k)) {part})"


def _rhs(form):
    return f"{_DECL}(loop (update ((lhs i) (rhs {form}))))"


def _post(form):
    return f"{_DECL}(loop {_UPD})\n(post {form})"


# (problem text, the ParseError's message)
MALFORMED = [
    ("stray", "expected a block, got 'stray'"),
    ("(declare (i))", "declare entries are (name arity)"),
    ("(declare (12 0))", "numeric variable name '12'"),
    ("(declare (a x))", "arity of a must be a natural number"),
    ("(declare (a 0) (a 1))", "a redeclared with a different arity"),
    (_DECL + "(pre (= i 0))", "unknown block 'pre'"),
    (_DECL, "no (loop ...) block"),
    (_DECL + f"(init (= i (nondet 0)))\n(loop {_UPD})", "(nondet lo hi)"),
    (_looped("x"), "bad loop part 'x'"),
    (f"{_DECL}(loop (guard (< i 1) (< i 2)) {_UPD})", "(guard f)"),
    (f"{_DECL}(loop (body) {_UPD})", "unknown loop part 'body'"),
    (f"{_DECL}(loop (guard (< i k)))", "loop without updates"),
    (_looped("(update ((lhs i) (rhs 1)) ((lhs i) (rhs 2)))"), "syntactically duplicate lvalues"),
    (_looped("(update (i (+ i 1)))"), "updates are ((lhs l) (rhs r))"),
    (_looped("(update ((lhs (+ i 1)) (rhs 0)))"), "lhs is not an lvalue: ['+', 'i', '1']"),
    (f"{_DECL}(loop (guard (< (ite (< i 1) i k) k)) {_UPD})",
     "guard atoms must relate rvalues"),
    (_rhs("()"), "empty form"),
    (_rhs("(select)"), "(select ...) needs an array"),
    (_rhs("(ite (< i 1) 0)"), "(ite guard then else)"),
    (_rhs("(select b i)"), "undeclared variable 'b'"),
    (_rhs("(select (lambda (c)) i)"), "(lambda (params...) body)"),
    (_rhs("(select (lambda (1) 0) i)"), "lambda parameters must be symbols"),
    (_rhs("(select (lambda (c c) c) i i)"), "duplicate lambda parameters"),
    (f"{_DECL}(loop (guard ()) {_UPD})", "empty formula"),
    (_post("(< i)"), "(< ...) takes two arguments"),
    (_post("(divides 2)"), "(divides d e)"),
    (_post("(not)"), "(not f)"),
    (_post("(<=> true)"), "(<=> f g)"),
    (_post("(xor true false)"), "unknown formula head 'xor'"),
]


@pytest.mark.parametrize("text, message", MALFORMED, ids=[m for _, m in MALFORMED])
def test_a_malformed_problem_is_a_parse_error(text, message, tmp_path, capsys):
    path = tmp_path / "bad.loop"
    path.write_text(text)
    assert cli.main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


@pytest.mark.parametrize("argv", [["oracle"], ["closed-form", "--check", "4"]])
def test_aliasing_loop_fails_validation_without_a_traceback(tmp_path, argv):
    path = tmp_path / "alias.loop"
    path.write_text(ALIASING_TEXT)
    proc = subprocess.run([sys.executable, "-m", "loopacc.cli", *argv, str(path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "failure(validation)" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_bad_option_values_are_usage_errors(capsys):
    swap = str(EXAMPLES / "swap.loop")
    bad = [["closed-form", swap, "--check", "n=x"], ["closed-form", swap, "--check", "-1"],
           ["oracle", swap, "--n-max", "-1"], ["oracle", swap, "--states", "-1"],
           ["oracle", swap, "--states", "0"], ["oracle", "--fuzz", "1", "--dim", "-1"],
           ["oracle", "--fuzz", "1", "--dim", "0"],
           ["oracle", "--fuzz", "-1"], ["oracle", "--fuzz", "0"],
           ["oracle", swap, "--fuzz", "2"], ["oracle", "missing.loop", "--fuzz", "1"],
           ["oracle", swap, "--dim", "3"], ["oracle", "--scalars-only", swap],
           ["oracle", "--fuzz", "1", "--scalars-only", "--dim", "3"],
           ["oracle", swap, "--scalars-only", "--dim", "3"],
           ["check", swap, "--timeout", "0"],
           ["check", swap, "--timeout", "nan"]]
    for argv in bad:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.startswith("usage: loopacc"), argv
        assert f"argument {argv[-2]}" in err, argv


DISJUNCTIVE_POST_TEXT = """
(declare (i 0) (k 0))
(init (= i 0) (= k 5))
(loop (guard (< i k)) (update ((lhs i) (rhs (+ i 1)))))
(post (or (= i 3) (= i 4)))
"""


def test_check_answers_a_disjunctive_post(tmp_path, capsys):
    # a post that is not a conjunction of literals goes to the ground solver
    # as it is
    path = str(tmp_path / "or.loop")
    Path(path).write_text(DISJUNCTIVE_POST_TEXT)
    assert cli.main(["check", path]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("unsafe\n") and err == ""
    assert cli.main(["check", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["result"], data["reverified"]) == ("unsafe", True)
    assert data["witness"]["n"] == data["witness"]["i'"] in (3, 4)


NONDET_CLASH_TEXT = """
(declare (i 0) (k 0) (nd0 0))
(init (= nd0 7) (= i (nondet 0 3)) (= k 5))
(loop (guard (< i k)) (update ((lhs i) (rhs (+ i 1)))))
(post (>= i k))
"""


def test_a_nondet_does_not_take_a_declared_name(tmp_path, capsys):
    # were the nondet named nd0, init would read nd0 = 7 and 0 <= nd0 <= 3,
    # and the file would be wrongly safe-bounded
    path = str(tmp_path / "clash.loop")
    Path(path).write_text(NONDET_CLASH_TEXT)
    assert cli.main(["check", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["result"], data["reverified"]) == ("unsafe", True)
    assert data["witness"]["n"] == 5 - data["witness"]["i"]
    assert data["derived"]["nd0"] == 7


def test_a_model_that_is_not_re_verified_is_unknown(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "or.loop")
    Path(path).write_text(DISJUNCTIVE_POST_TEXT)
    monkeypatch.setattr(accel, "verify_model", lambda *args: False)
    assert cli.main(["check", path]) == 2
    assert capsys.readouterr().out == "unknown (model not re-verified)\n"
    assert cli.main(["check", path, "--json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert (data["result"], data["detail"]) == ("unknown", "model not re-verified")


def test_a_crash_exits_3_with_its_traceback(monkeypatch, capsys):
    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(accel, "accelerate", crash)  # the call check_reachability makes
    monkeypatch.setattr(cli, "accelerate", crash)
    for argv in (["check", str(EXAMPLES / "hoare13.loop")], ["accelerate", str(EXAMPLES / "swap.loop")]):
        assert cli.main(argv) == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("Traceback") and "RuntimeError: boom" in err, argv



UNDECIDED_THEN_INITIAL_TEXT = """
(declare (i 0) (k 0) (s 0))
(init (= s 3) (= i 1))
(loop (guard (< i k)) (update ((lhs i) (rhs (+ i 1))) ((lhs s) (rhs (+ s i)))))
(post (= s 3))
"""


def test_the_initial_state_is_asked_when_n_above_0_is_undecided(tmp_path, capsys):
    # the n > 0 query leaves a nonlinear residue (unknown); the initial state
    # meets post, so the n = 0 query decides the file
    pf = parse_problem(UNDECIDED_THEN_INITIAL_TEXT, is_path=False)
    with BackendSession() as ses:
        res = check_reachability(pf.init, pf.loop, pf.post, ses)
    assert res.status == "model"
    assert {k: res.model.scalars[k] for k in ("n", "i", "s")} == {"n": 0, "i": 1, "s": 3}
    path = tmp_path / "zero.loop"
    path.write_text(UNDECIDED_THEN_INITIAL_TEXT)
    assert cli.main(["check", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["result"], data["reverified"]) == ("unsafe", True)
    assert (data["witness"]["n"], data["witness"]["i"], data["witness"]["s"]) == (0, 1, 3)


SWAP_ACROSS_TEXT = """
(declare (i 0) (j 0) (a 1))
(init (= i 0) (= j 9))
(loop
  (guard (< i j))
  (update
    ((lhs (select a i)) (rhs (select a j)))
    ((lhs (select a j)) (rhs (select a i)))
    ((lhs i) (rhs (+ i 1)))
    ((lhs j) (rhs (- j 1)))))
(post (>= i j) (distinct (select a 0) (select a 0)))
"""


def test_accelerate_refuses_a_loop_whose_distinct_is_not_established(tmp_path, capsys):
    # a[i] and a[j] may be one cell, which (Distinct) forbids
    detail = "(Distinct) not established: pair (0, 1)"
    pf = parse_problem(SWAP_ACROSS_TEXT, is_path=False)
    with BackendSession() as ses:
        res = check_reachability(pf.init, pf.loop, pf.post, ses)
    assert (res.phase, res.detail) == ("validation", detail)
    path = str(tmp_path / "swap_across.loop")
    Path(path).write_text(SWAP_ACROSS_TEXT)
    assert cli.main(["accelerate", path]) == 1
    assert capsys.readouterr().out == f"failure(validation): {detail}\n"
    assert cli.main(["check", path]) == 2
    assert capsys.readouterr().out == f"unknown (validation: {detail})\n"


UNREAD_SCALAR_TEXT = """
(declare (i 0) (k 0) (x 0))
(init (= i 0) (< 0 k))
(loop
  (guard (< i k))
  (update
    ((lhs i) (rhs (+ i 1)))
    ((lhs x) (rhs 5))))
(post (>= i k) (= x 5))
"""


def test_a_written_scalar_no_rhs_reads_is_accelerated(tmp_path, capsys):
    # no right-hand side reads x, so the lvalue table has no entry for it; its
    # closed form is its last write, x itself before the first iteration
    path = str(tmp_path / "unread.loop")
    Path(path).write_text(UNREAD_SCALAR_TEXT)
    assert cli.main(["accelerate", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["closed_forms"]["x"] == "(ite (>= n 1) 5 x)"
    assert "(= x' (ite (>= n 1) 5 x))" in data["formula"]
    assert cli.main(["check", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == "unsafe" and data["reverified"]
    assert (data["witness"]["n"], data["witness"]["x'"]) == (1, 5)
    assert cli.main(["oracle", path]) == 0
    assert ": ok  [" in capsys.readouterr().out


def test_closed_form_lists_a_written_scalar_no_rhs_reads(tmp_path, capsys):
    # scalars are arrays of dimension 0: x is listed with the written arrays
    path = str(tmp_path / "unread.loop")
    Path(path).write_text(UNREAD_SCALAR_TEXT)
    assert cli.main(["closed-form", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-2:] == ["  i -> (+ i n)", "x^(n) = (ite (>= n 1) 5 x)"]
    assert cli.main(["closed-form", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lvalues"] == {"i": "(+ i n)"}
    assert data["arrays"] == {"x": "(ite (>= n 1) 5 x)"}


NON_MONOTONIC_GUARD_TEXT = """
(declare (i 0) (a 1))
(loop
  (guard (< (select a (+ i 2)) 100))
  (update
    ((lhs i) (rhs (+ i 1)))
    ((lhs (select a i)) (rhs (select a (+ i 1))))))
"""


def test_failure_details_print_expressions_as_text(tmp_path, capsys):
    path = str(tmp_path / "guard.loop")
    Path(path).write_text(NON_MONOTONIC_GUARD_TEXT)
    detail = "guard atom is not monotonic: (< (select a (+ i 2)) 100)"
    assert cli.main(["accelerate", path]) == 1
    assert capsys.readouterr().out == f"failure(guard): {detail}\n"
    assert cli.main(["accelerate", path, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["detail"] == detail


# Each command as a new CLI process runs it: the fresh-name counter starts at 0.
RUN_COMMANDS = """
import json, sys
from loopacc import accel, cli
from loopacc.accel import check_reachability
from loopacc.backend import BackendSession
from loopacc.expr import reset_fresh_counter
for argv in json.loads(sys.argv[1]):
    reset_fresh_counter()
    print("exit", cli.main(argv))
"""


def test_output_does_not_depend_on_the_hash_seed():
    """String hashes follow PYTHONHASHSEED and node hashes mix in the address
    of the node's class, so set orders differ from process to process; no
    output may follow them, nor a memo hit that returns an equal term built
    in another order."""
    commands = [["check", str(p), "--json"] for p in sorted(EXAMPLES.glob("*.loop"))]
    commands.append(["oracle", "--fuzz", "3", "--seed", "0", "--json"])
    procs = [subprocess.Popen([sys.executable, "-c", RUN_COMMANDS, json.dumps(commands)],
                              stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONHASHSEED": seed})
             for seed in ("0", "1", "2")]
    outs = [re.sub(r'"elapsed": [-0-9.e]+', '"elapsed"', proc.communicate(timeout=120)[0])
            for proc in procs]
    assert [p.returncode for p in procs] == [0, 0, 0]
    assert outs[0].count("exit") == len(commands)
    assert outs[0] == outs[1] == outs[2]
