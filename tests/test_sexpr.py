"""Textual syntax: print/parse round trips and parse errors with positions."""

import random

import pytest

from loopacc.expr import And, Lam, Not, Or, Rel, Var
from loopacc.problem import parse_problem
from loopacc.sexpr import (
    ParseError, balanced, parse_expr, parse_formula, read_all, smt_symbol, to_text,
)

from test_expr import AR, SC, gen_expr, gen_formula

ENV = ({v.name: 0 for v in SC} | {v.name: 1 for v in AR}
       | {f"p{k}": 0 for k in range(3)} | {"n": 0, "j": 0, "c": 0})


def test_round_trip_fuzz():
    rnd = random.Random(5)
    for _ in range(600):
        e = gen_expr(rnd, 3, SC, AR)
        text = to_text(e)
        back = parse_expr(read_all(text)[0], ENV)
        assert back == e, text
    for _ in range(600):
        f = gen_formula(rnd, 3, SC, AR)
        text = to_text(f)
        back = parse_formula(read_all(text)[0], ENV)
        assert back == f, text


def test_lambda_round_trip():
    text = "(lambda (c) (ite (= c (+ i 1)) (select a i) (select a c)))"
    from loopacc.sexpr import parse_array

    lam = parse_array(read_all(text)[0], ENV)
    assert isinstance(lam, Lam)
    assert to_text(lam) == text


def test_implication_desugars():
    f = parse_formula(read_all("(=> (< i k) (<= i k))")[0], ENV)
    assert isinstance(f, Or) and isinstance(f.args[0], Not)


def test_iff_desugars():
    f = parse_formula(read_all("(<=> true false)")[0], ENV)
    assert isinstance(f, Or) and all(isinstance(a, And) for a in f.args)


@pytest.mark.parametrize("smt, plain", [
    ("(+ i k 1)", "(+ (+ i k) 1)"),
    ("(- i k 1)", "(- (- i k) 1)"),
    ("(* 2 i k)", "(* (* 2 i) k)"),
    ("(- 5)", "(- 0 5)"),
    ("(- (select a i))", "(- 0 (select a i))"),
    ("(select (select m i) k)", "(select m i k)"),
])
def test_smtlib_term_forms(smt, plain):
    env = ENV | {"m": 2}
    assert parse_expr(read_all(smt)[0], env) == parse_expr(read_all(plain)[0], env)


@pytest.mark.parametrize("smt, plain", [
    ("((_ divisible 3) (+ i 1))", "(divides 3 (+ i 1))"),
    ("(=> (< i k) (<= i k) (< i 5))", "(=> (< i k) (=> (<= i k) (< i 5)))"),
])
def test_smtlib_formula_forms(smt, plain):
    assert parse_formula(read_all(smt)[0], ENV) == parse_formula(read_all(plain)[0], ENV)


def test_smtlib_forms_in_a_problem_file():
    smt = parse_problem("""(declare (i 0) (k 0) (m 2))
        (loop (guard (< i (- k 1 1)))
              (update ((lhs i) (rhs (+ i 1 (select (select m i) k))))))
        (post ((_ divisible 2) i))""", is_path=False)
    plain = parse_problem("""(declare (i 0) (k 0) (m 2))
        (loop (guard (< i (- (- k 1) 1)))
              (update ((lhs i) (rhs (+ (+ i 1) (select m i k))))))
        (post (divides 2 i))""", is_path=False)
    assert (smt.loop, smt.post) == (plain.loop, plain.post)


@pytest.mark.parametrize("text", [
    "(-)", "(+ i)", "(* 2)", "(div i 2 3)", "(select (select) i)", "((_ divisible 2) i)",
])
def test_malformed_arithmetic_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_expr(read_all(text)[0], ENV)


@pytest.mark.parametrize("text", [
    "((_ divisible k) i)", "((_ divisible 2) i k)", "(=> true)", "(= a m)",
])
def test_malformed_formula_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_formula(read_all(text)[0], ENV | {"m": 2})


def test_malformed_paren_has_position():
    with pytest.raises(ParseError):
        read_all("(+ i 1))")


def test_undeclared_variable():
    with pytest.raises(ParseError):
        parse_expr(read_all("(+ zz 1)")[0], ENV)


def test_array_used_without_index():
    with pytest.raises(ParseError):
        parse_expr(read_all("(+ a 1)")[0], ENV)


def test_select_arity_checked():
    with pytest.raises(ParseError):
        parse_expr(read_all("(select a i k)")[0], ENV)


def test_array_literal_parses():
    f = parse_formula(read_all("(= a b)")[0], ENV)
    assert isinstance(f, Rel) and isinstance(f.left, Var) and f.left.arity == 1


def test_comments_ignored():
    f = parse_formula(read_all("; note\n(and true (< i k)) ; trailing")[0], ENV)
    assert f == parse_formula(read_all("(and true (< i k))")[0], ENV)


def test_problem_rejects_string_literal():
    text = '(declare (i 0)) (loop (update ((lhs i) (rhs "one"))))'
    with pytest.raises(ParseError, match="string literal"):
        parse_problem(text, is_path=False)
    with pytest.raises(ParseError):
        parse_formula(read_all('"true"')[0], ENV)


def test_quoted_symbol_round_trips():
    name = "i'"
    assert smt_symbol(name) == "|i'|" and smt_symbol("i") == "i"
    assert read_all(f"(declare-const {smt_symbol(name)} Int)") == [["declare-const", name, "Int"]]
    assert read_all('(echo "a ""b"" c")') == [["echo", ("str", 'a "b" c')]]


def test_unterminated_tokens_report_their_offset():
    for text, pos in (("(echo |abc)", 6), ('(echo "abc)', 6)):
        with pytest.raises(ParseError) as info:
            read_all(text)
        assert info.value.pos == pos


@pytest.mark.parametrize("text, whole", [
    ("(a) ; (", True), ("(a) ; |", True), ('(a) ; "', True), ("(a ; )\n", False),
    ('(echo "a "") b")', True), ('(echo "a "")', False),
    ("(a |b)", False), ('(a "b)', False), ("(a |b)|)", True),
])
def test_balanced_reads_the_tokens(text, whole):
    assert balanced(text) is whole
