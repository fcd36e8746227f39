"""S-expression text: the one reader and the SMT-LIB helpers shared by the
problem files, the CLI and both sides of the solver protocol, plus the
expression syntax of problem files.

The reader follows the concrete syntax of SMT-LIB 2.6: ``;`` comments,
``|quoted|`` symbols and string literals in which ``""`` is an escaped quote.
Symbols and numerals are read as str, lists as Python lists, and string
literals as ``("str", text)`` pairs, which no expression accepts.

Expression grammar (EBNF-ish; see README for the full write-up):

    expr    ::= INT | SYMBOL                      ; SYMBOL must be scalar
              | "(" op expr expr+ ")"             ; op in + - *, left-associative
              | "(-" expr ")"                     ; 0 - expr
              | "(div" expr expr ")"              ; floor division
              | "(select" array expr* ")"         ; full index vector
              | "(select" "(select" ... ")" expr* ")"  ; = one select, indices in order
              | "(ite" formula expr expr ")"
    array   ::= SYMBOL | "(lambda" "(" SYMBOL* ")" expr ")"
    formula ::= "true" | "false"
              | "(" relop expr expr ")"           ; relop in < <= > >= =
              | "(distinct" expr expr ")"         ; inequality
              | "(divides" expr expr ")"          ; divisor first
              | "((_ divisible" INT ")" expr ")"  ; = (divides INT expr)
              | "(and" formula* ")" | "(or" formula* ")" | "(not" formula ")"
              | "(=>" formula formula+ ")"        ; right-associative
              | "(<=>" formula formula ")"

The n-ary, unary, nested-select and divisible forms are the SMT-LIB spellings
the backend client sends, so the solver reads its queries with this parser
too; the solver session first spells SMT-LIB's euclidean div as floor div.
``=>`` and ``<=>`` are parsed as sugar (desugared to not/or/and), so printing
always round-trips.  Parsing requires an arity environment, a dict
mapping names to dimensions; lambda parameters shadow it with scalars.
"""

from __future__ import annotations

from .expr import (
    And, Bin, BoolConst, Const, ExprError, Formula, Ite, Lam,
    Not, Or, Rel, Sel, Var, conj, disj,
)


class ParseError(ExprError):
    def __init__(self, msg, pos=None):
        super().__init__(f"{msg}" + (f" at offset {pos}" if pos is not None else ""))
        self.pos = pos


# ---------------------------------------------------------------------------
# generic s-expression reader


def tokenize(text: str):
    """(token, offset) pairs.  A token is "(", ")", a simple symbol or a
    numeral, ("sym", name) for a |quoted| symbol, or ("str", text) for a
    string literal."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield c, i
            i += 1
        elif c == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise ParseError("unterminated |symbol|", i)
            yield ("sym", text[i + 1: j]), i
            i = j + 1
        elif c == '"':
            j = i + 1
            while True:  # "" inside a string literal is an escaped quote
                j = text.find('"', j)
                if j < 0:
                    raise ParseError("unterminated string literal", i)
                if text[j + 1: j + 2] != '"':
                    break
                j += 2
            yield ("str", text[i + 1: j].replace('""', '"')), i
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in ' \t\r\n();|"':
                j += 1
            yield text[i:j], i
            i = j


def read_all(text: str) -> list:
    """Parse every top-level form; a quoted symbol reads as its name."""
    out, stack = [], []
    for tok, pos in tokenize(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise ParseError("unbalanced ')'", pos)
            done = stack.pop()
            (stack[-1] if stack else out).append(done)
        else:
            if isinstance(tok, tuple) and tok[0] == "sym":
                tok = tok[1]
            (stack[-1] if stack else out).append(tok)
    if stack:
        raise ParseError("unbalanced '('")
    return out


def balanced(text: str) -> bool:
    """Whether text closes every form it opens: a line-by-line reader has
    whole commands at that point.  An unterminated |symbol| or string is not
    balanced yet."""
    depth = 0
    try:
        for tok, _ in tokenize(text):
            depth += (tok == "(") - (tok == ")")
    except ParseError:
        return False
    return depth <= 0


def _is_int(tok: str) -> bool:
    return tok.lstrip("-").isdigit() and tok not in ("-", "")


# ---------------------------------------------------------------------------
# SMT-LIB symbols, numerals and sorts (Int, nested (Array Int ...))


def smt_symbol(name: str) -> str:
    if name and all(c.isalnum() or c in "~!@$%^&*_+=<>.?/-" for c in name):
        return name
    return f"|{name}|"


def smt_int(v: int) -> str:
    return str(v) if v >= 0 else f"(- {-v})"


def sort_text(arity: int) -> str:
    return "Int" if arity == 0 else f"(Array Int {sort_text(arity - 1)})"


def sort_arity(form) -> int:
    """Arity of a read sort: Int -> 0, (Array Int S) -> 1 + arity(S)."""
    if form == "Int":
        return 0
    if isinstance(form, list) and len(form) == 3 and form[0] == "Array":
        if form[1] != "Int":
            raise ParseError("array index sort must be Int")
        return 1 + sort_arity(form[2])
    raise ParseError(f"unsupported sort {form!r}")


# ---------------------------------------------------------------------------
# printing


def to_text(e) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Bin):
        return f"({e.op} {to_text(e.left)} {to_text(e.right)})"
    if isinstance(e, Sel):
        if not e.idx and isinstance(e.arr, Var):
            return e.arr.name
        inner = " ".join(to_text(i) for i in e.idx)
        return f"(select {to_text(e.arr)} {inner})"
    if isinstance(e, Ite):
        return f"(ite {to_text(e.cond)} {to_text(e.then)} {to_text(e.other)})"
    if isinstance(e, Lam):
        params = " ".join(p.name for p in e.params)
        return f"(lambda ({params}) {to_text(e.body)})"
    if isinstance(e, BoolConst):
        return "true" if e.value else "false"
    if isinstance(e, Rel):
        op = {"!=": "distinct"}.get(e.op, e.op)
        return f"({op} {to_text(e.left)} {to_text(e.right)})"
    if isinstance(e, Not):
        return f"(not {to_text(e.arg)})"
    if isinstance(e, And):
        return "(and " + " ".join(to_text(a) for a in e.args) + ")" if e.args else "true"
    if isinstance(e, Or):
        return "(or " + " ".join(to_text(a) for a in e.args) + ")" if e.args else "false"
    raise TypeError(f"not printable: {e!r}")


def smt_text(e) -> str:
    """A term or formula of the backend fragment in SMT-LIB spelling:
    symbols quoted where needed, a negative numeral as (- k), one select per
    index and (divides k t) as ((_ divisible k) t).  parse_formula reads it
    back to a formula that simplifies alike: -k reads back as 0 - k."""
    k = e.__class__
    if k is Const:
        return smt_int(e.value)
    if k is Sel:
        out = smt_symbol(e.arr.name)
        for i in e.idx:
            out = f"(select {out} {smt_text(i)})"
        return out
    if k is Bin:
        return f"({e.op} {smt_text(e.left)} {smt_text(e.right)})"
    if k is Rel:
        if e.op == "divides":
            return f"((_ divisible {e.left.value}) {smt_text(e.right)})"
        op = "distinct" if e.op == "!=" else e.op
        return f"({op} {smt_text(e.left)} {smt_text(e.right)})"
    if k is And or k is Or:
        return f"({'and' if k is And else 'or'} {' '.join(map(smt_text, e.args))})"
    if k is Not:
        return f"(not {smt_text(e.arg)})"
    if k is Ite:
        return f"(ite {smt_text(e.cond)} {smt_text(e.then)} {smt_text(e.other)})"
    if k is BoolConst:
        return "true" if e.value else "false"
    raise TypeError(f"not in the backend fragment: {e!r}")


# ---------------------------------------------------------------------------
# parsing to the AST

_REL = {"<", "<=", ">", ">=", "="}
_ARITH = {"+", "-", "*", "div"}


def parse_expr(form, env: dict[str, int]):
    if isinstance(form, tuple):
        raise ParseError(f"string literal {form[1]!r} is not an expression")
    if isinstance(form, str):
        if _is_int(form):
            return Const(int(form))
        ar = env.get(form)
        if ar is None:
            raise ParseError(f"undeclared variable '{form}'")
        if ar != 0:
            raise ParseError(f"array '{form}' used without an index")
        return Sel(Var(form, 0), ())
    if not form:
        raise ParseError("empty form")
    head = form[0]
    if not isinstance(head, str):
        raise ParseError(f"unknown expression head {head!r}")
    if head in _ARITH:
        args = [parse_expr(a, env) for a in form[1:]]
        if head == "-" and len(args) == 1:
            return Bin("-", Const(0), args[0])
        if len(args) < 2 or (head == "div" and len(args) != 2):
            raise ParseError(f"wrong number of arguments to {head}")
        out = args[0]
        for a in args[1:]:  # n-ary operators associate to the left
            out = Bin(head, out, a)
        return out
    if head == "select":
        if len(form) < 2:
            raise ParseError("(select ...) needs an array")
        arr_form, idx_forms = form[1], form[2:]
        # SMT-LIB selects one index at a time: (select (select a i) j)
        while isinstance(arr_form, list) and len(arr_form) > 1 and arr_form[0] == "select":
            arr_form, idx_forms = arr_form[1], arr_form[2:] + idx_forms
        arr = parse_array(arr_form, env)
        idx = tuple(parse_expr(x, env) for x in idx_forms)
        ar = arr.arity if isinstance(arr, Var) else len(arr.params)
        if len(idx) != ar:
            raise ParseError(f"select on arity-{ar} array with {len(idx)} indices")
        return Sel(arr, idx)
    if head == "ite":
        if len(form) != 4:
            raise ParseError("(ite guard then else)")
        return Ite(parse_formula(form[1], env),
                   parse_expr(form[2], env),
                   parse_expr(form[3], env))
    raise ParseError(f"unknown expression head '{head}'")


def parse_array(form, env: dict[str, int]):
    if isinstance(form, str):
        ar = env.get(form)
        if ar is None:
            raise ParseError(f"undeclared variable '{form}'")
        return Var(form, ar)
    if form and form[0] == "lambda":
        if len(form) != 3 or not isinstance(form[1], list):
            raise ParseError("(lambda (params...) body)")
        names = []
        for p in form[1]:
            if not isinstance(p, str) or _is_int(p):
                raise ParseError("lambda parameters must be symbols")
            names.append(p)
        if len(set(names)) != len(names):
            raise ParseError("duplicate lambda parameters")
        body = parse_expr(form[2], {**env, **dict.fromkeys(names, 0)})
        return Lam(tuple(Var(p, 0) for p in names), body)
    raise ParseError(f"not an array expression: {form!r}")


def parse_formula(form, env: dict[str, int]) -> Formula:
    if form == "true":
        return BoolConst(True)
    if form == "false":
        return BoolConst(False)
    if isinstance(form, (str, tuple)):
        raise ParseError(f"expected a formula, got atom {form!r}")
    if not form:
        raise ParseError("empty formula")
    head = form[0]
    if isinstance(head, list):  # SMT-LIB's ((_ divisible k) e)
        if len(head) != 3 or head[:2] != ["_", "divisible"] or not _is_int(head[2]) \
                or len(form) != 2:
            raise ParseError(f"unknown formula head {head!r}")
        return Rel("divides", Const(int(head[2])), parse_expr(form[1], env))
    if head in _REL or head == "distinct":
        if len(form) != 3:
            raise ParseError(f"({head} ...) takes two arguments")
        op = "!=" if head == "distinct" else head
        # array literal when both sides are array expressions of arity > 0
        def _side_arity(side):
            if isinstance(side, str) and not _is_int(side):
                a = env.get(side)
                return a if a is not None else 0
            if isinstance(side, list) and side and side[0] == "lambda":
                return len(side[1])
            return 0

        if op in ("=", "!=") and (_side_arity(form[1]) > 0 or _side_arity(form[2]) > 0):
            l = parse_array(form[1], env)
            r = parse_array(form[2], env)
            la = l.arity if isinstance(l, Var) else len(l.params)
            ra = r.arity if isinstance(r, Var) else len(r.params)
            if la != ra:
                raise ParseError(f"array literal with arities {la} and {ra}")
            return Rel(op, l, r)
        return Rel(op, parse_expr(form[1], env),
                   parse_expr(form[2], env))
    if head == "divides":
        if len(form) != 3:
            raise ParseError("(divides d e)")
        return Rel("divides", parse_expr(form[1], env),
                   parse_expr(form[2], env))
    if head == "and":
        return conj(parse_formula(a, env) for a in form[1:])
    if head == "or":
        return disj(parse_formula(a, env) for a in form[1:])
    if head == "not":
        if len(form) != 2:
            raise ParseError("(not f)")
        return Not(parse_formula(form[1], env))
    if head == "=>":
        if len(form) < 3:
            raise ParseError("(=> f g ...)")
        parts = [parse_formula(a, env) for a in form[1:]]
        out = parts[-1]
        for a in reversed(parts[:-1]):  # associates to the right
            out = Or((Not(a), out))
        return out
    if head == "<=>":
        if len(form) != 3:
            raise ParseError("(<=> f g)")
        a = parse_formula(form[1], env)
        b = parse_formula(form[2], env)
        return Or((And((a, b)), And((Not(a), Not(b)))))
    raise ParseError(f"unknown formula head '{head}'")
