"""Problem files: declarations, an optional init block, one loop, an optional
post block, in s-expression syntax.

    (declare (i 0) (k 0) (a 1))
    (init (= i 0) (= k 10000))
    (loop
      (guard (< i k))
      (update ((lhs (select a (+ i 1))) (rhs (select a i)))
              ((lhs i) (rhs (+ i 1)))))
    (post (>= i k) (= (select a j) (select a 0)))

The guard is a conjunction of (in)equations over rvalues; updates are
simultaneous; `n` is reserved for the iteration counter.  (nondet lo hi) in
init/post becomes a fresh declared scalar with range conjuncts.  Variables
used only in init/post (like j above) must be declared too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .expr import (
    And, BoolConst, Formula, Rel, Var, is_lvalue, is_rvalue, sv,
)
from .loop import Loop, LoopError
from .sexpr import ParseError, parse_expr, parse_formula, read_all

RESERVED = {"n", "true", "false", "select", "lambda", "ite", "and", "or", "not",
            "div", "divides", "distinct", "nondet", "declare", "init", "loop",
            "update", "guard", "post", "lhs", "rhs"}

GUARD_OPS = {"<", "<=", ">", ">=", "=", "!="}


@dataclass
class ProblemFile:
    declarations: dict[str, int]
    init: list[Formula]
    loop: Loop
    post: list[Formula] | None  # None: no (post ...) block in the file
    nondets: list[Var] = field(default_factory=list)

    def env(self) -> dict[str, int]:
        return dict(self.declarations)


def parse_problem(source: str | Path, *, is_path: bool = True) -> ProblemFile:
    text = Path(source).read_text() if is_path else str(source)
    forms = read_all(text)
    decls: dict[str, int] = {}
    init: list[Formula] = []
    post: list[Formula] | None = None
    loop = None
    nondets: list[Var] = []
    counter = [0]

    def nondet_sink_factory(sink_list):
        def sink(lo, hi):
            name = f"nd{counter[0]}"
            counter[0] += 1
            decls[name] = 0
            v = Var(name, 0)
            nondets.append(v)
            sink_list.append(Rel("<=", lo, sv(v)))
            sink_list.append(Rel("<=", sv(v), hi))
            return sv(v)

        return sink

    for form in forms:
        if not isinstance(form, list) or not form:
            raise ParseError(f"expected a block, got {form!r}")
        head = form[0]
        if head == "declare":
            for entry in form[1:]:
                if not (isinstance(entry, list) and len(entry) == 2):
                    raise ParseError("declare entries are (name arity)")
                name, arity = entry
                if not isinstance(name, str) or name in RESERVED:
                    raise ParseError(f"reserved or invalid variable name '{name}'")
                if name.lstrip("-").isdigit():
                    raise ParseError(f"numeric variable name '{name}'")
                if not str(arity).isdigit():
                    raise ParseError(f"arity of {name} must be a natural number")
                if name in decls and decls[name] != int(arity):
                    raise ParseError(f"{name} redeclared with a different arity")
                decls[name] = int(arity)
        elif head == "init":
            env = dict(decls)
            for g in form[1:]:
                init.append(parse_formula(g, env, nondet_sink_factory(init)))
        elif head == "loop":
            loop = _parse_loop(form, decls)
        elif head == "post":
            if post is None:
                post = []
            env = dict(decls)
            for g in form[1:]:
                post.append(parse_formula(g, env, nondet_sink_factory(post)))
        else:
            raise ParseError(f"unknown block '{head}'")
    if loop is None:
        raise ParseError("no (loop ...) block")
    return ProblemFile(decls, init, loop, post, nondets)


def _parse_loop(form, env: dict[str, int]) -> Loop:
    guard: Formula = BoolConst(True)
    updates = []
    for part in form[1:]:
        if not isinstance(part, list) or not part:
            raise ParseError(f"bad loop part {part!r}")
        if part[0] == "guard":
            if len(part) != 2:
                raise ParseError("(guard f)")
            guard = parse_formula(part[1], env)
            _check_guard(guard)
        elif part[0] == "update":
            for upd in part[1:]:
                updates.append(_parse_update(upd, env))
        else:
            raise ParseError(f"unknown loop part '{part[0]}'")
    if not updates:
        raise ParseError("loop without updates")
    lvalues = tuple(lv for lv, _ in updates)
    rhs = tuple(r for _, r in updates)
    try:
        return Loop(guard, lvalues, rhs)
    except LoopError as exc:
        raise ParseError(str(exc)) from exc


def _parse_update(form, env: dict[str, int]):
    if not (isinstance(form, list) and len(form) == 2
            and isinstance(form[0], list) and form[0] and form[0][0] == "lhs"
            and isinstance(form[1], list) and form[1] and form[1][0] == "rhs"):
        raise ParseError("updates are ((lhs l) (rhs r))")
    lv = parse_expr(form[0][1], env)
    r = parse_expr(form[1][1], env)
    if not is_lvalue(lv):
        raise ParseError(f"lhs is not an lvalue: {form[0][1]!r}")
    if not is_rvalue(r):
        raise ParseError(f"rhs is not an rvalue: {form[1][1]!r}")
    return lv, r


def _check_guard(guard: Formula):
    """Conjunction of (in)equations over rvalues; disjunctions, negations and
    divisibility atoms are rejected."""
    if isinstance(guard, BoolConst):
        return
    if isinstance(guard, And):
        for a in guard.args:
            _check_guard(a)
        return
    if isinstance(guard, Rel) and guard.op in GUARD_OPS:
        if not (is_rvalue(guard.left) and is_rvalue(guard.right)):
            raise ParseError("guard atoms must relate rvalues")
        return
    raise ParseError("guard must be a conjunction of (in)equations over rvalues")
