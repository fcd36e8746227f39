"""One SMT-LIB2 session of the bundled ground solver: the declarations, the
assertion stack and the last model, answering one command form at a time.

Supports quantifier-free linear integer arithmetic with ite, euclidean div by
constants, ((_ divisible k) t), and (possibly nested) integer arrays with
full-index selects.  An equality between arrays is outside the fragment:
check-sat answers unknown, with reason "unsupported: array equality" (the
acceleration pipeline sends none).  Asserted formulas and get-value terms
are read by the problem-file parser of sexpr.py against the declarations;
floor_div first spells SMT-LIB's euclidean div as that parser's floor div.
``BackendSession`` feeds it in-process; ``server`` runs it over stdin/stdout.
"""

from __future__ import annotations

import time

from ..expr import FiniteFn, State, Var, eval_expr
from ..sexpr import (
    ParseError, parse_expr, parse_formula, smt_int, smt_symbol, sort_arity, sort_text,
)
from .ground import check
from .presburger import SolverTimeout, Unsupported


class SmtError(ParseError):
    """A command the session cannot carry out."""


def smt_string(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def error_text(message: str) -> str:
    """The (error "...") answer to a command the session rejected."""
    return f"(error {smt_string(message)})"


# the argument counts of the commands that read their arguments
_ARGUMENTS = {"declare-const": (2,), "declare-fun": (3,), "assert": (1,), "push": (0, 1),
              "pop": (0, 1), "get-value": (1,), "get-info": (1,), "echo": (1,)}


class Session:
    def __init__(self, timeout: float | None = None):
        self.env: dict[str, int] = {}  # the declarations: name -> arity
        self.stack: list[list] = [[]]
        self.model: State | None = None
        self.timeout = timeout
        self.print_success = False
        self.reason = ""  # why the last check-sat answered unknown

    def command(self, form) -> str | None:
        head, args = (form[0], form[1:]) if isinstance(form, list) and form else (form, [])
        if isinstance(head, str) and len(args) not in _ARGUMENTS.get(head, (len(args),)):
            raise SmtError(f"{head}: wrong number of arguments ({len(args)})")
        if head in ("push", "pop") and not all(isinstance(a, str) and a.isdecimal() for a in args):
            raise SmtError(f"{head}: expected a numeral, got {args[0]!r}")
        if head in ("set-logic", "set-info"):
            return self._ok()
        if head == "set-option":
            if len(form) >= 3 and form[1] == ":print-success":
                self.print_success = form[2] == "true"
            return self._ok()
        if head == "declare-const":
            name, sort = form[1], form[2]
            self.env[name] = sort_arity(sort)
            return self._ok()
        if head == "declare-fun":
            name, args, sort = form[1], form[2], form[3]
            if args:
                raise SmtError("only 0-ary declare-fun is supported")
            self.env[name] = sort_arity(sort)
            return self._ok()
        if head == "assert":
            self.stack[-1].append(parse_formula(floor_div(form[1]), self.env))
            return self._ok()
        if head == "push":
            for _ in range(int(args[0]) if args else 1):
                self.stack.append([])
            return self._ok()
        if head == "pop":  # a failed pop leaves the stack as it was
            k = int(args[0]) if args else 1
            if k >= len(self.stack):
                raise SmtError(f"pop: {k} exceeds the stack depth {len(self.stack) - 1}")
            del self.stack[len(self.stack) - k:]
            return self._ok()
        if head == "reset":
            self.__init__(self.timeout)
            return self._ok()
        if head == "check-sat":
            return self.check_sat()
        if head == "get-model":
            return self.format_model()
        if head == "get-value":
            return self.get_value(form[1])
        if head == "get-info":
            return self.get_info(form[1])
        if head == "echo":
            return form[1][1] if isinstance(form[1], tuple) else str(form[1])
        if head == "exit":
            return None
        raise SmtError(f"unsupported command {head!r}")

    def _ok(self):
        return "success" if self.print_success else ""

    def check_sat(self) -> str:
        self.model = None
        self.reason = ""
        asserts = [f for frame in self.stack for f in frame]
        declared = {Var(n, a): a for n, a in self.env.items()}
        deadline = time.monotonic() + self.timeout if self.timeout else None
        try:
            status, model = check(asserts, declared, deadline=deadline)
        except SolverTimeout as exc:  # "timeout" or "branch budget exhausted"
            self.reason = str(exc)
            return "unknown"
        except Unsupported as exc:
            self.reason = f"unsupported: {exc}"
            return "unknown"
        if status == "sat":
            self.model = model
            return "sat"
        return "unsat"

    def get_info(self, key) -> str:
        """Answers :reason-unknown (an empty reason unless the last check-sat
        answered unknown); other keywords are unsupported."""
        if key == ":reason-unknown":
            return f"(:reason-unknown {smt_string(self.reason)})"
        return "unsupported"

    def format_model(self) -> str:
        if self.model is None:
            raise SmtError("no model available")
        lines = ["("]
        for name in sorted(self.env):
            ar = self.env[name]
            v = Var(name, ar)
            val = self.model.get(v)
            if ar == 0:
                val = 0 if val is None else val
                lines.append(f"  (define-fun {smt_symbol(name)} () Int {smt_int(val)})")
            else:
                fn = val if isinstance(val, FiniteFn) else FiniteFn.const(ar, 0)
                lines.append(
                    f"  (define-fun {smt_symbol(name)} () {sort_text(ar)} {array_text(fn)})"
                )
        lines.append(")")
        return "\n".join(lines)

    def get_value(self, forms) -> str:
        if not isinstance(forms, list):
            raise SmtError(f"get-value: expected a list of terms, got {forms!r}")
        if self.model is None:
            raise SmtError("no model available")
        parts = []
        for f in forms:
            term = parse_expr(floor_div(f), self.env)
            parts.append(f"({term_text(f)} {smt_int(eval_expr(term, self.model))})")
        return "(" + " ".join(parts) + ")"


def floor_div(form):
    """form with SMT-LIB's euclidean div spelled in the floor div of the
    expression syntax: (div t d) is floor(t/d) for d > 0 and -floor(t/-d)
    for d < 0, so a divisor other than a numeral becomes an ite on its sign."""
    if not isinstance(form, list):
        return form
    form = [floor_div(f) for f in form]
    if len(form) == 3 and form[0] == "div" and not str(form[2]).isdigit():
        t, d = form[1:]
        return ["ite", ["<", d, "0"], ["-", ["div", t, ["-", d]]], form]
    return form


def term_text(form) -> str:
    if isinstance(form, list):
        return "(" + " ".join(term_text(f) for f in form) + ")"
    return str(form)


def array_text(fn: FiniteFn) -> str:
    """Nested (store ... ((as const sort) default) ...) text for a
    constant-background finite function."""
    if any(fn.coeffs):
        raise SmtError("cannot print non-constant array background")
    return _array_text(fn.arity, fn.base, fn.override_map())


def _array_text(arity: int, default: int, overrides: dict) -> str:
    if arity == 0:
        return smt_int(overrides.get((), default))
    base = f"((as const {sort_text(arity)}) {_array_text(arity - 1, default, {})})"
    groups: dict[int, dict] = {}
    for point, v in sorted(overrides.items()):
        groups.setdefault(point[0], {})[point[1:]] = v
    out = base
    for first, rest in sorted(groups.items()):
        out = f"(store {out} {smt_int(first)} {_array_text(arity - 1, default, rest)})"
    return out
