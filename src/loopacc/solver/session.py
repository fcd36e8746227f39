"""The bundled ground solver behind one call, and the SMT-LIB2 session that
reaches it from text.

``solve`` answers one satisfiability question over ``expr`` values: the
formulas, the declarations they use and a timeout in; the status, the model
as a ``State`` and the reason behind an unknown out.  ``BackendSession``
calls it directly in-process.  ``Session`` interprets SMT-LIB2 commands one
form at a time, keeping the declarations, the assertion stack and the last
answer; its check-sat calls the same ``solve``.  ``server`` runs it over
stdin/stdout, and an ``--smt-log`` replays through it.  ``model_text`` and
``reason_text`` print the get-model and :reason-unknown answers for both, so
a logged dialogue reads the same whichever side wrote it.

Supports quantifier-free linear integer arithmetic with ite, euclidean div by
constants, ((_ divisible k) t), and (possibly nested) integer arrays with
full-index selects.  An equality between arrays is outside the fragment:
check-sat answers unknown, with reason "unsupported: array equality" (the
acceleration pipeline sends none).  ``command`` reads asserted formulas and
get-value terms with the expression parser of sexpr.py against the
declarations; floor_div first spells SMT-LIB's euclidean div as that
parser's floor div.
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


def solve(formulas, env: dict[str, int], timeout: float | None):
    """The conjunction of formulas over the names env declares (name ->
    arity), decided within timeout seconds (None: no limit).  Returns
    (status, model, reason): the model as a ``State`` on sat, and on unknown
    the reason -- "timeout", "branch budget exhausted" or "unsupported: ..."."""
    deadline = time.monotonic() + timeout if timeout else None
    try:
        status, model = check(list(formulas), {Var(n, a): a for n, a in env.items()},
                              deadline=deadline)
    except SolverTimeout as exc:
        return "unknown", None, str(exc)
    except Unsupported as exc:
        return "unknown", None, f"unsupported: {exc}"
    return status, model, ""


def model_text(env: dict[str, int], model: State) -> str:
    """The (get-model) answer: each declared name's value in model."""
    lines = ["("]
    for name in sorted(env):
        ar = env[name]
        val = model[Var(name, ar)]
        text = array_text(val) if ar else smt_int(val)
        lines.append(f"  (define-fun {smt_symbol(name)} () {sort_text(ar)} {text})")
    lines.append(")")
    return "\n".join(lines)


def reason_text(reason: str) -> str:
    """The (get-info :reason-unknown) answer."""
    return f"(:reason-unknown {smt_string(reason)})"


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
            self.env[form[1]] = sort_arity(form[2])
            return self._ok()
        if head == "declare-fun":
            if form[2]:
                raise SmtError("only 0-ary declare-fun is supported")
            self.env[form[1]] = sort_arity(form[3])
            return self._ok()
        if head == "assert":
            self.stack[-1].append(parse_formula(floor_div(form[1]), self.env))
            return self._ok()
        if head in ("push", "pop"):
            k = int(args[0]) if args else 1
            if head == "push":
                self.stack += [[] for _ in range(k)]
            elif k >= len(self.stack):  # a failed pop leaves the stack as it was
                raise SmtError(f"pop: {k} exceeds the stack depth {len(self.stack) - 1}")
            else:
                del self.stack[len(self.stack) - k:]
            return self._ok()
        if head == "reset":
            self.__init__(self.timeout)
            return self._ok()
        if head == "check-sat":
            self.model, self.reason = None, ""  # none left if the solver raises
            status, self.model, self.reason = solve(
                [f for frame in self.stack for f in frame], self.env, self.timeout)
            return status
        if head == "get-model":
            return model_text(self.env, self.last_model())
        if head == "get-value":
            return self.get_value(form[1])
        if head == "get-info":
            # the reason is empty unless the last check-sat answered unknown
            return reason_text(self.reason) if form[1] == ":reason-unknown" else "unsupported"
        if head == "echo":
            return form[1][1] if isinstance(form[1], tuple) else str(form[1])
        if head == "exit":
            return None
        raise SmtError(f"unsupported command {head!r}")

    def _ok(self):
        return "success" if self.print_success else ""

    def last_model(self) -> State:
        """The last model with every declared name it leaves open fixed:
        scalars to 0, arrays to the constant 0."""
        if self.model is None:
            raise SmtError("no model available")
        fixed = {}
        for name, ar in self.env.items():
            v = Var(name, ar)
            if ar == 0 and v not in self.model:
                fixed[v] = 0
            elif ar and not isinstance(self.model.get(v), FiniteFn):
                fixed[v] = FiniteFn.const(ar, 0)
        return self.model.bind(fixed)

    def get_value(self, forms) -> str:
        if not isinstance(forms, list):
            raise SmtError(f"get-value: expected a list of terms, got {forms!r}")
        model = self.last_model()
        parts = []
        for f in forms:
            term = parse_expr(floor_div(f), self.env)
            parts.append(f"({term_text(f)} {smt_int(eval_expr(term, model))})")
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
    """A read term printed back, each symbol as SMT-LIB spells it."""
    if isinstance(form, list):
        return "(" + " ".join(term_text(f) for f in form) + ")"
    return smt_symbol(form)


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
