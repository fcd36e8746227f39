"""Client side of the ground solver: one self-contained check at a time.
The Encoder puts each formula in the form every solver gets.  By default the
bundled solver answers in-process: each check is one ``solver.session.solve``
call with those formulas and the session's declarations, no text in between.
``--backend CMD`` / LOOPACC_BACKEND instead runs CMD as a subprocess
speaking SMT-LIB2 over stdin/stdout, each check in a push/pop scope, written
and read with the helpers of ``sexpr``, killed and answered ``unknown``
(reason ``timeout``) when it takes more than the timeout plus a one-second
grace.  The bundled solver out of process is
``--backend 'python -m loopacc.solver.server'`` (also ``loopacc-smt``).
SMT-LIB2 text is printed only where it is read: for such a command and for
the ``--smt-log`` dialogue, which is the same on both transports.

Every query is quantifier-free linear integer arithmetic plus arrays
(nested one-dimensional, full-index selects only) and divisibility, spelled
``(_ divisible k)``.  No lambda reaches here: lamsolve sends scalar literals.
``BackendSession.is_valid`` answers every validity question of the pipeline.
"""

from __future__ import annotations

import os
import queue
import shlex
import subprocess
import threading
import time
from dataclasses import dataclass, field

from .expr import (
    NEGATED, And, Bin, BoolConst, Const, FiniteFn, Formula, Ite, Lam, Not, Or, Rel,
    Sel, State, Var, arity_of, free_vars,
)
from .sexpr import ParseError, balanced, read_all, smt_symbol, smt_text, sort_arity, sort_text
from .simplify import as_int_const, simplify_formula
from .solver.session import model_text, reason_text, solve

ENV_BACKEND = "LOOPACC_BACKEND"
DEFAULT_TIMEOUT = 2.0
TIMEOUT_GRACE = 1.0  # seconds a --backend command may take beyond the timeout


class BackendError(Exception):
    pass


class EncodingUnsupported(BackendError):
    """Formula outside the backend fragment (e.g. non-constant divisor)."""


class BackendTimeout(BackendError):
    """A --backend command did not answer within the timeout and grace."""


def resolve_command(backend: str | None) -> list[str] | None:
    """The external solver command from ``backend`` or LOOPACC_BACKEND; None
    selects the bundled solver in-process."""
    if backend is None:
        backend = os.environ.get(ENV_BACKEND)
    return None if backend is None else shlex.split(backend)


# ---------------------------------------------------------------------------
# encoding


class Encoder:
    """The one place that decides the backend fragment.  Each formula comes
    back in the form every solver is given: negations pushed into the atoms
    (a negated divisibility keeps its not), floor division and divisibility
    by positive numerals, divisibility by 0 as an equation.  In-process the
    solver takes it as it is; ``smt_text`` spells it for a --backend command
    and the log.  Raises EncodingUnsupported outside the fragment."""

    def term(self, e):
        if isinstance(e, Const):
            return e
        if isinstance(e, Bin):
            if e.op == "div":
                d = as_int_const(e.right)
                if d is None or d == 0:
                    raise EncodingUnsupported("division by a non-constant")
                # floor(e/d) = floor(-e/-d): SMT-LIB's euclidean div agrees
                # with floor division on a positive divisor
                if d > 0:
                    return Bin("div", self.term(e.left), Const(d))
                return Bin("div", Bin("-", Const(0), self.term(e.left)), Const(-d))
            return Bin(e.op, self.term(e.left), self.term(e.right))
        if isinstance(e, Sel):
            if isinstance(e.arr, Lam):
                raise EncodingUnsupported("lambda in backend query")
            return Sel(e.arr, tuple(map(self.term, e.idx))) if e.idx else e
        if isinstance(e, Ite):
            return Ite(self.formula(e.cond), self.term(e.then), self.term(e.other))
        raise EncodingUnsupported(f"term {e!r}")

    def formula(self, f: Formula, negated: bool = False) -> Formula:
        if isinstance(f, BoolConst):
            return BoolConst(f.value != negated)
        if isinstance(f, Not):
            return self.formula(f.arg, not negated)
        if isinstance(f, (And, Or)):
            parts = tuple(self.formula(a, negated) for a in f.args)
            return Or(parts) if isinstance(f, And) == negated else And(parts)
        if isinstance(f, Rel):
            return self.atom(f, negated)
        raise EncodingUnsupported(f"formula {f!r}")

    def atom(self, f: Rel, negated: bool) -> Formula:
        if arity_of(f.left) > 0:  # lamsolve takes every one that is a conjunct
            raise EncodingUnsupported("unsupported: array equality under a connective")
        if f.op == "divides":
            d = as_int_const(f.left)
            if d is None:
                raise EncodingUnsupported("divisibility by a non-constant")
            t = self.term(f.right)
            body = Rel("=", t, Const(0)) if d == 0 else Rel("divides", Const(abs(d)), t)
            return Not(body) if negated else body
        return Rel(NEGATED[f.op] if negated else f.op, self.term(f.left), self.term(f.right))


# ---------------------------------------------------------------------------
# model values


@dataclass
class Model:
    """Scalars and arrays as the solver gave them (arrays as
    default-plus-overrides).  lamsolve adds the variables that equality
    propagation removed under ``derived``: evaluated integers or, for arrays,
    closed lambda expressions."""

    scalars: dict[str, int] = field(default_factory=dict)
    arrays: dict[str, FiniteFn] = field(default_factory=dict)
    derived: dict[str, object] = field(default_factory=dict)  # name -> int | ArrayExpr

    def value(self, x: Var):
        if x.arity == 0:
            return self.scalars.get(x.name, 0)
        return self.arrays.get(x.name, FiniteFn.const(x.arity, 0))

    def as_state(self, variables) -> State:
        return State({x: self.value(x) for x in variables})


@dataclass
class SatResult:
    status: str  # sat | unsat | unknown
    model: Model | None = None
    diagnostic: str = ""  # the solver's answer behind an unknown, or the error
    reason: str = ""  # the solver's :reason-unknown after an "unknown" answer


# ---------------------------------------------------------------------------
# session


class BackendSession:
    """Satisfiability checks.  Without ``backend`` or LOOPACC_BACKEND the
    bundled solver answers in-process: each check is one ``solve`` call with
    the Encoder's formulas, and ``timeout`` is its deadline.  Otherwise the
    command runs as one subprocess per session, restarted if it dies or
    overruns, and gets the same formulas as SMT-LIB2 text.  Both transports
    write the same ``smt_log`` dialogue, and a model values the names free
    in its check's formulas.  Not thread-safe -- use one session per
    thread."""

    def __init__(self, backend: str | None = None, timeout: float = DEFAULT_TIMEOUT,
                 smt_log: str | None = None):
        self.timeout = timeout
        self.command = resolve_command(backend)
        self.proc: subprocess.Popen | None = None
        self.declared: dict[str, int] | None = None  # None until the solver starts
        self._log = open(smt_log, "a") if smt_log else None
        self._lines: queue.Queue | None = None  # a child's output lines

    # -- transport --

    def _alive(self) -> bool:
        if self.command is None:
            return self.declared is not None
        return self.proc is not None and self.proc.poll() is None

    def _ensure(self):
        if self._alive():
            return
        self._stop()  # reap a child that died
        if self.command is not None:
            self.proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True,
            )
            self._lines = queue.Queue()
            t = threading.Thread(target=_pump, args=(self.proc.stdout, self._lines), daemon=True)
            t.start()
        self._clear()

    def _clear(self):
        """The solver's options, and no declarations."""
        self.declared = {}
        self._send("(set-option :produce-models true)")
        self._send("(set-logic ALL)")

    def _send(self, line: str):
        """One command as text, to the log and to a child."""
        if self._log:
            self._log.write(line + "\n")
            self._log.flush()
        if self.proc is not None:
            try:
                self.proc.stdin.write(line + "\n")
                self.proc.stdin.flush()
            except BrokenPipeError as exc:
                raise BackendError(f"backend died: {exc}") from exc

    def _logged(self, answer: str) -> str:
        """An answer, written to the log as a '; <- ' line."""
        if self._log:
            self._log.write("; <- " + answer.replace("\n", " ") + "\n")
            self._log.flush()
        return answer

    def _read_line(self) -> str:
        """A child's next answer; a child that overruns the timeout and its
        grace is killed (the next check restarts it)."""
        deadline = time.monotonic() + self.timeout + TIMEOUT_GRACE
        out = ""
        while True:
            remain = deadline - time.monotonic()
            if remain <= 0:
                self._stop()
                raise BackendTimeout("timeout")
            try:
                ch = self._lines.get(timeout=min(remain, 0.2))
            except queue.Empty:
                continue
            if ch is None:
                raise BackendError("backend closed its output")
            out += ch
            if out.strip() and balanced(out):
                return self._logged(out.strip())

    def _stop(self):
        """Kill and reap the solver child; no solver is left either way."""
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            try:
                self.proc.stdin.close()
            except OSError:  # unflushed input to a dead child
                pass
            self.proc = None
        self.declared = None

    def close(self):
        self._stop()
        if self._log:
            self._log.close()
            self._log = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- queries --

    def check(self, formulas, want_model: bool = True) -> SatResult:
        """Satisfiability of the conjunction, asked within a push/pop scope.
        The names are declared in the outer scope, so they survive the pop; a
        name declared there at another arity clears it with (reset) first.
        The model values the names free in the formulas."""
        formulas = list(formulas)
        try:
            self._ensure()
            enc = Encoder()
            encoded = [enc.formula(f) for f in formulas]
            names = [free_vars(f) for f in formulas]
            if any(self.declared.get(x.name, x.arity) != x.arity for vs in names for x in vs):
                self._send("(reset)")
                self._clear()
            for vs in names:
                for x in sorted(vs, key=lambda v: v.name):
                    if x.name not in self.declared:
                        self.declared[x.name] = x.arity
                        self._send(f"(declare-const {smt_symbol(x.name)} {sort_text(x.arity)})")
                    elif self.declared[x.name] != x.arity:
                        raise BackendError(f"{x.name} redeclared with different arity")
            self._send("(push 1)")
            try:
                for g in encoded:
                    if self._log or self.proc is not None:  # someone reads the text
                        self._send(f"(assert {smt_text(g)})")
                self._send("(check-sat)")
                if self.proc is None:
                    status, state, reason = solve(encoded, self.declared, self.timeout)
                    self._logged(status)
                else:
                    status, state, reason = self._read_line(), None, ""
                if status == "sat" and want_model:
                    self._send("(get-model)")
                    return SatResult("sat", self._model(set().union(*names), state))
                if status in ("sat", "unsat"):
                    return SatResult(status)
                if status == "unknown":
                    self._send("(get-info :reason-unknown)")
                    if self.proc is not None:
                        reason = _parse_reason(self._read_line())
                    elif self._log:
                        self._logged(reason_text(reason))
                return SatResult("unknown", diagnostic=status, reason=reason)
            finally:
                if self._alive():
                    self._send("(pop 1)")
        except BackendTimeout:
            return SatResult("unknown", diagnostic="unknown", reason="timeout")
        except (BackendError, ParseError) as exc:
            return SatResult("unknown", diagnostic=str(exc))

    def _model(self, names, state: State | None) -> Model:
        """The answer to (get-model), over names only: a child's, read from
        its text, or the in-process solver's model, keyed in name order."""
        names = sorted(names, key=lambda v: v.name)
        if state is None:
            values = self._parse_model(self._read_line())
        else:
            if self._log:
                self._logged(model_text(self.declared, state))
            values = {x.name: state[x] for x in names}
        model = Model()
        for x in names:
            if x.name in values:
                (model.arrays if x.arity else model.scalars)[x.name] = values[x.name]
        return model

    def is_valid(self, f: Formula) -> bool | None:
        """Validity via unsatisfiability of the negation; None when unknown.
        Simplification discharges most queries without a round trip."""
        g = simplify_formula(f)
        if isinstance(g, BoolConst):
            return g.value
        res = self.check([Not(g)], want_model=False)
        return {"unsat": True, "sat": False}.get(res.status)

    # -- model parsing --

    def _parse_model(self, text: str) -> dict:
        """A child's (get-model) answer: each name's integer or FiniteFn."""
        forms = read_all(text)
        if len(forms) == 1 and isinstance(forms[0], list):
            forms = forms[0]
        if forms and forms[0] == "model":  # older printers prefix with 'model'
            forms = forms[1:]
        values = {}
        for form in forms:
            if not (isinstance(form, list) and len(form) >= 5 and form[0] == "define-fun"):
                continue
            name, args, sort, body = form[1], form[2], form[3], form[4]
            if args:
                continue  # not one of ours
            if sort == "Int":
                values[name] = _int_value(body)
            else:
                arity = sort_arity(sort)
                values[name] = FiniteFn.const(arity, *_array_parts(body, arity))
        return values


def _pump(stream, out: queue.Queue):
    with stream:  # closed here, after the child's last line
        for line in iter(stream.readline, ""):
            out.put(line)
    out.put(None)


def _parse_reason(answer: str) -> str:
    """The value of a (:reason-unknown ...) answer; any other answer (an error
    or ``unsupported`` from an external solver) as it is."""
    try:
        forms = read_all(answer)
    except ParseError:
        return answer
    if (len(forms) == 1 and isinstance(forms[0], list) and len(forms[0]) == 2
            and forms[0][0] == ":reason-unknown"):
        value = forms[0][1]
        if isinstance(value, tuple):  # a string literal
            return value[1]
        if isinstance(value, str):
            return value
    return answer


def _int_value(body) -> int:
    if isinstance(body, str):
        return int(body)
    if isinstance(body, list) and len(body) == 2 and body[0] == "-":
        return -_int_value(body[1])
    raise BackendError(f"unsupported integer value: {body!r}")


def _array_parts(body, arity: int):
    if arity == 0:
        return _int_value(body), {}
    if isinstance(body, list) and body and body[0] == "store":
        default, overrides = _array_parts(body[1], arity)
        idx = _int_value(body[2])
        subdefault, sub = _array_parts(body[3], arity - 1)
        overrides = dict(overrides)
        if arity == 1:
            overrides[(idx,)] = subdefault
        else:
            if subdefault != default:
                raise BackendError("nested array with non-uniform default")
            for k, v in sub.items():
                overrides[(idx,) + k] = v
        return default, overrides
    if (isinstance(body, list) and len(body) == 2 and isinstance(body[0], list)
            and body[0][:2] == ["as", "const"]):
        default, _ = _array_parts(body[1], arity - 1)
        return default, {}
    raise BackendError(f"unsupported array value: {body!r}")
