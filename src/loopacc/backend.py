"""Client side of the ground-solver protocol: SMT-LIB2 text, one command at a
time, written and read with the helpers of ``sexpr``.  By default the bundled
solver answers in-process (a ``solver.session.Session`` fed the same text);
``--backend CMD`` / LOOPACC_BACKEND instead runs CMD as a subprocess speaking
SMT-LIB2 over stdin/stdout, killed and answered ``unknown`` (reason
``timeout``) when it takes more than the timeout plus a one-second grace.  The
bundled solver out of process is ``--backend 'python -m loopacc.solver.server'``
(also ``loopacc-smt``).

Every emitted query is quantifier-free linear integer arithmetic plus arrays
(nested one-dimensional, full-index selects only) and divisibility, encoded as
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
from .sexpr import ParseError, balanced, read_all, smt_int, smt_symbol, sort_arity, sort_text
from .simplify import as_int_const, simplify_formula
from .solver.session import Session, error_text

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
    def term(self, e) -> str:
        if isinstance(e, Const):
            return smt_int(e.value)
        if isinstance(e, Bin):
            if e.op == "div":
                d = as_int_const(e.right)
                if d is None or d == 0:
                    raise EncodingUnsupported("division by a non-constant")
                # floor(e/d): euclidean div with positive divisor
                if d > 0:
                    return f"(div {self.term(e.left)} {d})"
                return f"(div (- {self.term(e.left)}) {-d})"
            return f"({e.op} {self.term(e.left)} {self.term(e.right)})"
        if isinstance(e, Sel):
            if isinstance(e.arr, Lam):
                raise EncodingUnsupported("lambda in backend query")
            out = smt_symbol(e.arr.name)
            for i in e.idx:
                out = f"(select {out} {self.term(i)})"
            return out
        if isinstance(e, Ite):
            return f"(ite {self.formula(e.cond)} {self.term(e.then)} {self.term(e.other)})"
        raise EncodingUnsupported(f"term {e!r}")

    def formula(self, f: Formula, negated: bool = False) -> str:
        if isinstance(f, BoolConst):
            return "false" if f.value == negated else "true"
        if isinstance(f, Not):
            return self.formula(f.arg, not negated)
        if isinstance(f, And):
            parts = " ".join(self.formula(a, negated) for a in f.args)
            return f"({'or' if negated else 'and'} {parts})"
        if isinstance(f, Or):
            parts = " ".join(self.formula(a, negated) for a in f.args)
            return f"({'and' if negated else 'or'} {parts})"
        if isinstance(f, Rel):
            return self.atom(f, negated)
        raise EncodingUnsupported(f"formula {f!r}")

    def atom(self, f: Rel, negated: bool) -> str:
        if arity_of(f.left) > 0:  # lamsolve takes every one that is a conjunct
            raise EncodingUnsupported("unsupported: array equality under a connective")
        if f.op == "divides":
            d = as_int_const(f.left)
            if d is None:
                raise EncodingUnsupported("divisibility by a non-constant")
            if d == 0:
                body = f"(= {self.term(f.right)} 0)"
            else:
                body = f"((_ divisible {abs(d)}) {self.term(f.right)})"
            return f"(not {body})" if negated else body
        ops = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "=": "=", "!=": "distinct"}
        op = ops[NEGATED[f.op] if negated else f.op]
        return f"({op} {self.term(f.left)} {self.term(f.right)})"


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
    """Push/pop-scoped queries as SMT-LIB2 text.  Without ``backend`` or
    LOOPACC_BACKEND the bundled solver's ``Session`` answers in-process, with
    ``timeout`` as its deadline per check-sat; otherwise the command runs as
    one subprocess per session, restarted if it dies or overruns.  Both
    transports share the encoding, the ``smt_log`` dialogue and the answer
    parsing.  Not thread-safe -- use one session per thread."""

    def __init__(self, backend: str | None = None, timeout: float = DEFAULT_TIMEOUT,
                 smt_log: str | None = None):
        self.timeout = timeout
        self.command = resolve_command(backend)
        self.proc: subprocess.Popen | None = None
        self.server: Session | None = None
        self.declared: dict[str, int] = {}
        self._log = open(smt_log, "a") if smt_log else None
        self._lines: queue.Queue = queue.Queue()

    # -- low-level protocol --

    def _alive(self) -> bool:
        return self.server is not None or (self.proc is not None and self.proc.poll() is None)

    def _ensure(self):
        if self._alive():
            return
        self._stop()  # reap a child that died
        self._lines = queue.Queue()
        if self.command is None:
            self.server = Session(timeout=self.timeout)
        else:
            self.proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True,
            )
            t = threading.Thread(target=_pump, args=(self.proc.stdout, self._lines), daemon=True)
            t.start()
        self._clear()

    def _clear(self):
        """The solver's options, and no declarations."""
        self.declared = {}
        self._send("(set-option :produce-models true)")
        self._send("(set-logic ALL)")

    def _send(self, line: str):
        """One command; its answer, if any, is queued for _read_line."""
        self._ensure()
        if self._log:
            self._log.write(line + "\n")
            self._log.flush()
        if self.server is not None:
            try:
                (form,) = read_all(line)
                answer = self.server.command(form)
            except ParseError as exc:
                answer = error_text(str(exc))
            if answer:
                self._lines.put(answer)
            return
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise BackendError(f"backend died: {exc}") from exc

    def _read_line(self) -> str:
        """The next answer; a child that overruns the timeout and its grace
        is killed (the next command restarts it)."""
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
                if self._log:
                    self._log.write("; <- " + out.strip().replace("\n", " ") + "\n")
                    self._log.flush()
                return out.strip()

    def _stop(self):
        """Kill and reap the solver child, or drop the in-process solver."""
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            try:
                self.proc.stdin.close()
            except OSError:  # unflushed input to a dead child
                pass
            self.proc = None
        self.server = None

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

    def declare(self, variables):
        self._ensure()
        for x in sorted(set(variables), key=lambda v: v.name):
            if x.name in self.declared:
                if self.declared[x.name] != x.arity:
                    raise BackendError(f"{x.name} redeclared with different arity")
                continue
            self.declared[x.name] = x.arity
            self._send(f"(declare-const {smt_symbol(x.name)} {sort_text(x.arity)})")

    def check(self, formulas, want_model: bool = True) -> SatResult:
        """Satisfiability of the conjunction within a fresh push/pop scope.
        Declarations stay in the outer scope so they survive the pop; a name
        declared there at another arity clears it with (reset) first."""
        formulas = list(formulas)
        try:
            self._ensure()
            enc = Encoder()
            texts = [enc.formula(f) for f in formulas]
            names = [free_vars(f) for f in formulas]
            if any(self.declared.get(x.name, x.arity) != x.arity for vs in names for x in vs):
                self._send("(reset)")
                self._clear()
            for vs in names:
                self.declare(vs)
            self._send("(push 1)")
            try:
                for t in texts:
                    self._send(f"(assert {t})")
                self._send("(check-sat)")
                status = self._read_line()
                if status == "sat" and want_model:
                    self._send("(get-model)")
                    model = self._parse_model(self._read_line())
                    return SatResult("sat", model)
                if status in ("sat", "unsat"):
                    return SatResult(status)
                reason = ""
                if status == "unknown":
                    self._send("(get-info :reason-unknown)")
                    reason = _reason_text(self._read_line())
                return SatResult("unknown", diagnostic=status, reason=reason)
            finally:
                if self._alive():
                    self._send("(pop 1)")
        except BackendTimeout:
            return SatResult("unknown", diagnostic="unknown", reason="timeout")
        except (BackendError, ParseError) as exc:
            return SatResult("unknown", diagnostic=str(exc))

    def is_valid(self, f: Formula) -> bool | None:
        """Validity via unsatisfiability of the negation; None when unknown.
        Simplification discharges most queries without a round trip."""
        g = simplify_formula(f)
        if isinstance(g, BoolConst):
            return g.value
        res = self.check([Not(g)], want_model=False)
        return {"unsat": True, "sat": False}.get(res.status)

    # -- model parsing --

    def _parse_model(self, text: str) -> Model:
        forms = read_all(text)
        if len(forms) == 1 and isinstance(forms[0], list):
            forms = forms[0]
        if forms and forms[0] == "model":  # older printers prefix with 'model'
            forms = forms[1:]
        model = Model()
        for form in forms:
            if not (isinstance(form, list) and len(form) >= 5 and form[0] == "define-fun"):
                continue
            name, args, sort, body = form[1], form[2], form[3], form[4]
            if args:
                continue  # not one of ours
            if sort == "Int":
                model.scalars[name] = _int_value(body)
            else:
                arity = sort_arity(sort)
                model.arrays[name] = FiniteFn.const(arity, *_array_parts(body, arity))
        return model


def _pump(stream, out: queue.Queue):
    with stream:  # closed here, after the child's last line
        for line in iter(stream.readline, ""):
            out.put(line)
    out.put(None)


def _reason_text(answer: str) -> str:
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
