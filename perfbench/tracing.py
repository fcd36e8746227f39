"""The traced run's instruments, all from outside the program.

Spans come from wrappers around loopacc's public functions and methods.
Many modules import functions by name (``server`` imports ``check``,
``accel`` and ``oracle`` import ``closed_forms_all``, ``oracle`` imports
``run_n``), so a wrapper is bound wherever callers look the function up:
into every loopacc module whose globals hold the original.  Two wrappers
are bound into ``oracle`` alone, because their functions run everywhere and
the metric is about the oracle's calls.

The bundled solver runs in a child process.  The traced run records each
session's dialogue through ``BackendSession(smt_log=...)`` and replays it
in-process through ``solver.server.Session.command``, where the solver
wrappers see it.

A span has a name, start, end, parent and problem id.  Spans are kept in
memory and written out at the end.  The hottest wrappers (closure and
finite-function calls, the oracle's evaluation and substitution) only add to
their totals, because a span per call would not fit in memory.  A wrapper
called while its own span is innermost runs the function untimed, so a
recursive function counts once.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from loopacc import backend
from loopacc.solver import presburger, server
from loopacc.solver.presburger import SolverTimeout, Unsupported
from workloads import new_session


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, time in children, span id]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.problem = ""
        self._ids = itertools.count()
        self._undo: list[tuple] = []
        self._checked = weakref.WeakSet()  # sessions that made a check already

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str, record: bool = True) -> list:
        frame = [name, perf_counter(), 0.0, next(self._ids) if record else None]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = perf_counter()
        self.stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += dur
        if span_id is not None:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            self.spans.append((span_id, name, start, end, parent, self.problem))
        return dur

    def innermost(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def wrap(self, name, fn, *, record=True, before=None, after=None, on_error=None):
        """fn with a span; before(args) -> token, after(result, args, token),
        on_error(exc, args, token).  name may be a function of args."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            if tracer.stack and tracer.stack[-1][0] == span:
                return fn(*args, **kwargs)
            token = before(args) if before else None
            frame = tracer.enter(span, record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(frame)
                if on_error:
                    on_error(exc, args, token)
                raise
            tracer.exit(frame)
            if after:
                after(result, args, token)
            return result

        return wrapper

    # -- binding ---------------------------------------------------------------

    def bind_function(self, module: str, attr: str, wrapper_of, only_in=None):
        """Replace module.attr in every loopacc module that holds it (or in
        the modules only_in names)."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = wrapper_of(original)
        names = only_in or [m for m in sys.modules if m == "loopacc" or m.startswith("loopacc.")]
        for m in names:
            mod = sys.modules[m]
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, original))

    def bind_method(self, cls, attr: str, wrapper_of):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper_of(original))
        self._undo.append((cls, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self):
        """Bind every wrapper the per-layer metrics read."""
        from loopacc import expr
        from loopacc.solver import ground

        def fn(module, attr, span, record=True, only_in=None, **hooks):
            self.bind_function(module, attr,
                               lambda f: self.wrap(span, f, record=record, **hooks), only_in)

        def method(cls, attr, span, record=True, **hooks):
            self.bind_method(cls, attr, lambda f: self.wrap(span, f, record=record, **hooks))

        count = self.counts

        fn("loopacc.problem", "parse_problem", "problem.parse")
        fn("loopacc.loop", "validate_loop", "loop.validate")
        fn("loopacc.classify", "check_a_solvable", "classify.check_a_solvable")
        for attr in ("build_rec", "solve_rec", "verify_solution"):
            fn("loopacc.recurrence", attr, "recurrence.solve")
        fn("loopacc.closedform", "closed_forms_all", "closedform.closed_forms_all")
        fn("loopacc.arrayform", "closed_form_array", "arrayform.closed_form_array")
        fn("loopacc.accel", "guard_characterize", "accel.guard_characterize")
        fn("loopacc.accel", "accelerate", "accel.accelerate")

        # backend: sessions, checks, validity round trips
        def started(original):
            @functools.wraps(original)
            def ensure(ses):
                if ses.proc is None or ses.proc.poll() is not None:
                    count["backend.sessions_started"] += 1
                return original(ses)
            return ensure

        self.bind_method(backend.BackendSession, "_ensure", started)

        def check_name(args):
            ses = args[0]
            if ses in self._checked:
                return "backend.check"
            self._checked.add(ses)
            return "backend.first_check"

        def check_parent(args):
            parent = self.innermost()
            if parent == "lamsolve.solve":
                count["lamsolve.rounds"] += 1
            elif parent == "backend.is_valid":
                count["backend.is_valid_roundtrips"] += 1

        method(backend.BackendSession, "check", check_name, before=check_parent)
        method(backend.BackendSession, "is_valid", "backend.is_valid")

        # lamsolve
        fn("loopacc.lamsolve", "solve", "lamsolve.solve",
           after=lambda res, args, tok: count.update({"lamsolve.lemmas": res.lemmas}))
        fn("loopacc.lamsolve", "propagate_and_reduce", "lamsolve.propagate")
        fn("loopacc.lamsolve", "check_model", "lamsolve.check_model")
        fn("loopacc.lamsolve", "verify_model", "lamsolve.verify_model")

        # solver stages, reached through the in-process replay
        def unsupported(exc, args, tok):
            if isinstance(exc, Unsupported):
                count["ground.unknown_unsupported"] += 1

        fn("loopacc.solver.ground", "check", "ground.check", on_error=unsupported)
        method(ground.GroundProblem, "hoist_formula", "ground.hoist")
        method(ground.GroundProblem, "ackermannize", "ground.ackermann")
        method(ground.GroundProblem, "array_axioms", "ground.ackermann")
        method(ground.GroundProblem, "presolve", "ground.presolve",
               after=lambda res, args, tok: count.update({"ground.conjuncts_after_presolve": len(res)}))
        fn("loopacc.solver.ground", "to_linear", "ground.to_linear")

        def nodes_found(res, args, budget):
            count["presburger.nodes"] += budget - args[0].budget

        def nodes_lost(exc, args, budget):
            if isinstance(exc, SolverTimeout):
                count["presburger.nodes_unknown"] += budget - args[0].budget
                which = "timeout" if str(exc) == "timeout" else "budget"
                count[f"presburger.unknown_{which}"] += 1

        method(presburger.PresburgerSolver, "find_model", "presburger.find_model",
               before=lambda args: args[0].budget, after=nodes_found, on_error=nodes_lost)

        # oracle
        fn("loopacc.oracle", "check_loop", "oracle.check_loop",
           after=lambda rep, args, tok: count.update({"oracle.checks": rep.checked}))
        fn("loopacc.loop", "run_n", "oracle.run_n")
        fn("loopacc.expr", "substitute", "oracle.substitute", record=False,
           only_in=["loopacc.oracle"])
        fn("loopacc.expr", "eval_expr", "oracle.eval_expr", record=False,
           only_in=["loopacc.oracle"])
        method(expr.Closure, "__call__", "oracle.closure_eval", record=False)
        method(expr.FiniteFn, "__call__", "oracle.closure_eval", record=False)

    def snapshot(self) -> "Snapshot":
        return Snapshot(Counter(self.self_s), Counter(self.total_s), Counter(self.calls),
                        Counter(self.counts))

    # -- output ------------------------------------------------------------------

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "problem")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


@dataclass
class Snapshot:
    self_s: Counter
    total_s: Counter
    calls: Counter
    counts: Counter

    def minus(self, other: "Snapshot") -> "Snapshot":
        return Snapshot(*(_sub(a, b) for a, b in zip(
            (self.self_s, self.total_s, self.calls, self.counts),
            (other.self_s, other.total_s, other.calls, other.counts))))


def _sub(a: Counter, b: Counter) -> Counter:
    return Counter({k: a[k] - b[k] for k in a})


def _self(*spans):
    return lambda s: sum(s.self_s[n] for n in spans)


def _total(*spans):
    return lambda s: sum(s.total_s[n] for n in spans)


def _calls(*spans):
    return lambda s: sum(s.calls[n] for n in spans)


def _count(key):
    return lambda s: s.counts[key]


def _share(part, whole):
    return lambda s: s.total_s[part] / s.total_s[whole] if s.total_s[whole] else 0.0


CHECKS = ("backend.check", "backend.first_check")

# (name, unit, better, value of one pass).  Times are self times: a span's
# duration less its child spans; ground.check_total_s is the one inclusive
# time, so that presburger.find_model_share has its base.
LAYER_METRICS = [
    ("problem.parse_s", "s", "lower", None),  # per workload build, in set-up
    ("loop.validate_s", "s", "lower", _self("loop.validate")),
    ("classify.check_a_solvable_s", "s", "lower", _self("classify.check_a_solvable")),
    ("recurrence.solve_s", "s", "lower", _self("recurrence.solve")),
    ("closedform.closed_forms_all_s", "s", "lower", _self("closedform.closed_forms_all")),
    ("arrayform.closed_form_array_s", "s", "lower", _self("arrayform.closed_form_array")),
    ("accel.guard_characterize_s", "s", "lower", _self("accel.guard_characterize")),
    ("accel.accelerate_s", "s", "lower", _self("accel.accelerate")),
    ("backend.sessions_started", "count", "lower", _count("backend.sessions_started")),
    ("backend.first_check_s", "s", "lower", _total("backend.first_check")),
    ("backend.check_s", "s", "lower", _total(*CHECKS)),
    ("backend.checks", "count", "lower", _calls(*CHECKS)),
    ("backend.is_valid_calls", "count", "lower", _calls("backend.is_valid")),
    ("backend.is_valid_roundtrips", "count", "lower", _count("backend.is_valid_roundtrips")),
    ("lamsolve.solve_s", "s", "lower", _self("lamsolve.solve")),
    ("lamsolve.rounds", "count", "lower", _count("lamsolve.rounds")),
    ("lamsolve.lemmas", "count", "lower", _count("lamsolve.lemmas")),
    ("lamsolve.propagate_s", "s", "lower", _self("lamsolve.propagate")),
    ("lamsolve.check_model_s", "s", "lower", _self("lamsolve.check_model")),
    ("lamsolve.verify_model_s", "s", "lower", _self("lamsolve.verify_model")),
    ("server.parse_s", "s", "lower", _self("server.parse")),
    ("ground.check_s", "s", "lower", _self("ground.check")),
    ("ground.check_total_s", "s", "lower", _total("ground.check")),
    ("ground.hoist_s", "s", "lower", _self("ground.hoist")),
    ("ground.ackermann_s", "s", "lower", _self("ground.ackermann")),
    ("ground.presolve_s", "s", "lower", _self("ground.presolve")),
    ("ground.to_linear_s", "s", "lower", _self("ground.to_linear")),
    ("ground.conjuncts_after_presolve", "count", "lower", _count("ground.conjuncts_after_presolve")),
    ("presburger.find_model_s", "s", "lower", _self("presburger.find_model")),
    ("presburger.find_model_share", "share", "lower", _share("presburger.find_model", "ground.check")),
    ("presburger.nodes", "count", "lower", _count("presburger.nodes")),
    ("presburger.nodes_unknown", "count", "lower", _count("presburger.nodes_unknown")),
    ("presburger.unknown_timeout", "count", "lower", _count("presburger.unknown_timeout")),
    ("presburger.unknown_budget", "count", "lower", _count("presburger.unknown_budget")),
    ("ground.unknown_unsupported", "count", "lower", _count("ground.unknown_unsupported")),
    ("server.replay_mismatches", "count", "lower", _count("server.replay_mismatches")),
    ("oracle.check_loop_s", "s", "lower", _self("oracle.check_loop")),
    ("oracle.run_n_s", "s", "lower", _self("oracle.run_n")),
    ("oracle.run_n_calls", "count", "lower", _calls("oracle.run_n")),
    ("oracle.substitute_s", "s", "lower", _self("oracle.substitute")),
    ("oracle.eval_expr_s", "s", "lower", _self("oracle.eval_expr")),
    ("oracle.closure_eval_s", "s", "lower", _self("oracle.closure_eval")),
    ("oracle.checks", "count", "higher", _count("oracle.checks")),
    ("trace.overhead_p50_s", "s", "lower", None),  # traced minus untraced op p50
    ("trace.overhead_share", "share", "lower", None),  # traced / untraced mean op time - 1
]

# counts that must repeat exactly from pass to pass
REPEATABLE = ("backend.checks", "lamsolve.lemmas", "presburger.nodes", "oracle.checks")


def per_pass(passes: list[Snapshot], builds: list[Snapshot]) -> tuple[dict, bool]:
    """Median over passes of each metric's per-pass value, and whether the
    repeatable counts were the same in every pass."""
    out = {"problem.parse_s": statistics.median(_self("problem.parse")(b) for b in builds)}
    for name, unit, _better, value in LAYER_METRICS:
        if value is not None:
            out[name] = statistics.median(value(p) for p in passes)
            if unit == "count" and out[name] == int(out[name]):
                out[name] = int(out[name])
    for name in REPEATABLE:
        value = next(v for n, _u, _b, v in LAYER_METRICS if n == name)
        if len({value(p) for p in passes}) > 1:
            return out, False
    return out, True


# ---------------------------------------------------------------------------
# SMT dialogue replay


class LoggedSessions:
    """Session factory for the traced run: each session logs its dialogue to
    a file of its own, which replay() then feeds to the in-process solver."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.logs: list[Path] = []
        self._n = itertools.count()

    def __call__(self):
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"session-{os.getpid()}-{next(self._n)}.smt2"
        self.logs.append(path)
        return new_session(smt_log=str(path))

    def replay(self, tracer: Tracer):
        for path in self.logs:
            replay_log(path.read_text(), tracer)
            path.unlink()
        self.logs.clear()


def replay_log(text: str, tracer: Tracer):
    """Feed one session's logged commands to a fresh server Session with the
    client's timeout, and count check-sat answers that differ from the
    logged ones."""
    frame = tracer.enter("server.replay")
    try:
        session = None
        pending: list[str] = []  # answers owed for the commands sent so far
        buf = ""
        for line in text.splitlines(keepends=True):
            if line.startswith("; <- "):
                logged = line[5:].strip()
                if pending and pending.pop(0) != logged and logged in ("sat", "unsat", "unknown"):
                    tracer.counts["server.replay_mismatches"] += 1
                continue
            buf += line
            if not server.balanced(buf):
                continue
            parse = tracer.enter("server.parse")
            forms = server.parse_forms(buf)
            tracer.exit(parse)
            buf = ""
            for form in forms:
                if form == ["set-option", ":produce-models", "true"]:
                    session = server.Session(timeout=backend.DEFAULT_TIMEOUT)  # (re)start
                head = form[0] if isinstance(form, list) and form else form
                if head in ("check-sat", "get-model"):
                    try:
                        answer = session.command(form)
                    except server.SmtError:  # no model: the replay answered differently
                        answer = "error"
                    pending.append(answer if head == "check-sat" else "")
                    continue
                parse = tracer.enter("server.parse")
                try:
                    session.command(form)
                finally:
                    tracer.exit(parse)
    finally:
        tracer.exit(frame)
