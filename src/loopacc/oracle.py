"""Differential oracle: every computed closed form (scalars, lvalues, whole
arrays) is compared against the brute-force interpreter over random states,
for every n up to a bound, on a probe window derived from the actual writes.
Mismatches are report content, not exceptions.

Each array closed form is compiled once per loop (``compile_probe``), with n
bound in the state it reads, so one call evaluates a probe window, and the
interpreter's array gives its side in one pass (``FiniteFn.at``).  The states
after 0..n_max iterations come from one run: each is the previous one
advanced by a single step, and the writes accumulate into the probe window.
"""

from __future__ import annotations

import bisect
import random
import time
from dataclasses import dataclass, field

from .closedform import Failure, closed_forms_all
from .expr import (
    SKIP, Const, EvalError, FiniteFn, State, Var, compile_probe, eval_expr, substitute, sv,
)
from .loop import Loop, LoopError, run_n
from .recurrence import N
from .sexpr import to_text
from .simplify import normal_form_scope

MARGIN = 2  # the probe window's widening around each written cell


@dataclass
class Mismatch:
    seed: int
    n: int
    subject: str  # lvalue/array text
    point: tuple[int, ...] | None
    expected: int
    got: int


@dataclass
class OracleReport:
    loop_id: str
    seeds: int
    n_max: int
    window: int
    mismatches: list[Mismatch] = field(default_factory=list)
    failure: Failure | None = None
    checked: int = 0
    skipped: int = 0  # cells whose closed form or state does not evaluate
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failure is None and not self.mismatches

    def to_json(self) -> dict:
        out = {
            "loop": self.loop_id,
            "seeds": self.seeds,
            "n_max": self.n_max,
            "window": self.window,
            "checked": self.checked,
            "skipped": self.skipped,
            "elapsed": round(self.elapsed, 3),
            "ok": self.ok,
            "mismatches": [
                {"seed": m.seed, "n": m.n, "subject": m.subject,
                 "point": list(m.point) if m.point else None,
                 "expected": m.expected, "got": m.got}
                for m in self.mismatches[:50]
            ],
        }
        if self.failure:
            out["failure"] = {"phase": self.failure.phase, "detail": self.failure.detail}
        return out


def random_state(loop: Loop, rnd: random.Random, span: int = 6) -> State:
    mapping = {}
    for x in loop.variables():
        if x.arity == 0:
            mapping[x] = rnd.randint(-span, span)
        else:
            kind = rnd.random()
            if kind < 0.4:
                base, coeffs = rnd.randint(-3, 3), (0,) * x.arity
            elif kind < 0.7 and x.arity == 1:
                base, coeffs = 0, (1,)
            else:
                base, coeffs = rnd.randint(-2, 2), [rnd.randint(-1, 1) for _ in range(x.arity)]
            ov = {}
            for _ in range(rnd.randint(0, 8)):
                pt = tuple(rnd.randint(-span, span + 4) for _ in range(x.arity))
                ov[pt] = rnd.randint(-9, 9)
            mapping[x] = FiniteFn.affine(x.arity, base, coeffs, ov)
    return State(mapping)


class ProbeWindow:
    """The cells of x written so far or overridden in the initial state (the
    origin while there are none), widened by margin, plus two far-away cells,
    in sorted order.  add() grows it from one step's writes."""

    def __init__(self, x: Var, state: State, margin: int):
        self.x, self.margin = x, margin
        fn = state[x]
        self.points = {p for p, _ in fn.overrides} if isinstance(fn, FiniteFn) else set()
        self._reset()

    def _reset(self) -> None:
        self.cells = {(50,) * self.x.arity, (-50,) * self.x.arity}
        self.order = sorted(self.cells)
        self._widen(self.points or {(0,) * self.x.arity})

    def _widen(self, points) -> None:
        """Add the widening of points to cells, each new cell in its sorted place in order."""
        for p in points:
            for d in range(-self.margin, self.margin + 1):
                for c in (tuple([c + d for c in p]), (p[0] + d,) + p[1:]):
                    if c not in self.cells:
                        self.cells.add(c)
                        bisect.insort(self.order, c)

    def add(self, writes) -> None:
        new = {w.point for w in writes if w.var == self.x} - self.points
        if new and not self.points:  # the origin gives way to the first write
            self.points = new
            self._reset()
        elif new:
            self.points |= new
            self._widen(new)


def _failed(report: OracleReport, failure: Failure, t0: float) -> OracleReport:
    report.failure = failure
    report.elapsed = time.perf_counter() - t0
    return report


@normal_form_scope
def check_loop(loop: Loop, *, loop_id: str = "loop", seeds: int = 25, n_max: int = 8,
               session, seed0: int = 0) -> OracleReport:
    """Closed forms vs run_n: scalars and lvalue table entries pointwise,
    arrays on the probe window, for every n the guard allows."""
    t0 = time.perf_counter()
    report = OracleReport(loop_id, seeds, n_max, MARGIN)
    forms = closed_forms_all(loop, session)
    if isinstance(forms, Failure):
        return _failed(report, forms, t0)
    outside = forms.outside_table(loop)
    for cf in outside.values():
        if isinstance(cf, Failure):
            return _failed(report, cf, t0)

    probes = {x: compile_probe(lam) for x, lam in outside.items() if x.arity}
    rows = [*forms.table.items(), *((sv(x), cf) for x, cf in outside.items() if not x.arity)]
    # the lvalue table and those scalars at each n, substituted once for every state
    tables = [[(lv, substitute(cf, {N: Const(n)})) for lv, cf in rows] for n in range(n_max + 1)]
    for s_idx in range(seeds):
        rnd = random.Random(seed0 + s_idx)
        state = random_state(loop, rnd)
        cur = state
        windows = [ProbeWindow(x, state, MARGIN) for x in probes]
        for n in range(n_max + 1):
            if n:
                try:
                    r = run_n(loop, cur, 1)
                except EvalError:  # the interpreter fails from this n on
                    report.skipped += 1
                    break
                except LoopError as exc:  # an aliasing write violates (Distinct)
                    return _failed(report, Failure("validation", str(exc)), t0)
                if r.stuck_at is not None:  # the guard stops the loop before n
                    break
                cur = r.state
                for w in windows:
                    w.add(r.writes)
            for lv, cf in tables[n]:
                try:
                    expected = eval_expr(lv, cur)
                    got = eval_expr(cf, state)
                except EvalError:  # e.g. division by zero in a probed cell
                    report.skipped += 1
                    continue
                report.checked += 1
                if expected != got:
                    report.mismatches.append(
                        Mismatch(s_idx, n, to_text(lv), None, expected, got))
            env = state.bind({N: n})
            for (x, probe), window in zip(probes.items(), windows):
                order, skips = window.order, 0
                want, have = cur[x].at(order), probe(env, order)
                if want == have:  # an equal pair holds no SKIP
                    report.checked += len(order)
                    continue
                for pt, expected, got in zip(order, want, have):
                    if got is SKIP:
                        skips += 1
                    elif expected != got:
                        report.mismatches.append(Mismatch(s_idx, n, x.name, pt, expected, got))
                report.checked += len(order) - skips
                report.skipped += skips
    report.elapsed = time.perf_counter() - t0
    return report
