"""Differential oracle: every computed closed form (scalars, lvalues, whole
arrays) is compared against the brute-force interpreter over random states,
for every n up to a bound, on a probe window derived from the actual writes.
Mismatches are report content, not exceptions.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .arrayform import ArrayFormError, closed_form_array
from .closedform import Failure, closed_forms_all
from .expr import Const, EvalError, FiniteFn, State, Var, eval_expr, substitute
from .loop import Loop, build_up, run_n
from .recurrence import N
from .sexpr import to_text


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
    for x in sorted(loop.variables(), key=lambda v: v.name):
        if x.arity == 0:
            mapping[x] = rnd.randint(-span, span)
        else:
            kind = rnd.random()
            if kind < 0.4:
                base = FiniteFn.const(x.arity, rnd.randint(-3, 3))
            elif kind < 0.7 and x.arity == 1:
                base = FiniteFn.identity()
            else:
                base = FiniteFn.affine(x.arity, rnd.randint(-2, 2),
                                       [rnd.randint(-1, 1) for _ in range(x.arity)])
            ov = {}
            for _ in range(rnd.randint(0, 8)):
                pt = tuple(rnd.randint(-span, span + 4) for _ in range(x.arity))
                ov[pt] = rnd.randint(-9, 9)
            mapping[x] = FiniteFn(x.arity, base.base, base.coeffs, base.overrides)
            for pt, v in ov.items():
                mapping[x] = mapping[x].store(pt, v)
    return State(mapping)


def probe_points(loop: Loop, result, state: State, x: Var, margin: int) -> set[tuple[int, ...]]:
    pts: set[tuple[int, ...]] = set()
    for w in result.writes:
        if w.var == x:
            pts.add(w.point)
    fn = state[x]
    if isinstance(fn, FiniteFn):
        pts |= {p for p, _ in fn.overrides}
    widened: set[tuple[int, ...]] = set()
    for p in pts or {(0,) * x.arity}:
        for d in range(-margin, margin + 1):
            widened.add(tuple(c + d for c in p))
            widened.add((p[0] + d,) + p[1:])
    far = 50
    widened.add(tuple(far for _ in range(x.arity)))
    widened.add(tuple(-far for _ in range(x.arity)))
    return widened


def check_loop(loop: Loop, *, loop_id: str = "loop", seeds: int = 25, n_max: int = 8,
               margin: int = 2, session=None, seed0: int = 0) -> OracleReport:
    """Closed forms vs run_n: scalars and lvalue table entries pointwise,
    arrays on the probe window, for every n the guard allows."""
    t0 = time.time()
    report = OracleReport(loop_id, seeds, n_max, margin)
    forms = closed_forms_all(loop, session)
    if isinstance(forms, Failure):
        report.failure = forms
        report.elapsed = time.time() - t0
        return report
    up = build_up(loop)
    array_forms = {}
    for x in sorted(loop.written_vars(), key=lambda v: v.name):
        if x.arity > 0:
            try:
                array_forms[x] = closed_form_array(loop, x, forms.table, up)
            except ArrayFormError as exc:
                report.failure = Failure("array-closed-form", str(exc))
                report.elapsed = time.time() - t0
                return report

    for s_idx in range(seeds):
        rnd = random.Random(seed0 + s_idx)
        state = random_state(loop, rnd)
        runs = []
        for n in range(n_max + 1):
            try:
                runs.append(run_n(loop, state, n))
            except EvalError:  # the interpreter fails from this n on
                report.skipped += 1
                break
        for n, r in enumerate(runs):
            if r.stuck_at is not None and r.stuck_at < n:
                break
            n_sub = {N: Const(n)}
            for lv, cf in forms.table.items():
                try:
                    expected = eval_expr(lv, r.state)
                    got = eval_expr(substitute(cf, n_sub), state)
                except EvalError:  # e.g. division by zero in a probed cell
                    report.skipped += 1
                    continue
                report.checked += 1
                if expected != got:
                    report.mismatches.append(
                        Mismatch(s_idx, n, to_text(lv), None, expected, got))
            for x, lam in array_forms.items():
                lam_n = substitute(lam, n_sub)
                fn = eval_expr(lam_n, state)
                target = r.state[x]
                for pt in sorted(probe_points(loop, r, state, x, margin)):
                    try:
                        expected = target(pt)
                        got = fn(pt)
                    except EvalError:
                        report.skipped += 1
                        continue
                    report.checked += 1
                    if expected != got:
                        report.mismatches.append(
                            Mismatch(s_idx, n, x.name, pt, expected, got))
    report.elapsed = time.time() - t0
    return report
