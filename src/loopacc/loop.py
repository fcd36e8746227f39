"""Single-path loop representation, the (Distinct) check, construction of the
update substitution, and the concrete interpreter that serves as brute-force
oracle for every closed form.

Loops are  while guard do (lv_1, ..., lv_m) <- (rhs_1, ..., rhs_m)  with all
updates applied simultaneously; no two lvalues may alias the same cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .expr import (
    EvalError, Expr, FiniteFn, Formula, Ite, Lam, Rel, Sel, State, Var,
    beta_reduce, conj, disj, eval_expr, eval_formula, free_vars, fresh_var,
    is_lvalue, is_rvalue, substitute, sv,
)
from .simplify import simplify


class LoopError(Exception):
    pass


@dataclass(frozen=True)
class Loop:
    guard: Formula
    lvalues: tuple[Sel, ...]
    rhs: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.lvalues) != len(self.rhs):
            raise LoopError("lvalue and rhs vectors must have equal length")
        for lv in self.lvalues:
            if not is_lvalue(lv):
                raise LoopError(f"not an lvalue: {lv!r}")
        for r in self.rhs:
            if not is_rvalue(r):
                raise LoopError(f"not an rvalue: {r!r}")
        if len(set(self.lvalues)) != len(self.lvalues):
            raise LoopError("syntactically duplicate lvalues")

    def rhs_of(self, lv: Sel) -> Expr:
        for l, r in zip(self.lvalues, self.rhs):
            if l == lv:
                return r
        raise KeyError(f"no update for {lv!r}")

    def written_vars(self) -> set[Var]:
        return {lv.arr for lv in self.lvalues}

    def writes_to(self, x: Var) -> list[tuple[Sel, Expr]]:
        return [(l, r) for l, r in zip(self.lvalues, self.rhs) if l.arr == x]

    def variables(self) -> tuple[Var, ...]:
        """The loop's variables in name order, collected on the first call."""
        if "_variables" not in self.__dict__:
            found = free_vars(self.guard).union(*map(free_vars, self.lvalues + self.rhs))
            object.__setattr__(self, "_variables", tuple(sorted(found, key=lambda v: v.name)))
        return self._variables


@dataclass(frozen=True)
class UpdateSubstitution:
    """x -> up_x for written variables; unwritten variables map to themselves."""

    mapping: dict[Var, object]

    def of(self, x: Var):
        return self.mapping.get(x, x if x.arity > 0 else sv(x))

    def apply(self, e):
        return beta_reduce(substitute(e, self.mapping))


def build_up(loop: Loop) -> UpdateSubstitution:
    """The read-over-write substitution: scalars collapse to their right-hand
    side, arrays become a fresh-parameter lambda with one ite case per write
    (case order is irrelevant under (Distinct))."""
    mapping = {}
    for x in sorted(loop.written_vars(), key=lambda v: v.name):
        writes = loop.writes_to(x)
        if x.arity == 0:
            mapping[x] = writes[0][1]
            continue
        params = []
        base = "jklm"[x.arity - 1] if x.arity <= 4 else "j"
        for d in range(x.arity):
            params.append(fresh_var(base if x.arity == 1 else f"{base}{d}", 0))
        body: Expr = Sel(x, tuple(sv(p) for p in params))
        for lv, r in reversed(writes):
            cond = conj(Rel("=", sv(p), ix) for p, ix in zip(params, lv.idx))
            body = Ite(cond, r, body)
        mapping[x] = Lam(tuple(params), body)
    return UpdateSubstitution(mapping)


def up_pow(e, n: int, up: UpdateSubstitution):
    """Symbolic n-fold update followed by beta reduction and simplification;
    second oracle at small n."""
    for _ in range(n):
        e = up.apply(e)
    return simplify(e)


# ---------------------------------------------------------------------------
# (Distinct)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    inconclusive: bool = False
    violation: tuple[int, int] | None = None


def validate_loop(loop: Loop, session) -> ValidationResult:
    """(Distinct): for each pair of updates to the same variable, the index
    vectors must be provably different (disequality valid)."""
    for i in range(len(loop.lvalues)):
        for j in range(i + 1, len(loop.lvalues)):
            li, lj = loop.lvalues[i], loop.lvalues[j]
            if li.arr != lj.arr:
                continue
            diseq = disj(Rel("!=", a, b) for a, b in zip(li.idx, lj.idx))
            verdict = session.is_valid(diseq)
            if verdict is None:
                return ValidationResult(False, inconclusive=True, violation=(i, j))
            if not verdict:
                return ValidationResult(False, violation=(i, j))
    return ValidationResult(True)


# ---------------------------------------------------------------------------
# interpreter


class WriteEvent(NamedTuple):
    iteration: int  # 1-based
    position: int  # index into loop.lvalues
    var: Var
    point: tuple[int, ...]


@dataclass
class RunResult:
    state: State
    completed: int
    stuck_at: int | None  # iterations completed when the guard first failed
    writes: list[WriteEvent] = field(default_factory=list)


def step(loop: Loop, s: State, iteration: int = 1, log: list | None = None) -> State | None:
    """One transition: None when the guard fails.  Uses direct cell updates,
    which agree with evaluating the update substitution (read-over-write)."""
    if not eval_formula(loop.guard, s):
        return None
    pending = []
    for pos, (lv, r) in enumerate(zip(loop.lvalues, loop.rhs)):
        point = tuple([eval_expr(i, s) for i in lv.idx])
        value = eval_expr(r, s)
        pending.append((pos, lv.arr, point, value))
    seen = set()
    for _, x, point, _ in pending:
        if (x, point) in seen:
            raise LoopError(f"aliasing update to {x.name}{list(point)}; (Distinct) violated")
        seen.add((x, point))
    updates: dict[Var, object] = {}
    for pos, x, point, value in pending:
        if x.arity == 0:
            updates[x] = value
        else:
            fn = updates.get(x, s[x])
            if not isinstance(fn, FiniteFn):
                raise EvalError(f"{x.name} is not bound to a finite-support function")
            updates[x] = fn.store(point, value)
        if log is not None:
            log.append(WriteEvent(iteration, pos, x, point))
    return s.bind(updates)


def run_n(loop: Loop, s: State, n: int) -> RunResult:
    """Iterate step up to n times, reporting where the guard first failed."""
    log: list[WriteEvent] = []
    cur = s
    for it in range(1, n + 1):
        nxt = step(loop, cur, iteration=it, log=log)
        if nxt is None:
            return RunResult(cur, it - 1, stuck_at=it - 1, writes=log)
        cur = nxt
    return RunResult(cur, n, stuck_at=None, writes=log)
