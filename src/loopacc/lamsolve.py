"""Theory solver for literal conjunctions with lambda array terms, layered
over the ground backend: eliminate array disequalities through extensionality,
propagate equalities and beta-reduce to a fixpoint (``simplify.eliminate``,
with this module's rule for which literal defines which variable), abstract
remaining lambdas by fresh array variables, then refine the abstraction with
instantiation lemmas p[e] = q[e] at syntactic index vectors until the backend
model lifts, the abstraction is unsatisfiable, or no refinement is left
(unknown).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backend import BackendSession, Model
from .expr import (
    And, Bin, BoolConst, Const, EvalError, Expr, FiniteFn, Formula, Ite, Lam,
    Not, Or, Rel, Sel, State, Var, arity_of, beta_reduce, eval_expr,
    eval_formula, free_vars, fresh_var, lval_set, substitute, sv,
)
from .sexpr import to_text
from .simplify import eliminate, simplify, simplify_formula


class SolveError(Exception):
    pass


@dataclass
class SolveResult:
    status: str  # model | unsat | unknown
    model: "LambdaModel | None" = None
    diagnostic: str = ""
    lemmas: int = 0
    reason: str = ""  # the backend's reason behind an unknown check


@dataclass
class LambdaModel:
    """Scalars and backend arrays as default-plus-overrides; variables removed
    by equality propagation come back as evaluated integers or, for arrays,
    closed lambda expressions."""

    scalars: dict[str, int] = field(default_factory=dict)
    arrays: dict[str, FiniteFn] = field(default_factory=dict)
    derived: dict[str, object] = field(default_factory=dict)  # name -> int | ArrayExpr

    def state(self, variables) -> State:
        m = {}
        for x in variables:
            if x.arity == 0:
                if x.name in self.scalars:
                    m[x] = self.scalars[x.name]
                elif x.name in self.derived and isinstance(self.derived[x.name], int):
                    m[x] = self.derived[x.name]
            else:
                if x.name in self.arrays:
                    m[x] = self.arrays[x.name]
        return State(m)


def is_literal(f: Formula) -> bool:
    if isinstance(f, Rel):
        return True
    return isinstance(f, Not) and isinstance(f.arg, Rel)


def eliminate_diseq(lits: list[Formula]) -> list[Formula]:
    """Array literals p != q become p[i*] != q[i*] with fresh scalar index
    variables (extensionality); scalar literals pass through."""
    out = []
    for f in lits:
        neg = isinstance(f, Not)
        atom = f.arg if neg else f
        op = atom.op if isinstance(atom, Rel) else None
        is_neq = (op == "!=" and not neg) or (op == "=" and neg)
        if is_neq and arity_of(atom.left) > 0:
            ar = arity_of(atom.left)
            if ar != arity_of(atom.right):
                raise SolveError("array disequality with mismatched arities")
            fresh = tuple(sv(fresh_var("i*")) for _ in range(ar))
            out.append(Rel("!=", Sel(atom.left, fresh), Sel(atom.right, fresh)))
        else:
            out.append(f)
    return out


@dataclass
class Propagated:
    literals: list[Formula]
    log: list[tuple[Var, object]]  # substitution order; images at their time


def propagate_and_reduce(lits: list[Formula]) -> Propagated:
    """Fixpoint of equality propagation and beta reduction.  Propagated
    literals turn into p = p and are simplified away; the ordered log lets a
    model re-derive the removed variables afterwards."""
    return Propagated(*eliminate([simplify_formula(beta_reduce(f)) for f in lits], _definition))


def _definition(f: Formula):
    """(x, t) for an equality x = t or t = x, tried left side first, that
    propagation may substitute: a scalar x and an integer term t, or an array
    x and an array variable or lambda t of its arity; x not free in t."""
    if not (isinstance(f, Rel) and f.op == "="):
        return None
    for side, other in ((f.left, f.right), (f.right, f.left)):
        if isinstance(side, Sel) and isinstance(side.arr, Var) and not side.idx:
            cand = side.arr
        elif isinstance(side, Var):
            cand = side
        else:
            continue
        if cand.arity == 0:
            if isinstance(other, (Var, Lam)):
                continue  # ill-typed; leave for the backend
        elif not isinstance(other, (Var, Lam)) or arity_of(other) != cand.arity:
            continue
        if cand in free_vars(other):
            continue
        return cand, other
    return None


class LambdaAbstraction:
    """Replaces lambda expressions by fresh array variables; alpha-equivalent
    lambdas share one variable.  Reusable so refinement lemmas abstract any
    residual lambdas consistently with the initial pass."""

    def __init__(self):
        self.table: dict[Lam, Var] = {}
        self.reverse: dict[Var, Lam] = {}

    def _key(self, lam: Lam) -> Lam:
        """lam with its parameters renamed %0, %1, ...: alpha-equivalent
        lambdas give equal keys."""
        params = tuple(Var(f"%{k}", 0) for k in range(len(lam.params)))
        renaming = {p: sv(q) for p, q in zip(lam.params, params)}
        return Lam(params, substitute(lam.body, renaming))

    def apply(self, e):
        if isinstance(e, Lam):
            key = self._key(e)
            if key not in self.table:
                v = fresh_var("arr", len(e.params))
                self.table[key] = v
                self.reverse[v] = e
            return self.table[key]
        if isinstance(e, (Const, BoolConst, Var)):
            return e
        if isinstance(e, Bin):
            return Bin(e.op, self.apply(e.left), self.apply(e.right))
        if isinstance(e, Sel):
            return Sel(self.apply(e.arr), tuple(self.apply(i) for i in e.idx))
        if isinstance(e, Ite):
            return Ite(self.apply(e.cond), self.apply(e.then), self.apply(e.other))
        if isinstance(e, Rel):
            return Rel(e.op, self.apply(e.left), self.apply(e.right))
        if isinstance(e, Not):
            return Not(self.apply(e.arg))
        if isinstance(e, (And, Or)):
            return type(e)(tuple(self.apply(a) for a in e.args))
        raise TypeError(f"unexpected node {e!r}")


def abstract_lambdas(lits: list[Formula]):
    abstraction = LambdaAbstraction()
    abstracted = [abstraction.apply(f) for f in lits]
    return abstracted, abstraction


def collect_idx(lits: list[Formula]) -> list[tuple[Expr, ...]]:
    """Index vectors of top-level array-variable cells (nothing below
    lambdas), deduplicated, in deterministic order."""
    seen = set()
    out = []
    for f in lits:
        for lv in sorted(lval_set(f), key=to_text):
            if lv.arr.arity > 0 and lv.idx not in seen:
                seen.add(lv.idx)
                out.append(lv.idx)
    return out


def array_equalities(lits: list[Formula]) -> list[tuple[Formula, object, object]]:
    out = []
    for f in lits:
        if isinstance(f, Rel) and f.op == "=" and arity_of(f.left) > 0:
            out.append((f, f.left, f.right))
    return out


def verify_model(model: LambdaModel, lits: list[Formula], session: BackendSession) -> bool:
    """Independent re-verification of a finished model against an original
    literal list: derived lambda values are substituted in, then every literal
    is checked like in check_model."""
    sub = {}
    for name, val in model.derived.items():
        if isinstance(val, Lam):
            sub[Var(name, len(val.params))] = val
    lits2 = [beta_reduce(substitute(f, sub)) if sub else f for f in lits]
    backend_view = Model(dict(model.scalars), dict(model.arrays))
    return check_model(backend_view, lits2, session)


def check_model(model: Model, lits: list[Formula], session: BackendSession) -> bool:
    """Scalar literals evaluate directly; array equalities are checked as
    validity of p[i*] = q[i*] after substituting the model's scalar values and
    default-plus-overrides array values."""
    variables = set()
    for f in lits:
        variables |= free_vars(f)
    state = model.as_state(variables)
    for f in lits:
        neg = isinstance(f, Not)
        atom = f.arg if neg else f
        if isinstance(atom, Rel) and atom.op in ("=", "!=") and arity_of(atom.left) > 0:
            holds = _array_eq_holds(atom.left, atom.right, state, session)
            if holds is None:
                return False  # conservative: inconclusive is not a model
            want = (atom.op == "=") != neg
            if holds != want:
                return False
            continue
        try:
            if eval_formula(f, state) is not True:
                return False
        except EvalError:
            return False
    return True


def _array_eq_holds(p, q, state: State, session: BackendSession) -> bool | None:
    sub = {}
    for x in (free_vars(p) | free_vars(q)):
        if x not in state:
            return None
        v = state[x]
        sub[x] = Const(v) if x.arity == 0 else finite_fn_expr(v)
    ps, qs = substitute(p, sub), substitute(q, sub)
    fresh = tuple(sv(fresh_var("i*")) for _ in range(arity_of(p)))
    lhs = simplify(beta_reduce(Sel(ps, fresh)))
    rhs = simplify(beta_reduce(Sel(qs, fresh)))
    return session.is_valid(Rel("=", lhs, rhs))


def finite_fn_expr(fn: FiniteFn) -> Lam:
    """default-plus-overrides as an ite chain, background as an affine
    expression over the parameters."""
    params = tuple(fresh_var("j") for _ in range(fn.arity))
    body: Expr = Const(fn.base)
    for c, p in zip(fn.coeffs, params):
        if c:
            body = Bin("+", body, Bin("*", Const(c), sv(p)))
    for point, v in sorted(fn.overrides):
        cond = And(tuple(Rel("=", sv(p), Const(k)) for p, k in zip(params, point))) \
            if fn.arity > 1 else Rel("=", sv(params[0]), Const(point[0]))
        body = Ite(cond, Const(v), body)
    return Lam(params, body)


def solve(lits: list[Formula], session: BackendSession) -> SolveResult:
    """Algorithm: preprocess, abstract, then alternate backend checks with
    instantiation-lemma refinement; unknown when no new lemma exists."""
    for f in lits:
        if not (is_literal(f) or isinstance(f, BoolConst)):
            raise SolveError(f"not a flat literal: {f!r}")
    try:
        lits = eliminate_diseq(lits)
    except SolveError as exc:
        return SolveResult("unknown", diagnostic=str(exc))
    prop = propagate_and_reduce(lits)
    phi = prop.literals
    if any(f == BoolConst(False) for f in phi):
        return SolveResult("unsat")
    phi = [f for f in phi if f != BoolConst(True)]
    phi_abs, abstraction = abstract_lambdas(phi)
    idx = collect_idx(phi)
    equalities = array_equalities(phi)

    all_vars = set()
    for f in phi + phi_abs:
        all_vars |= free_vars(f)
    # lambdas hide variables that the original formula still constrains
    for lam in abstraction.reverse.values():
        all_vars |= free_vars(lam)

    tried: set[tuple[int, tuple[Expr, ...]]] = set()
    lemmas = 0
    bound = (len(equalities) * max(1, len(idx))) + 1
    for _round in range(bound + 1):
        res = session.check(phi_abs or [BoolConst(True)])
        if res.status == "unsat":
            return SolveResult("unsat", lemmas=lemmas)
        if res.status != "sat":
            return SolveResult("unknown", diagnostic=res.diagnostic or "backend unknown",
                               lemmas=lemmas, reason=res.reason)
        model = res.model
        for x in sorted(all_vars, key=lambda v: v.name):
            if x.arity == 0:
                model.scalars.setdefault(x.name, 0)
            else:
                model.arrays.setdefault(x.name, FiniteFn.const(x.arity, 0))
        if check_model(model, phi, session):
            return SolveResult("model", _finish_model(model, prop.log, all_vars),
                               lemmas=lemmas)
        # refinement: add every violated instantiation found this round; the
        # lemma instantiates the original sides (beta-reducible), with any
        # residual lambdas abstracted through the shared table
        progress = False
        state = model.as_state(all_vars)
        for k, (f, p, q) in enumerate(equalities):
            par = arity_of(p)
            for e in idx:
                if len(e) != par or (k, e) in tried:
                    continue
                try:
                    lv = _eval_apply(p, e, state)
                    rv = _eval_apply(q, e, state)
                except EvalError:
                    continue
                if lv != rv:
                    tried.add((k, e))
                    lemma = simplify_formula(Rel("=",
                                                 beta_reduce(Sel(p, e)),
                                                 beta_reduce(Sel(q, e))))
                    phi_abs = phi_abs + [abstraction.apply(lemma)]
                    lemmas += 1
                    progress = True
        if not progress:
            return SolveResult("unknown", diagnostic="refinement failed", lemmas=lemmas)
    return SolveResult("unknown", diagnostic="lemma bound exhausted", lemmas=lemmas)


def _eval_apply(p, e: tuple, state: State) -> int:
    fn = eval_expr(p, state)
    point = tuple(eval_expr(x, state) for x in e)
    return fn(point)


def _finish_model(model: Model, log, variables) -> LambdaModel:
    """Re-derive propagated-away variables by closing their logged images over
    the backend model, in reverse propagation order."""
    out = LambdaModel(dict(model.scalars), dict(model.arrays))
    known: dict[str, object] = dict(out.scalars)
    known.update(out.arrays)
    for x, img in reversed(log):
        sub = {}
        resolvable = True
        for y in free_vars(img):
            v = known.get(y.name)
            if isinstance(v, int):
                sub[y] = Const(v)
            elif isinstance(v, FiniteFn):
                sub[y] = finite_fn_expr(v)
            elif isinstance(v, Lam):
                sub[y] = v
            else:
                resolvable = False
                break
        if not resolvable:
            out.derived[x.name] = img
            continue
        closed = beta_reduce(substitute(img, sub))
        if x.arity == 0:
            try:
                val = eval_expr(closed, State({}))
            except EvalError:
                out.derived[x.name] = closed
                continue
            out.scalars[x.name] = val
            out.derived[x.name] = val
            known[x.name] = val
        else:
            val = simplify(closed)
            out.derived[x.name] = val
            if isinstance(val, Lam):
                known[x.name] = val
    return out
