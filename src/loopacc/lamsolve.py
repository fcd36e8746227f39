"""Theory solver for conjunctions with lambda array terms, layered over the
ground backend.  Array (in)equalities must be conjuncts of their own; any
other conjunct, a disjunction of scalar atoms too, reaches the backend as it
is.  Eliminate array disequalities through extensionality, then propagate
equalities and beta-reduce to a fixpoint (``simplify.eliminate``, with this
module's ``_definition`` of which literal defines which variable).  An array
equality defines its array variable; a scalar equality, in the simplifier's
normal form q = c, defines the least name with coefficient +-1, as the
backend's presolve solves one, so the equalities of init, the closed forms
and post shrink every beta-reduced lambda application before the backend
hoists its ite terms.  Each literal takes the definitions lazily, all at
once when the scan reaches it.  Then the unit bounds decide what they can
of the rest (``_fold``): a form they pin becomes an equality to propagate,
and the ite conditions they decide collapse, so most case splits of the
closed forms never reach the backend; bounds that leave a form no value
are unsat without a check.  The backend gets the scalar conjuncts left.
Lemmas on demand: each round evaluates every array equality p = q at the
query's syntactic index vectors e in the backend's model, and each
violated instance adds the lemma p[e] = q[e].
Only a model that no instance refutes is checked at every index
(``check_model``); it lifts, or no lemma is left (unknown).  Unsat ends the
rounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .backend import BackendSession, Model
from .expr import (
    FALSE, TRUE, And, Bin, BoolConst, Const, EvalError, Expr, FiniteFn, Formula, Ite,
    Lam, Not, Or, Rel, Sel, State, Var, arity_of, beta_reduce, conj, eval_expr,
    eval_formula, free_vars, fresh_var, lval_set, map_children, substitute, sv,
)
from .sexpr import to_text
from .simplify import (
    decided, eliminate, is_unit, linearize, normal_form_scope, poly_add, poly_scale,
    poly_terms, poly_to_expr, poly_var, simplify, simplify_formula, unit_bounds,
)


class SolveError(Exception):
    pass


@dataclass
class SolveResult:
    status: str  # model | unsat | unknown
    model: Model | None = None
    diagnostic: str = ""
    lemmas: int = 0
    reason: str = ""  # the backend's reason behind an unknown check


def eliminate_diseq(lits: list[Formula]) -> list[Formula]:
    """Array literals p != q become p[i*] != q[i*] with fresh scalar index
    variables (extensionality); every other conjunct passes through."""
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
    """Fixpoint of equality propagation and beta reduction (``eliminate``)
    and of ``_fold``, at most eight folds (no query of the tests needs five).
    The ordered log lets a model re-derive the variables propagated away."""
    lits, log = eliminate([simplify_formula(beta_reduce(f)) for f in lits], _definition)
    for _ in range(8):
        folded = _fold(lits)
        if folded is lits:
            break
        lits, more = eliminate(folded, _definition)
        log += more
    return Propagated(lits, log)


def _fold(lits: list[Formula]) -> list[Formula]:
    """lits under the bounds of their units (``unit_bounds``), each literal
    rewritten under the others; [FALSE] when the bounds leave a form no
    value, lits itself when nothing changes.  Inside every literal, the atoms
    the bounds decide (``decided``) become TRUE or FALSE, and simplifying
    collapses the ite terms they guarded.  A form pinned to one value gets
    q = c in place of its units; a unit another of its form implies, and a
    literal another repeats, is dropped."""
    table = unit_bounds(lits)
    if table is None:
        return [FALSE]
    out = []
    for f in lits:
        # a unit's bounds are on its whole form, never on an atom inside it
        g = map_children(f, _replace_atoms, table)
        if g is not f:
            g = simplify_formula(g)
            if g == FALSE:
                return [FALSE]
        elif is_unit(f):
            lo, hi, _ = table[f.left]
            c = f.right.value
            if lo == hi and f.op != "!=":
                g = f if f.op == "=" else Rel("=", f.left, Const(lo))
            elif not lo <= c <= hi or f.op != "!=" and c != (lo if f.op == ">=" else hi):
                continue  # another unit of its form implies it
        out.append(g)
    out = list(dict.fromkeys(out))  # and a literal another repeats
    return lits if out == lits else out


def _definition(f: Formula):
    """(x, t) for an equality that propagation may substitute, x not free in
    t.  An array equality x = t or t = x, tried left side first, gives an
    array variable x and an array variable or lambda t of its arity.  A
    scalar equality, whose normal form is q = c, is solved as presolve
    solves one (``ground._definition``): x is the least name among the
    scalars whose monomial in q - c is the scalar alone with coefficient
    +-1, and t is the rest of q - c scaled by minus that coefficient, so
    x = numeral gives its numeral.  It is refused when x is also free in
    t, under a select index, a div or a product."""
    if not (isinstance(f, Rel) and f.op == "="):
        return None
    if not (isinstance(f.left, (Var, Lam)) or isinstance(f.right, (Var, Lam))):
        p = poly_add(linearize(f.left), linearize(f.right), sign=-1)
        scalars = [(atoms[0].arr, c) for atoms, c in poly_terms(p)
                   if len(atoms) == 1 and abs(c) == 1 and _is_scalar(atoms[0])]
        if not scalars:
            return None
        x, c = min(scalars, key=lambda xc: xc[0].name)
        t = poly_to_expr(poly_scale(poly_add(p, poly_scale(poly_var(x), c), sign=-1), -c))
        return None if x in free_vars(t) else (x, t)
    for x, t in ((f.left, f.right), (f.right, f.left)):
        if isinstance(x, Var) and x.arity and isinstance(t, (Var, Lam)) \
                and arity_of(t) == x.arity and x not in free_vars(t):
            return x, t
    return None


def _is_scalar(e) -> bool:
    return type(e) is Sel and not e.idx and type(e.arr) is Var


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


def array_equalities(lits: list[Formula]) -> list[tuple[object, object]]:
    return [(f.left, f.right) for f in lits
            if isinstance(f, Rel) and f.op == "=" and arity_of(f.left) > 0]


@normal_form_scope
def verify_model(model: Model, lits: list[Formula], session: BackendSession) -> bool:
    """Independent re-verification of a finished model against an original
    literal list: derived lambda values are substituted in, then every literal
    is checked like in check_model."""
    sub = {}
    for name, val in model.derived.items():
        if isinstance(val, Lam):
            sub[Var(name, len(val.params))] = val
    lits2 = [beta_reduce(substitute(f, sub)) if sub else f for f in lits]
    return check_model(model, lits2, session)


def check_model(model: Model, lits: list[Formula], session: BackendSession) -> bool:
    """Scalar literals evaluate directly.  An array equality p = q holds
    when p[i*] = q[i*] holds at every index i*, after substituting the
    model's scalar values and default-plus-overrides array values; the
    question is split into cases over i* and only the cases the simplifier
    cannot decide reach the backend (``_equal_by_cases``).  solve calls
    this only on a model that no instance of an array equality refutes."""
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
    return _equal_by_cases(lhs, rhs, frozenset(fresh), session)


def _equal_by_cases(lhs, rhs, index, session: BackendSession) -> bool | None:
    """Whether lhs = rhs at every value of the index variables, terms over
    them alone: split on the atoms of ite conditions that bound or fix one
    index variable, drop the cases whose bounds contradict, fix an index an
    equality pins, and simplify.  A case left with other conditions goes to
    the backend as case => lhs = rhs.  None past the session's timeout, or
    when the backend leaves some case undecided and none fails."""
    deadline = time.monotonic() + session.timeout
    undecided = False
    cases = [((), lhs, rhs)]
    while cases:
        if time.monotonic() > deadline:
            return None
        path, l, r = cases.pop()
        if l == r:
            continue
        atom = _index_atom(l, index) or _index_atom(r, index)
        if atom is None:
            holds = session.is_valid(Or((Not(conj(path)), Rel("=", l, r))))
            if holds is False:
                return False
            undecided |= holds is None
            continue
        for case in (simplify_formula(Not(atom)), atom):
            branch = path + (case,)
            if unit_bounds(branch) is not None:
                cases.append((branch, _assume(l, case), _assume(r, case)))
    return None if undecided else True


def _index_atom(e, index):
    """The first atom x op k (x an index variable) of an ite condition in e."""
    k = type(e)
    if k is Rel:
        return e if e.left in index and type(e.right) is Const else None
    if k is Ite:
        return (_index_atom(e.cond, index) or _index_atom(e.then, index)
                or _index_atom(e.other, index))
    if k is Bin:
        return _index_atom(e.left, index) or _index_atom(e.right, index)
    if k is And or k is Or:
        return next(filter(None, (_index_atom(a, index) for a in e.args)), None)
    if k is Not:
        return _index_atom(e.arg, index)
    return None


def _assume(e, case: Rel):
    """e simplified under the case, the atom or its negation: an index fixed
    by an equality is substituted, else the atoms the case decides are."""
    if case.op == "=":
        return simplify(substitute(e, {case.left.arr: case.right}))
    return simplify(_replace_atoms(e, unit_bounds([case])))


def _replace_atoms(e, table: dict):
    """e with each atom that the bounds of table decide replaced by its truth
    (``decided``), inside the sides of an atom left as it is too."""
    k = type(e)
    if k is Rel:
        t = decided(e, table)
        if t is not None:
            return t
    elif k is Const or k is Sel and not e.idx:  # a leaf or a scalar
        return e
    elif k is Lam and any(not free_vars(q).isdisjoint(e.params) for q in table):
        return e  # the bounds on a name it binds say nothing of its parameter
    return map_children(e, _replace_atoms, table)


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


@normal_form_scope
def solve(lits: list[Formula], session: BackendSession) -> SolveResult:
    """Algorithm: preprocess, then alternate backend checks of the scalar
    conjuncts with instantiation-lemma refinement; unknown when no new lemma
    exists."""
    try:
        lits = eliminate_diseq(lits)
    except SolveError as exc:
        return SolveResult("unknown", diagnostic=str(exc))
    prop = propagate_and_reduce(lits)
    phi = prop.literals
    if FALSE in phi:
        return SolveResult("unsat")
    # the backend sees the scalar literals and the lemmas; check_model checks
    # the array equalities
    sent = [f for f in phi if not (isinstance(f, Rel) and arity_of(f.left) > 0)]
    idx = collect_idx(phi)
    equalities = array_equalities(phi)
    all_vars = set()
    for f in phi:
        all_vars |= free_vars(f)
    # a name that only the logged images mention is free (x = y + 5 alone
    # solves x); it takes the default value, so that the images close
    for _, t in prop.log:
        all_vars |= free_vars(t)
    all_vars -= {x for x, _ in prop.log}

    tried: set[tuple[int, tuple[Expr, ...]]] = set()
    lemmas = 0
    # ends: a round that does not return adds an untried (k, e) to tried
    while True:
        res = session.check(sent or [BoolConst(True)])
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
        # refinement: every instance p[e] = q[e] the model violates becomes a
        # lemma, on the original sides, beta-reduced
        progress = False
        state = model.as_state(all_vars)
        for k, (p, q) in enumerate(equalities):
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
                    sent.append(simplify_formula(Rel("=", beta_reduce(Sel(p, e)),
                                                     beta_reduce(Sel(q, e)))))
                    lemmas += 1
                    progress = True
        if progress:
            continue
        # no instance refutes the model: it lifts when every array equality
        # holds at every index
        if check_model(model, phi, session):
            return SolveResult("model", _finish_model(model, prop.log), lemmas=lemmas)
        return SolveResult("unknown", diagnostic="refinement failed", lemmas=lemmas)


def _eval_apply(p, e: tuple, state: State) -> int:
    fn = eval_expr(p, state)
    point = tuple(eval_expr(x, state) for x in e)
    return fn(point)


def _finish_model(model: Model, log) -> Model:
    """The backend model with the propagated-away variables re-derived, in
    reverse propagation order, by closing their logged images over it."""
    known: dict[str, object] = {**model.scalars, **model.arrays}
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
            model.derived[x.name] = img
            continue
        closed = beta_reduce(substitute(img, sub))
        if x.arity == 0:
            try:
                val = eval_expr(closed, State({}))
            except EvalError:
                model.derived[x.name] = closed
                continue
            model.scalars[x.name] = val
            model.derived[x.name] = val
            known[x.name] = val
        else:
            val = simplify(closed)
            model.derived[x.name] = val
            if isinstance(val, Lam):
                known[x.name] = val
    return model
