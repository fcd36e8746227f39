"""Reduction of ground formulas with ite/div terms, array selects and array
equalities to the linear fragment of presburger.py, plus model reconstruction
back to scalar/array values.

Pipeline per check-sat:
  1. hoist ite terms and floor divisions by constants into fresh variables
     with defining constraints over parts already hoisted (functional, hence
     polarity-independent at the top-level conjunction);
  2. Ackermann reduction: one fresh integer per (array, index vector) select,
     congruence implications per select pair; array equalities become 0/1
     variables with congruence across arrays and transitivity;
  3. NNF into linear atoms (to_linear), once: one walker reads each term
     (Const, + - *, scalar select) straight into a {name: int} poly, and a
     nonlinear monomial, keyed by its sorted names, becomes a fresh name;
  4. equality presolve on those rows: a pair of gt units p > 0 and 2 - p > 0
     is the equality p = 1; one with a +-1 coefficient is solved for that
     name and the image substituted (presburger.fsubst) into every unit.
     At the units' fixpoint each clause takes the composed substitution
     once, and the units a clause collapses to re-enter the unit loop;
  5. presburger.find_model case-splits over the disjunctions (ite
     definitions, congruences, disequalities) guided by candidate models, and
     decides each conjunction of atoms it assumes with Cooper's search;
  6. rebuild scalar and array values and verify the original conjunction.
"""

from __future__ import annotations

import itertools
import time

from ..expr import (
    And, Bin, BoolConst, Const, FiniteFn, Formula, Ite, Lam, Not, Or, Rel,
    Sel, State, Var, arity_of, conj, eval_expr, eval_formula, free_vars, sv,
)
from ..simplify import as_int_const, simplify_formula
from .presburger import (
    PresburgerSolver, SolverTimeout, Unsupported, atom_key, div_atom, fand, f_or, fsubst,
    fvars, gt_atom, padd, pconst, pscale, psubst,
)


class GroundProblem:
    def __init__(self, declared: dict[Var, int], deadline=None):
        self.declared = dict(declared)  # Var -> arity
        self.deadline = deadline
        self._fresh = itertools.count()
        self.defs: list[Formula] = []
        self.term_map: dict = {}
        self.selects: dict[Var, dict[tuple, Var]] = {}
        self.eq_vars: dict[tuple[Var, Var], Var] = {}
        self.presolve_log: list[tuple[str, dict]] = []
        # nonlinear monomials abstracted as unconstrained fresh variables:
        # unsat verdicts stay sound, sat models are verified against the
        # original formulas (which evaluate the true products)
        self.products: dict[tuple, str] = {}

    def fresh(self, base: str) -> Var:
        return Var(f".{base}{next(self._fresh)}", 0)

    def tick(self):
        """Every stage before the Cooper search can grow quadratically in the
        selects, so each one keeps the deadline too."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolverTimeout("timeout")

    # -- step 1: term hoisting ------------------------------------------------

    def hoist(self, e):
        if isinstance(e, (Const, BoolConst)):
            return e
        if isinstance(e, Var):
            return e
        if isinstance(e, Bin):
            l, r = self.hoist(e.left), self.hoist(e.right)
            if e.op in ("+", "-", "*"):
                return Bin(e.op, l, r)
            key = ("div", l, r)
            if key in self.term_map:
                return sv(self.term_map[key])
            d = as_int_const(r)
            if d is None or d == 0:
                raise Unsupported("division by a non-constant or zero")
            if d < 0:  # floor(l/d) = floor(-l/-d)
                l, d = Bin("-", Const(0), l), -d
            # floor division: v with l = d*v + rem and rem in [0, d)
            v = self.fresh("q")
            rem = self.fresh("r")
            self.term_map[key] = v
            self.defs.append(Rel("=", l, Bin("+", Bin("*", Const(d), sv(v)), sv(rem))))
            self.defs.append(Rel(">=", sv(rem), Const(0)))
            self.defs.append(Rel("<=", sv(rem), Const(d - 1)))
            return sv(v)
        if isinstance(e, Sel):
            if isinstance(e.arr, Lam):
                raise Unsupported("lambda reached the ground solver")
            return Sel(e.arr, tuple(self.hoist(i) for i in e.idx))
        if isinstance(e, Ite):
            cond = self.hoist_formula(e.cond)
            t, o = self.hoist(e.then), self.hoist(e.other)
            key = ("ite", cond, t, o)
            if key in self.term_map:
                return sv(self.term_map[key])
            v = self.fresh("v")
            self.term_map[key] = v
            self.defs.append(Or((Not(cond), Rel("=", sv(v), t))))
            self.defs.append(Or((cond, Rel("=", sv(v), o))))
            return sv(v)
        raise Unsupported(f"term not supported: {e!r}")

    def hoist_formula(self, f: Formula) -> Formula:
        self.tick()
        if isinstance(f, BoolConst):
            return f
        if isinstance(f, Rel):
            if f.op in ("=", "!=") and (arity_of(f.left) > 0 or arity_of(f.right) > 0):
                if not (isinstance(f.left, Var) and isinstance(f.right, Var)):
                    raise Unsupported("array literal sides must be array variables")
                if f.left.arity != f.right.arity:
                    raise Unsupported("array literal with mismatched arities")
                return f
            return Rel(f.op, self.hoist(f.left), self.hoist(f.right))
        if isinstance(f, Not):
            return Not(self.hoist_formula(f.arg))
        if isinstance(f, And):
            return And(tuple(self.hoist_formula(a) for a in f.args))
        if isinstance(f, Or):
            return Or(tuple(self.hoist_formula(a) for a in f.args))
        raise Unsupported(f"formula not supported: {f!r}")

    # -- step 2: arrays --------------------------------------------------------

    def select_var(self, arr: Var, idx: tuple) -> Var:
        table = self.selects.setdefault(arr, {})
        if idx not in table:
            table[idx] = self.fresh(f"s_{arr.name}_")
        return table[idx]

    def eq_var(self, a: Var, b: Var) -> Var:
        key = (a, b) if a.name <= b.name else (b, a)
        if key not in self.eq_vars:
            self.eq_vars[key] = self.fresh(f"eq_{key[0].name}_{key[1].name}_")
        return self.eq_vars[key]

    def ackermannize(self, f: Formula) -> Formula:
        self.tick()
        if isinstance(f, BoolConst):
            return f
        if isinstance(f, Rel):
            if f.op in ("=", "!=") and isinstance(f.left, Var) and f.left.arity > 0:
                b = self.eq_var(f.left, f.right)
                want = Const(1) if f.op == "=" else Const(0)
                return Rel("=", sv(b), want)
            return Rel(f.op, self._ack_term(f.left), self._ack_term(f.right))
        if isinstance(f, Not):
            return Not(self.ackermannize(f.arg))
        if isinstance(f, And):
            return And(tuple(self.ackermannize(a) for a in f.args))
        if isinstance(f, Or):
            return Or(tuple(self.ackermannize(a) for a in f.args))
        raise Unsupported(f"formula not supported: {f!r}")

    def _ack_term(self, e):
        if isinstance(e, (Const, BoolConst)):
            return e
        if isinstance(e, Bin):
            return Bin(e.op, self._ack_term(e.left), self._ack_term(e.right))
        if isinstance(e, Sel):
            if e.arr.arity == 0:
                return e
            idx = tuple(self._ack_term(i) for i in e.idx)
            return sv(self.select_var(e.arr, idx))
        raise Unsupported(f"term not supported post-hoisting: {e!r}")

    def array_axioms(self) -> list[Formula]:
        out: list[Formula] = []

        # close the tracked-equality graph: chained equalities (a=b, b=c) need
        # eq vars and congruence for the implied pairs too
        tracked = list(self.eq_vars)
        find = _union_find(tracked)
        classes: dict[Var, set[Var]] = {}
        for v in (x for pair in tracked for x in pair):
            classes.setdefault(find(v), set()).add(v)
        for comp in classes.values():
            for a, b in itertools.combinations(sorted(comp, key=lambda w: w.name), 2):
                self.tick()
                self.eq_var(a, b)

        def vec_eq(i1, i2):
            return conj(Rel("=", a, b) for a, b in zip(i1, i2))

        # per-array functional congruence
        for arr, table in self.selects.items():
            for (i1, v1), (i2, v2) in itertools.combinations(table.items(), 2):
                self.tick()
                out.append(Or((Not(vec_eq(i1, i2)), Rel("=", sv(v1), sv(v2)))))
        # equality variables: range, cross-array congruence, transitivity
        for (a, b), bvar in self.eq_vars.items():
            out.append(Rel(">=", sv(bvar), Const(0)))
            out.append(Rel("<=", sv(bvar), Const(1)))
            eq = Rel("=", sv(bvar), Const(1))
            for i1, v1 in self.selects.get(a, {}).items():
                for i2, v2 in self.selects.get(b, {}).items():
                    self.tick()
                    out.append(Or((Not(eq), Not(vec_eq(i1, i2)), Rel("=", sv(v1), sv(v2)))))
        # transitivity where all three pairs are tracked
        arrs = sorted({x for pair in self.eq_vars for x in pair}, key=lambda v: v.name)
        pairs = set(self.eq_vars)
        for a, b, c in itertools.combinations(arrs, 3):
            self.tick()

            def key(u, v):
                return (u, v) if u.name <= v.name else (v, u)
            if key(a, b) in pairs and key(b, c) in pairs and key(a, c) in pairs:
                ab, bc, ac = (sv(self.eq_vars[key(a, b)]), sv(self.eq_vars[key(b, c)]),
                              sv(self.eq_vars[key(a, c)]))
                for x, y, z in ((ab, bc, ac), (ab, ac, bc), (ac, bc, ab)):
                    out.append(Or((Not(Rel("=", x, Const(1))), Not(Rel("=", y, Const(1))),
                                   Rel("=", z, Const(1)))))
        return out

    # -- step 4: equality presolve on the linear rows -------------------------

    def presolve(self, conjuncts: list) -> list:
        """Solve-and-substitute over the top-level conjuncts of the linear
        NNF, to a fixpoint.  The first unit, in conjunct order, that forms
        an equality with another, a pair of gt units p > 0 and 2 - p > 0
        (that is, p - 1 = 0) with coefficient +-1 on a name other than an
        abstracted product, is solved for its least such name; the image
        replaces the name in every unit mentioning it, and (name, image) is
        logged for rebuild_model.  A clause (a disjunction) never defines a
        name, so the clauses wait for the units' fixpoint and then take the
        composed substitution of every name solved since, once each; the
        units a clause collapses to go back to the unit loop.  Every
        conjunct keeps its position.  Returns the remaining conjuncts, or
        [False] once one of them is false.

        Solving the units of a collapsed clause only after the other units
        changes the order of the eliminations when that clause precedes a
        unit equality solved meanwhile; the remaining conjuncts are then
        equivalent to those of solving them at once, but may differ in
        which name an equality solves and in their order."""
        products = set(self.products.values())
        units, clauses = [], []  # (position, formula, names[, unit key]), in order
        for pos, f in enumerate(conjuncts):
            if f is not True:
                _place((pos,), f, fvars(f), units, clauses)
        applied = 0  # the log entries every clause has taken
        start = 0
        while True:
            keys = {u[3] for u in units}
            for u in units[start:]:
                self.tick()
                found = u[3] and _definition(u[1][1], keys, products)
                if found:
                    break
            else:
                sub = _composed(self.presolve_log[applied:])
                applied = len(self.presolve_log)
                old, clauses, fresh = clauses, [], []
                for pos, f, names in old:
                    if names.isdisjoint(sub):
                        clauses.append((pos, f, names))
                        continue
                    self.tick()
                    names = _substituted_names(names, sub)
                    for j, g in enumerate(_top(fsubst(f, sub))):
                        if g is False:
                            return [False]
                        if g is not True:
                            _place(pos + (j,), g, names, fresh, clauses)
                if not fresh:
                    return [r[1] for r in sorted(units + clauses)]
                units, start = sorted(units + fresh), 0
                continue
            x, image = found
            self.presolve_log.append(found)
            sub = {x: image}
            old, units, start = units, [], None
            for u in old:
                if x not in u[2]:
                    units.append(u)
                    continue
                self.tick()
                if start is None:
                    # the units before the first changed one were scanned
                    # unchanged; a partner they gain is a changed unit
                    start = len(units)
                g = fsubst(u[1], sub)
                if g is False:
                    return [False]
                if g is not True:
                    _place(u[0], g, _substituted_names(u[2], sub), units, clauses)


def _place(pos, f, names, units, clauses):
    """Append f at pos to clauses when it is a disjunction, else to units
    with its key when it is a gt atom."""
    if isinstance(f, tuple) and f[0] == "or":
        clauses.append((pos, f, names))
    else:
        units.append((pos, f, names, atom_key(f) if isinstance(f, tuple) and f[0] == "gt" else None))


def _substituted_names(names, sub) -> set:
    """A superset of the names left once sub is applied: one cancelled out
    stays listed."""
    out = names - sub.keys()
    for x in names & sub.keys():
        out |= sub[x].keys()
    out.discard(None)
    return out


def _composed(log) -> dict:
    """{name: image} for the (name, image) entries of log, each image over
    the names no entry solves: an entry's image mentions only the names of
    the entries after it, so they are composed from the last."""
    sub = {}
    for x, image in reversed(log):
        sub[x] = psubst(image, sub)
    return sub


def _top(f) -> list:
    """The top-level conjuncts of an NNF formula."""
    return f[1] if isinstance(f, tuple) and f[0] == "and" else [f]


def _definition(p: dict, units: set, products: set):
    """(name, image) solving p - 1 = 0 when the gt unit 2 - p > 0 is among
    units and p has a coefficient +-1 on a name not in products; else None."""
    if atom_key(("gt", padd({None: 2}, pscale(p, -1)))) not in units:
        return None
    q = padd(p, {None: -1})
    name = min((k for k, c in q.items() if k is not None and abs(c) == 1 and k not in products),
               default=None)
    if name is None:
        return None
    return name, pscale({k: v for k, v in q.items() if k != name}, -q[name])


def _union_find(pairs):
    """find() over the equivalence classes that pairs generate.  Unions run in
    the order of pairs, the second root becoming the parent, so each class's
    representative is deterministic."""
    parent: dict = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return find


def _linpoly(e, products: dict | None = None) -> dict:
    """A term of the ground fragment after hoisting and Ackermann reduction
    (Const, Bin + - *, scalar Sel) as a linear poly over variable names.
    Without a product table, non-linear monomials raise Unsupported; with
    one, each is abstracted as a consistent fresh name, keyed by the sorted
    tuple of its names (sound for unsat; sat needs model verification)."""
    poly = _terms(e)
    if not any(k.__class__ is tuple for k in poly):
        return poly
    if products is None:
        raise Unsupported(f"non-linear term: {e!r}")
    out: dict = {}
    for k, c in poly.items():
        if k.__class__ is tuple:
            k = products.setdefault(k, f".prod{len(products)}")
        out[k] = out.get(k, 0) + c
    return {k: v for k, v in out.items() if v}


def _terms(e) -> dict:
    """e as a polynomial: the constant under None, a name, or a sorted tuple
    of two or more names for a non-linear monomial, to nonzero int
    coefficients."""
    kind = e[0]
    if kind is Sel and not e.idx and e.arr[0] is Var:
        return {e.arr.name: 1}
    if kind is Const:
        return {None: e.value} if e.value else {}
    if kind is Bin:
        l, r = _terms(e.left), _terms(e.right)
        if e.op == "+":
            return padd(l, r)
        if e.op == "-":
            return padd(l, r, -1)
        if e.op == "*":
            if len(l) == 1 and None in l:
                return pscale(r, l[None])
            if len(r) == 1 and None in r:
                return pscale(l, r[None])
            out: dict = {}
            for k1, c1 in l.items():
                for k2, c2 in r.items():
                    m = tuple(sorted(_monomial(k1) + _monomial(k2)))
                    k = m[0] if len(m) == 1 else m or None
                    c = out.get(k, 0) + c1 * c2
                    if c:
                        out[k] = c
                    else:
                        out.pop(k, None)
            return out
    raise Unsupported(f"term not supported post-hoisting: {e!r}")


def _monomial(k) -> tuple:
    return () if k is None else (k,) if k.__class__ is str else k


def to_linear(f: Formula, products: dict | None = None):
    """NNF tuple tree over linear atoms."""
    return _nnf(f, False, products)


def _nnf(f: Formula, neg: bool, products: dict | None = None):
    kind = f[0]
    if kind is Rel:
        op = f.op
        if op == "divides":
            d = as_int_const(f.left)
            if d is None:
                raise Unsupported("divisibility by a non-constant")
            return div_atom(d, _linpoly(f.right, products), neg=neg)
        diff = padd(_linpoly(f.left, products), _linpoly(f.right, products), -1)
        if neg:
            op = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}[op]
        if op == "<":
            return gt_atom(pscale(diff, -1))
        if op == "<=":
            return gt_atom(padd({None: 1}, diff, -1))
        if op == ">":
            return gt_atom(diff)
        if op == ">=":
            return gt_atom(padd({None: 1}, diff))
        if op == "=":
            return fand([gt_atom(padd({None: 1}, diff)), gt_atom(padd({None: 1}, diff, -1))])
        if op == "!=":
            return f_or([gt_atom(diff), gt_atom(pscale(diff, -1))])
        raise Unsupported(f"relation {op}")
    if kind is Not:
        return _nnf(f.arg, not neg, products)
    if kind is And or kind is Or:
        parts = [_nnf(a, neg, products) for a in f.args]
        return f_or(parts) if (kind is And) == neg else fand(parts)
    if kind is BoolConst:
        return f.value != neg
    raise Unsupported(f"formula {f!r}")


def check(formulas: list[Formula], declared: dict[Var, int], deadline=None):
    """Returns ("sat", State) or ("unsat", None).  Raises Unsupported or
    SolverTimeout for out-of-fragment or over-budget problems; the deadline
    (a time.monotonic() value) is kept by every stage, not only the search.
    The model is verified against the input conjunction before being
    returned."""
    gp = GroundProblem(declared, deadline)
    hoisted = [gp.hoist_formula(simplify_formula(f)) for f in formulas]
    acked = [gp.ackermannize(f) for f in hoisted + gp.defs]
    acked += gp.array_axioms()
    parts = []
    for f in acked:
        gp.tick()
        parts.append(to_linear(f, gp.products))
    conjuncts = gp.presolve(_top(fand(parts)))
    m = PresburgerSolver(deadline=deadline).find_model(fand(conjuncts))
    if m is None:
        return "unsat", None
    state = rebuild_model(gp, m)
    for f in formulas:
        if not _holds(f, state, gp):
            # typically an abstracted product whose candidate value does not
            # match the true nonlinear term; the verdict degrades to unknown
            raise Unsupported("model verification failed (nonlinear residue)")
    return "sat", state


def _holds(f: Formula, state: State, gp: GroundProblem) -> bool:
    if isinstance(f, Rel) and f.op in ("=", "!=") and arity_of(f.left) > 0:
        fa, fb = state[f.left], state[f.right]
        same = fa.same_function(fb)
        return same if f.op == "=" else not same
    if isinstance(f, Not):
        return not _holds(f.arg, state, gp)
    if isinstance(f, And):
        return all(_holds(a, state, gp) for a in f.args)
    if isinstance(f, Or):
        return any(_holds(a, state, gp) for a in f.args)
    return eval_formula(f, state)


def rebuild_model(gp: GroundProblem, m: dict) -> State:
    # scalar values: solver assignment, then the presolve's solved names in
    # reverse; a name the search never saw reads 0
    values: dict[str, int] = dict(m)
    for x, img in reversed(gp.presolve_log):
        values[x] = pconst(img) + sum(c * values.get(v, 0) for v, c in img.items() if v is not None)

    def eval_lin(e) -> int:
        env = {v: values.get(v.name, 0) for v in free_vars(e) if v.arity == 0}
        return eval_expr(e, State(env))

    # equality classes over array variables
    find = _union_find(pair for pair, bvar in gp.eq_vars.items()
                       if values.get(bvar.name, 0) == 1)

    arrays: dict[Var, dict[tuple[int, ...], int]] = {}
    for arr, table in gp.selects.items():
        for idx, v in table.items():
            point = tuple(eval_lin(i) for i in idx)
            arrays.setdefault(find(arr), {})[point] = values.get(v.name, 0)

    state_map: dict[Var, object] = {}
    class_default: dict[Var, int] = {}
    roots = sorted({find(v) for v in gp.declared if v.arity > 0}, key=lambda v: v.name)
    for k, r in enumerate(roots):
        class_default[r] = k  # distinct defaults keep unequal arrays unequal
    for x, ar in gp.declared.items():
        if ar == 0:
            state_map[x] = values.get(x.name, 0)
        else:
            root = find(x)
            ov = arrays.get(root, {})
            state_map[x] = FiniteFn.const(ar, class_default.get(root, 0), ov)
    # fresh select/eq/presolve variables may be needed when verifying defs
    for name, val in values.items():
        v = Var(name, 0)
        if v not in state_map:
            state_map[v] = val
    return State(state_map)
