"""Reduction of ground formulas with ite/div terms, array selects and array
equalities to the linear fragment of presburger.py, plus model reconstruction
back to scalar/array values.

Pipeline per check-sat:
  1. hoist ite / div / mod terms into fresh variables with defining constraints
     (functional, hence polarity-independent at the top-level conjunction);
  2. Ackermann reduction: one fresh integer per (array, index vector) select,
     congruence implications per select pair; array equalities become 0/1
     variables with congruence across arrays and transitivity;
  3. NNF into linear atoms over integer polys (to_linear), once;
  4. equality presolve on those rows: a pair of gt units p > 0 and 2 - p > 0
     is the equality p = 1; one with a +-1 coefficient is solved for that
     name and the image substituted (presburger.fsubst) into every conjunct;
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
from ..simplify import as_int_const, linearize, simplify_formula
from .presburger import (
    PresburgerSolver, SolverTimeout, Unsupported, atom_key, div_atom, fand, f_or, fsubst,
    fvars, gt_atom, padd, pconst, pscale,
)


class GroundProblem:
    def __init__(self, formulas: list[Formula], declared: dict[Var, int], deadline=None):
        self.inputs = list(formulas)
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
            # floor division: v with  l = r*v + rem, rem between 0 and r (excl.),
            # sign of rem following r
            key = ("div", l, r)
            if key in self.term_map:
                return sv(self.term_map[key])
            d = as_int_const(r)
            if d is None or d == 0:
                raise Unsupported("division by a non-constant or zero")
            # SMT-LIB euclidean division: remainder in [0, |d|)
            v = self.fresh("q")
            rem = self.fresh("r")
            self.term_map[key] = v
            self.defs.append(Rel("=", l, Bin("+", Bin("*", Const(d), sv(v)), sv(rem))))
            self.defs.append(Rel(">=", sv(rem), Const(0)))
            self.defs.append(Rel("<=", sv(rem), Const(abs(d) - 1)))
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
                if a.arity == b.arity:
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
        NNF, to a fixpoint.  The first equality found, a pair of gt units
        p > 0 and 2 - p > 0 (that is, p - 1 = 0) with coefficient +-1 on a
        name other than an abstracted product, is solved for its least such
        name; the image replaces the name in every conjunct mentioning it,
        and (name, image) is logged for rebuild_model.  Returns the remaining
        conjuncts, or [False] once one of them is false."""
        products = set(self.products.values())
        rows = [_row(f, fvars(f)) for f in conjuncts if f is not True]  # (f, names, unit key)
        start = 0
        while True:
            units = {k for _, _, k in rows}
            for f, _, k in rows[start:]:
                self.tick()
                found = k and _definition(f[1], units, products)
                if found:
                    break
            else:
                return [f for f, _, _ in rows]
            x, image = found
            self.presolve_log.append(found)
            old, rows, start = rows, [], None
            for row in old:
                if x not in row[1]:
                    rows.append(row)
                    continue
                self.tick()
                if start is None:
                    # the rows before the first changed one were scanned
                    # unchanged; a partner they gain is a changed row
                    start = len(rows)
                # a superset of the names: one cancelled out stays listed
                names = row[1] - {x} | image.keys() - {None}
                for g in _top(fsubst(row[0], x, image)):
                    if g is False:
                        return [False]
                    if g is not True:
                        rows.append(_row(g, names))


def _top(f) -> list:
    """The top-level conjuncts of an NNF formula."""
    return f[1] if isinstance(f, tuple) and f[0] == "and" else [f]


def _row(f, names):
    return f, names, atom_key(f) if isinstance(f, tuple) and f[0] == "gt" else None


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
    """expr -> linear poly over variable names.  Without a product table,
    non-linear monomials raise Unsupported; with one, they are abstracted as
    consistent fresh names (sound for unsat; sat needs model verification)."""
    poly = linearize(e)
    out: dict = {}
    for mono, c in poly.items():
        if mono == ():
            out[None] = out.get(None, 0) + c
            continue
        name = None
        if len(mono) == 1:
            _, atom = mono[0]
            if isinstance(atom, Sel) and isinstance(atom.arr, Var) and atom.arr.arity == 0:
                name = atom.arr.name
        if name is None:
            if products is None:
                raise Unsupported(f"non-linear term: {mono!r}")
            key = tuple(k for k, _ in mono)
            if key not in products:
                products[key] = f".prod{len(products)}"
            name = products[key]
        out[name] = out.get(name, 0) + c
    return {k: v for k, v in out.items() if v}


def to_linear(f: Formula, products: dict | None = None):
    """NNF tuple tree over linear atoms."""
    return _nnf(f, False, products)


def _nnf(f: Formula, neg: bool, products: dict | None = None):
    if isinstance(f, BoolConst):
        return f.value != neg
    if isinstance(f, Not):
        return _nnf(f.arg, not neg, products)
    if isinstance(f, And):
        parts = [_nnf(a, neg, products) for a in f.args]
        return f_or(parts) if neg else fand(parts)
    if isinstance(f, Or):
        parts = [_nnf(a, neg, products) for a in f.args]
        return fand(parts) if neg else f_or(parts)
    if isinstance(f, Rel):
        op = f.op
        if op == "divides":
            d = as_int_const(f.left)
            if d is None:
                raise Unsupported("divisibility by a non-constant")
            return div_atom(d, _linpoly(f.right, products), neg=neg)
        l = _linpoly(f.left, products)
        r = _linpoly(f.right, products)
        diff = padd(l, pscale(r, -1))
        if neg:
            op = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}[op]
        if op == "<":
            return gt_atom(pscale(diff, -1))
        if op == "<=":
            return gt_atom(padd({None: 1}, pscale(diff, -1)))
        if op == ">":
            return gt_atom(diff)
        if op == ">=":
            return gt_atom(padd({None: 1}, diff))
        if op == "=":
            return fand([gt_atom(padd({None: 1}, diff)), gt_atom(padd({None: 1}, pscale(diff, -1)))])
        if op == "!=":
            return f_or([gt_atom(diff), gt_atom(pscale(diff, -1))])
        raise Unsupported(f"relation {op}")
    raise Unsupported(f"formula {f!r}")


def check(formulas: list[Formula], declared: dict[Var, int], deadline=None):
    """Returns ("sat", State) or ("unsat", None).  Raises Unsupported or
    SolverTimeout for out-of-fragment or over-budget problems; the deadline
    (a time.monotonic() value) is kept by every stage, not only the search.
    The model is verified against the input conjunction before being
    returned."""
    gp = GroundProblem(formulas, declared, deadline)
    hoisted = [gp.hoist_formula(simplify_formula(f)) for f in formulas]
    acked = [gp.ackermannize(f) for f in hoisted]
    acked += [gp.ackermannize(gp.hoist_formula(d)) for d in gp.defs]
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
