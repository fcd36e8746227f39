"""Reduction of ground formulas with ite/div terms and array selects to the
linear fragment of presburger.py, plus model reconstruction back to
scalar/array values.  An equality between arrays is outside the fragment
(Unsupported): lamsolve decides those by lemmas on demand and sends only
their instances p[e] = q[e].

Pipeline per check-sat:
  1. hoist ite terms and floor divisions by constants into fresh variables
     with defining constraints over parts already hoisted (functional, hence
     polarity-independent at the top-level conjunction);
  2. Ackermann reduction: one fresh integer per (array, index vector)
     select; each select's index is kept as linear rows (array_axioms) for
     the congruence of each select pair of one array;
  3. NNF into linear atoms (to_linear), once: one walker reads each term
     (Const, + - *, scalar select) straight into a {name: int} poly, and a
     nonlinear monomial, keyed by its sorted names, becomes a fresh name;
  4. equality presolve on those rows: a pair of gt units p > 0 and 2 - p > 0
     is the equality p = 1; one with a +-1 coefficient is solved for that
     name and the image substituted (presburger.fsubst) into every unit.
     At the units' fixpoint each clause takes the composed substitution
     once, and the units a clause collapses to re-enter the unit loop.  At
     the first fixpoint each select's index takes it once too, and only
     the select pairs whose indices no coordinate then tells apart by a
     nonzero constant get their congruence clause, which goes the way of
     every clause: a pair told apart would be true, and its clause is never
     built;
  5. presburger.find_model case-splits over the disjunctions (ite
     definitions, congruences, disequalities) guided by candidate models, and
     decides each conjunction of atoms it assumes with Cooper's search;
  6. rebuild scalar and array values (an array reads 0 wherever no select
     fixes it) and evaluate each input formula under them.
"""

from __future__ import annotations

import itertools
import time

from ..expr import (
    NEGATED, And, Bin, BoolConst, Const, FiniteFn, Formula, Ite, Lam, Not, Or, Rel,
    Sel, State, Var, arity_of, eval_expr, eval_formula, free_vars, map_children, sv,
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
        self.presolve_log: list[tuple[str, dict]] = []
        # nonlinear monomials abstracted as unconstrained fresh variables:
        # unsat verdicts stay sound, sat models are verified against the
        # original formulas (which evaluate the true products)
        self.products: dict[tuple, str] = {}

    def fresh(self, base: str) -> Var:
        return Var(f".{base}{next(self._fresh)}", 0)

    def tick(self):
        """The stages before the Cooper search do work per conjunct, per
        select and per congruence clause built, and the pairs of selects
        left open can grow quadratically in the selects, so each stage keeps
        the deadline too."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolverTimeout("timeout")

    # -- step 1: term hoisting ------------------------------------------------

    def hoist(self, e):
        if isinstance(e, (Const, BoolConst)):
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
        if isinstance(f, Rel):
            if f.op in ("=", "!=") and (arity_of(f.left) > 0 or arity_of(f.right) > 0):
                raise Unsupported("array equality")
            return map_children(f, self.hoist)
        if isinstance(f, (Not, And, Or, BoolConst)):
            return map_children(f, self.hoist_formula)
        raise Unsupported(f"formula not supported: {f!r}")

    # -- step 2: arrays --------------------------------------------------------

    def select_var(self, arr: Var, idx: tuple) -> Var:
        table = self.selects.setdefault(arr, {})
        if idx not in table:
            table[idx] = self.fresh(f"s_{arr.name}_")
        return table[idx]

    def ackermannize(self, f: Formula) -> Formula:
        self.tick()
        if isinstance(f, Rel):
            return map_children(f, self._ack_term)
        if isinstance(f, (Not, And, Or, BoolConst)):
            return map_children(f, self.ackermannize)
        raise Unsupported(f"formula not supported: {f!r}")

    def _ack_term(self, e):
        if isinstance(e, Sel):
            if e.arr.arity == 0:
                return e
            idx = tuple(self._ack_term(i) for i in e.idx)
            return sv(self.select_var(e.arr, idx))
        if isinstance(e, (Const, BoolConst, Bin)):
            return map_children(e, self._ack_term)
        raise Unsupported(f"term not supported post-hoisting: {e!r}")

    def array_axioms(self) -> list[tuple[list, list]]:
        """Per-array functional congruence, equal indices then equal selects,
        as index rows: for each array with two selects or more, each select's
        index as a tuple of linear rows (_linpoly), and the names of its
        select variables.  presolve turns them into clauses.  Product names
        are taken in the order in which to_linear reads the clauses of the
        pairs in turn: the first pair's indices coordinate by coordinate,
        then each later select's."""
        out = []
        for table in self.selects.values():
            if len(table) < 2:
                continue
            idx = list(table)
            head = [_linpoly(e, self.products) for pair in zip(idx[0], idx[1]) for e in pair]
            rows = [tuple(head[0::2]), tuple(head[1::2])]
            for i in idx[2:]:
                self.tick()
                rows.append(tuple(_linpoly(e, self.products) for e in i))
            out.append((rows, [v.name for v in table.values()]))
        return out

    # -- step 4: equality presolve on the linear rows -------------------------

    def presolve(self, conjuncts: list, arrays=()) -> list:
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

        arrays, from array_axioms, gives the congruence clauses, one
        position per select pair after every conjunct, pairs in order.  Two
        selects with equal index rows are equal: that pair's units join the
        others from the start.  At the units' first fixpoint each select's
        index takes the composed substitution once, and only the pairs that
        no coordinate then tells apart by a nonzero constant get their
        clause (_congruence), which then takes the substitution as every
        clause does.  A pair told apart would be true there; it gets none.

        Solving the units of a collapsed clause only after the other units
        changes the order of the eliminations when that clause precedes a
        unit equality solved meanwhile; the remaining conjuncts are then
        equivalent to those of solving them at once, but may differ in
        which name an equality solves and in their order."""
        products = set(self.products.values())
        units, clauses = [], []  # (position, formula, names[, unit key]), in order
        for pos, f in enumerate(conjuncts):
            if f is False:
                return [False]
            if f is not True:
                _place((pos,), f, fvars(f), units, clauses)
        blocks, base = [], len(conjuncts)
        for rows, sels in arrays:
            row_keys = [tuple(frozenset(p.items()) for p in row) for row in rows]
            blocks.append((base, rows, sels, row_keys))
            equal = _equal_pairs(row_keys)
            for a, b in equal:
                for j, g in enumerate(_top(_congruence(rows[a], sels[a], rows[b], sels[b]))):
                    _place((base + _rank(a, b, len(rows)), j), g, fvars(g), units, clauses)
            if equal:
                units.sort()
            base += len(rows) * (len(rows) - 1) // 2
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
                for base, rows, sels, row_keys in blocks:
                    for a, b in _open_pairs(rows, row_keys, sub):
                        self.tick()
                        # the clause's names and any its indices cancel, a superset
                        # as _substituted_names gives
                        names = {sels[a], sels[b]}.union(*rows[a], *rows[b])
                        names.discard(None)
                        f = _congruence(rows[a], sels[a], rows[b], sels[b])
                        old.append(((base + _rank(a, b, len(rows)),), f, names))
                blocks = ()
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


def _rank(a, b, n) -> int:
    """The place of the pair (a, b), a < b, among the pairs of range(n) in
    the order of itertools.combinations."""
    return a * (2 * n - a - 1) // 2 + b - a - 1


def _equal_pairs(row_keys):
    """The pairs (a, b), a < b, with row_keys[a] == row_keys[b]."""
    groups = {}
    for t, k in enumerate(row_keys):
        groups.setdefault(k, []).append(t)
    return [pair for ts in groups.values() for pair in itertools.combinations(ts, 2)]


def _open_pairs(rows, row_keys, sub) -> list:
    """The pairs (a, b), a < b, of selects whose index rows, with sub
    applied, no coordinate tells apart by a nonzero constant, but for the
    pairs of equal rows (row_keys): they are units already.  The selects are
    grouped by the rows' name parts and, within a group, by their
    constants, so a pair told apart is never visited."""
    groups = {}
    for t, row in enumerate(rows):
        row = [psubst(p, sub) for p in row]
        consts = tuple([p.get(None, 0) for p in row])
        names = tuple([frozenset(p.items() - {(None, c)}) for p, c in zip(row, consts)])
        groups.setdefault(names, {}).setdefault(consts, []).append(t)
    out = []
    groups = list(groups.items())
    for n, (names, buckets) in enumerate(groups):
        for ts in buckets.values():
            out += [(a, b) for a, b in itertools.combinations(ts, 2) if row_keys[a] != row_keys[b]]
        for names2, buckets2 in groups[n + 1:]:
            same = [k for k, (u, w) in enumerate(zip(names, names2)) if u == w]
            for c1, ts1 in buckets.items():
                for c2, ts2 in buckets2.items():
                    if all(c1[k] == c2[k] for k in same):
                        out += [(a, b) if a < b else (b, a) for a in ts1 for b in ts2]
    return out


def _congruence(i1, v1, i2, v2):
    """The clause i1 = i2 -> v1 = v2 over the index rows i1, i2 of two
    selects with variables v1, v2, as to_linear reads it: each coordinate's
    disequality, then the selects' equality."""
    parts = []
    for p, q in zip(i1, i2):
        diff = padd(p, q, -1)
        parts += (gt_atom(diff), gt_atom(pscale(diff, -1)))
    parts.append(("and", [("gt", {None: 1, v1: 1, v2: -1}), ("gt", {None: 1, v1: -1, v2: 1})]))
    return f_or(parts)


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


def _linpoly(e, products: dict) -> dict:
    """A term of the ground fragment after hoisting and Ackermann reduction
    (Const, Bin + - *, scalar Sel) as a linear poly over variable names.
    Each non-linear monomial is abstracted as a consistent fresh name from
    the product table, keyed by the sorted tuple of its names (sound for
    unsat; sat needs model verification)."""
    poly = _terms(e)
    if not any(k.__class__ is tuple for k in poly):
        return poly
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


def to_linear(f: Formula, products: dict):
    """NNF tuple tree over linear atoms."""
    return _nnf(f, False, products)


def _nnf(f: Formula, neg: bool, products: dict):
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
            op = NEGATED[op]
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
    parts = []
    for f in acked:
        gp.tick()
        parts.append(to_linear(f, gp.products))
    conjuncts = gp.presolve(_top(fand(parts)), gp.array_axioms())
    m = PresburgerSolver(deadline=deadline).find_model(fand(conjuncts))
    if m is None:
        return "unsat", None
    state = rebuild_model(gp, m)
    for f in formulas:
        if not eval_formula(f, state):
            # typically an abstracted product whose candidate value does not
            # match the true nonlinear term; the verdict degrades to unknown
            raise Unsupported("model verification failed (nonlinear residue)")
    return "sat", state


def rebuild_model(gp: GroundProblem, m: dict) -> State:
    # scalar values: solver assignment, then the presolve's solved names in
    # reverse; a name the search never saw reads 0
    values: dict[str, int] = dict(m)
    for x, img in reversed(gp.presolve_log):
        values[x] = pconst(img) + sum(c * values.get(v, 0) for v, c in img.items() if v is not None)

    def eval_lin(e) -> int:
        env = {v: values.get(v.name, 0) for v in free_vars(e) if v.arity == 0}
        return eval_expr(e, State(env))

    arrays: dict[Var, dict[tuple[int, ...], int]] = {}
    for arr, table in gp.selects.items():
        for idx, v in table.items():
            point = tuple(eval_lin(i) for i in idx)
            arrays.setdefault(arr, {})[point] = values.get(v.name, 0)

    state_map: dict[Var, object] = {}
    for x, ar in gp.declared.items():
        state_map[x] = FiniteFn.const(ar, 0, arrays.get(x, {})) if ar else values.get(x.name, 0)
    # fresh select/presolve variables may be needed when verifying defs
    for name, val in values.items():
        v = Var(name, 0)
        if v not in state_map:
            state_map[v] = val
    return State(state_map)
