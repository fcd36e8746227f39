"""Decision procedure with model search for quantifier-free linear integer
arithmetic with divisibility, based on Cooper's elimination.

Formulas here are NNF tuple trees over linear atoms:

    True / False
    ("and", [f...]) | ("or", [f...])
    ("gt", poly)          poly > 0
    ("div", d, poly)      d | poly, d >= 2
    ("ndiv", d, poly)     d does not divide poly

A poly is a dict mapping variable names to int coefficients, with the constant
term under the key None.

find_model case-splits over the formula's Boolean skeleton, as DPLL(T) does
(Dutertre & de Moura 2006), guided by candidate models in the manner of
lemmas on demand: a node assumes a conjunction of atoms, propagates it
through the open clauses, decides it with Cooper's search, and splits only a
clause the resulting model violates.  The Cooper search (_search) decides a
conjunction, given as a flat list of atoms.  It walks the candidate
substitutions depth-first instead of materializing the eliminated formula, so
a satisfying assignment falls out of the successful branch; exhausting every
candidate at a level is a proof of unsatisfiability for that subproblem.  The
conjunction is indexed by name (_Conjunction), so that a level reads and
rewrites only the atoms of the name it eliminates, in place, and a
backtrack undoes that.
"""

from __future__ import annotations

import time
from math import gcd


class Unsupported(Exception):
    """Non-linear or otherwise out-of-fragment input."""


class SolverTimeout(Exception):
    pass


# ---------------------------------------------------------------------------
# polynomials


def padd(p, q, sign=1):
    out = dict(p)
    for k, v in q.items():
        nv = out.get(k, 0) + sign * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def pscale(p, k):
    if k == 0:
        return {}
    return {key: v * k for key, v in p.items()}


def pconst(p):
    return p.get(None, 0)


def pvars(p):
    return [k for k in p if k is not None]


def peval(p, m):
    return pconst(p) + sum(c * m[v] for v, c in p.items() if v is not None)


# ---------------------------------------------------------------------------
# formula helpers


def fand(parts):
    out = []
    for f in parts:
        if f is False:
            return False
        if f is True:
            continue
        if isinstance(f, tuple) and f[0] == "and":
            out.extend(f[1])
        else:
            out.append(f)
    if not out:
        return True
    if len(out) == 1:
        return out[0]
    return ("and", out)


def f_or(parts):
    out = []
    for f in parts:
        if f is True:
            return True
        if f is False:
            continue
        if isinstance(f, tuple) and f[0] == "or":
            out.extend(f[1])
        else:
            out.append(f)
    if not out:
        return False
    if len(out) == 1:
        return out[0]
    return ("or", out)


def gt_atom(p):
    """The atom p > 0, its variable coefficients divided by their gcd g and
    the bound rounded up; True or False without variables."""
    g = 0
    for v, c in p.items():
        if v is not None:
            g = gcd(g, c)
            if g == 1:
                return ("gt", p)
    if not g:
        return pconst(p) > 0
    # g*q + c > 0  <=>  g*q >= 1 - c  <=>  q >= ceil((1 - c) / g) = bound
    bound = -((pconst(p) - 1) // g)
    q = {v: c // g for v, c in p.items() if v is not None}
    if bound != 1:
        q[None] = 1 - bound  # q - bound + 1 > 0
    return ("gt", q)


def div_atom(d, p, neg=False):
    d = abs(d)
    if d == 0:
        # 0 | p  <=>  p = 0
        eq = fand([gt_atom(padd({None: 1}, p)), gt_atom(padd({None: 1}, pscale(p, -1)))])
        return fnot(eq) if neg else eq
    p = {k: v % d for k, v in p.items()}
    p = {k: v for k, v in p.items() if v}
    if d == 1 or not pvars(p):
        ok = pconst(p) % d == 0
        return (not ok) if neg else ok
    return ("ndiv" if neg else "div", d, p)


def fnot(f):
    if f is True:
        return False
    if f is False:
        return True
    tag = f[0]
    if tag == "and":
        return f_or([fnot(x) for x in f[1]])
    if tag == "or":
        return fand([fnot(x) for x in f[1]])
    if tag == "gt":
        # not(p > 0)  <=>  -p >= 0  <=>  -p + 1 > 0
        return gt_atom(padd({None: 1}, pscale(f[1], -1)))
    if tag == "div":
        return div_atom(f[1], f[2], neg=True)
    if tag == "ndiv":
        return div_atom(f[1], f[2])
    raise TypeError(f"bad formula {f!r}")


def feval(f, m) -> bool:
    if f is True or f is False:
        return f
    tag = f[0]
    if tag == "and":
        return all(feval(x, m) for x in f[1])
    if tag == "or":
        return any(feval(x, m) for x in f[1])
    if tag == "gt":
        return peval(f[1], m) > 0
    if tag == "div":
        return peval(f[2], m) % f[1] == 0
    if tag == "ndiv":
        return peval(f[2], m) % f[1] != 0
    raise TypeError(f"bad formula {f!r}")


def fvars(f, out=None):
    if out is None:
        out = set()
    if f is True or f is False:
        return out
    tag = f[0]
    if tag in ("and", "or"):
        for x in f[1]:
            fvars(x, out)
    else:
        out.update(pvars(_poly(f)))
    return out


def _poly(a):
    return a[1] if a[0] == "gt" else a[2]


def map_atoms(f, fn):
    """f with every atom a replaced by fn(a), the connectives rebuilt through
    fand / f_or; f itself when fn returned every atom unchanged.  An or
    stops at its first part that turns True, an and at its first that turns
    False."""
    if f is True or f is False:
        return f
    tag = f[0]
    if tag not in ("and", "or"):
        return fn(f)
    absorbing = tag == "or"
    parts, changed = [], False
    for g in f[1]:
        p = map_atoms(g, fn)
        if p is absorbing:
            return p
        parts.append(p)
        changed = changed or p is not g
    if not changed:
        return f
    return fand(parts) if tag == "and" else f_or(parts)


def _subst_atom(a, x, image, per=1):
    """Atom a with x := image / per, where per divides x's coefficient."""
    p = _poly(a)
    c = p.get(x)
    if c is None:
        return a
    q = padd({k: v for k, v in p.items() if k != x}, pscale(image, c // per))
    return gt_atom(q) if a[0] == "gt" else div_atom(a[1], q, neg=a[0] == "ndiv")


def psubst(p, sub):
    """The poly p with each name x in sub replaced by the poly sub[x]; p
    itself when it mentions none of them."""
    q = None
    for x, c in p.items():
        if x in sub:
            if q is None:
                q = {k: v for k, v in p.items() if k not in sub}
            for k, v in sub[x].items():
                v = q.get(k, 0) + c * v
                if v:
                    q[k] = v
                else:
                    q.pop(k, None)
    return p if q is None else q


def fsubst(f, sub):
    """f with each name x in sub replaced by the poly sub[x], the images
    mentioning no name of sub; f itself when none occurs.  A gt atom is
    normalised once, after all of its names are replaced: dividing by the
    coefficients' gcd with the bound rounded up composes, so this is the
    atom that replacing the names one at a time gives."""
    def atom(a):
        p = _poly(a)
        q = psubst(p, sub)
        if q is p:
            return a
        return gt_atom(q) if a[0] == "gt" else div_atom(a[1], q, neg=a[0] == "ndiv")
    return map_atoms(f, atom)


def _lcm(a, b):
    return a * b // gcd(a, b)


class PresburgerSolver:
    """find_model returns a dict name->int satisfying the formula, or None if
    unsatisfiable.  Complete for the linear fragment; raises Unsupported or
    SolverTimeout otherwise."""

    def __init__(self, deadline: float | None = None, branch_limit: int = 2_000_000):
        self.deadline = deadline
        self.budget = branch_limit

    def _tick(self):
        self.budget -= 1
        if self.budget <= 0:
            raise SolverTimeout("branch budget exhausted")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolverTimeout("timeout")

    def find_model(self, f) -> dict | None:
        """Case split over f's Boolean skeleton; _search decides only
        conjunctions of atoms.  A node assumes its units and keeps the
        clauses (disjunctions) still open.  Unit propagation drops the
        clauses the units settle true, cuts the disjuncts they settle false
        and turns a clause left with one disjunct into units.  The units'
        model (the parent's when it still fits) then satisfies every clause,
        or the node branches on the smallest violated clause, trying first
        the disjuncts with the fewest atoms false under that model; a branch
        tried later assumes the negation of each atom disjunct that failed
        before it.  Every node ticks the budget."""
        if f is False:
            return None
        names = sorted(fvars(f))
        units, clauses = [], []
        _split(f, units, clauses)
        stack = [(units, clauses, None)]  # depth-first, next node last
        while stack:
            self._tick()
            units, clauses, model = stack.pop()
            units, clauses = _propagate(units, clauses)
            if units is None:
                continue
            if model is None or not all(feval(u, model) for u in units):
                model = self._search(units, names)
                if model is None:
                    continue
            violated = [c for c in clauses if not any(feval(d, model) for d in c)]
            if not violated:
                return model
            clause = min(violated, key=len)
            rest = [c for c in clauses if c is not clause]
            branches, failed = [], []
            for d in sorted(clause, key=lambda d: _false_atoms(d, model)):
                sub_units, sub_clauses = units + failed, list(rest)
                _split(d, sub_units, sub_clauses)
                branches.append((sub_units, sub_clauses, model))
                if d[0] != "and":
                    failed.append(fnot(d))
            stack += reversed(branches)
        return None

    def _search(self, atoms, xs) -> dict | None:
        """A model over the names xs of the conjunction of atoms, whose names
        all lie in xs, or None.  Cooper's elimination, depth-first over the
        conjunction indexed by name (_Conjunction): x is the name in the
        fewest atoms, unit coefficients first, and its atoms are scaled to
        coefficients +-lam, read as xh = lam*x.  Each lower bound b < xh
        gives the candidates xh = b + j for j = 1..delta.  Without a lower
        bound xh may lie below every upper bound, which then all hold, and
        only the other atoms constrain xh = j modulo delta.  A candidate
        replaces x's atoms only, in place, and is undone before the next.
        A level's model satisfies its atoms by construction, so the model
        is checked against them once, here; a failure is a bug in the
        search."""
        m = self._eliminate(_Conjunction(atoms), xs)
        if m is not None and not all(feval(a, m) for a in atoms):
            raise AssertionError(f"Cooper's model {m} fails its atoms")
        return m

    def _eliminate(self, conj, xs) -> dict | None:
        self._tick()
        if not conj.keys:
            return dict.fromkeys(xs, 0)
        x = min(conj.keys.values())[2]
        lam = 1
        for c in conj.occ[x].values():
            lam = _lcm(lam, c)
        delta = lam
        scaled, lower, upper = [], [], []  # scaled: x's atoms by slot, in order
        for slot in sorted(conj.occ[x]):
            a = conj.slots[slot]
            c = _poly(a)[x]
            if a[0] != "gt":
                k = lam // abs(c)
                a = (a[0], a[1] * k, pscale(a[2], k))
                delta = _lcm(delta, a[1])
            else:
                a = ("gt", pscale(a[1], lam // abs(c)))
                t = {v: w for v, w in a[1].items() if v != x}
                if c < 0:
                    upper.append(t)  # xh < t
                elif (b := pscale(t, -1)) not in lower:
                    lower.append(b)  # b < xh
            scaled.append((slot, a))
        if lower:
            cands = ((padd(b, {None: j}), j) for j in range(1, delta + 1) for b in lower)
        else:
            # the upper bounds all hold below them: their atoms go
            scaled = [(slot, None if a[0] == "gt" else a) for slot, a in scaled]
            cands = (({None: j}, j) for j in range(1, delta + 1))
        for cand, j in cands:
            self._tick()
            mark = len(conj.trail)
            m = self._eliminate(conj, xs) if conj.substitute(scaled, x, cand, lam) else None
            if m is not None:
                if lower:
                    xh = peval(cand, m)
                else:  # strictly below every upper bound, congruent to j
                    top = min(peval(t, m) for t in upper) - 1 if upper else j
                    xh = top - (top - j) % delta
                if xh % lam == 0:
                    m[x] = xh // lam
                    return m
            conj.undo(mark)
        return None


class _Conjunction:
    """A conjunction of atoms for Cooper's search, indexed by name.  slots
    holds the atoms in list order, None where one was dropped; occ maps
    each name to its slots, in no order, with the magnitude of its
    coefficient in each, and nonunit to how many of those are not 1; keys
    maps it to the choice key (lam != 1, count, name).  put changes a slot
    and logs the old atom on trail, and undo takes the changes back to a
    mark."""

    def __init__(self, atoms):
        self.slots, self.occ, self.nonunit, self.keys = [], {}, {}, {}
        for a in atoms:
            self.slots.append(a)
            self._link(len(self.slots) - 1, a)
        self.trail = []

    def substitute(self, scaled, x, cand, lam) -> bool:
        """x's atoms, each (slot, atom scaled to +-lam) or (slot, None) to drop
        it, with xh := cand (xh = lam*x), and lam | cand after the last slot,
        dropping the atoms that became true; False when one became false."""
        for slot, a in scaled:
            if a is not None:
                a = _subst_atom(a, x, cand, lam)
                if a is False:
                    return False
            self.put(slot, None if a is True else a)
        a = div_atom(lam, cand)
        if a is not True:
            if a is False:
                return False
            self.put(len(self.slots), a)
        return True

    def put(self, slot, a):
        """slot holds atom a, or nothing when a is None, from now on; a slot
        one past the last is appended."""
        if slot == len(self.slots):
            self.slots.append(None)
        old = self.slots[slot]
        self.trail.append((slot, old))
        if old is not None:
            self._unlink(slot, old)
        self.slots[slot] = a
        if a is not None:
            self._link(slot, a)

    def undo(self, mark):
        """Take back the changes logged on trail after mark, last first; a
        slot that held nothing was appended, and goes."""
        while len(self.trail) > mark:
            slot, old = self.trail.pop()
            a = self.slots[slot]
            if a is not None:
                self._unlink(slot, a)
            if old is None:
                self.slots.pop()
            else:
                self.slots[slot] = old
                self._link(slot, old)

    def _link(self, slot, a):
        for v, c in _poly(a).items():
            if v is not None:
                occ = self.occ.setdefault(v, {})
                occ[slot] = c = abs(c)
                n = self.nonunit[v] = self.nonunit.get(v, 0) + (c != 1)
                self.keys[v] = (n > 0, len(occ), v)

    def _unlink(self, slot, a):
        for v in _poly(a):
            if v is not None:
                occ = self.occ[v]
                n = self.nonunit[v] - (occ.pop(slot) != 1)
                if occ:
                    self.nonunit[v] = n
                    self.keys[v] = (n > 0, len(occ), v)
                else:
                    del self.occ[v], self.nonunit[v], self.keys[v]


def atom_key(a):
    """Structural identity of an atom (polys are dicts, so not hashable)."""
    if a[0] == "gt":
        return ("gt", frozenset(a[1].items()))
    return (a[0], a[1], frozenset(a[2].items()))


def _split(f, units, clauses):
    """Append f's top-level atoms to units and its disjunctions, each as the
    list of its disjuncts, to clauses."""
    if f is True:
        return
    if f[0] == "and":
        for g in f[1]:
            _split(g, units, clauses)
    elif f[0] == "or":
        clauses.append(f[1])
    else:
        units.append(f)


def _conjuncts(d):
    return d[1] if d[0] == "and" else [d]


class _Facts:
    """What a node's units settle about other atoms: each unit holds, its
    negation fails, and bounds propagated through the gt units settle every
    gt atom whose range over the bounds lies on one side of 0."""

    # Bounds can creep without end along a cycle of inequalities, so the
    # rounds are capped.  A second round cuts the nodes of the benchmark's
    # corpus (seed 1) from 1,230 to 219; with a cap of 8, corpus and Hoare-K
    # took at most 5 rounds, and the rounds after the second pruned no node.
    ROUNDS = 2

    def __init__(self):
        self.keys, self.negs, self.lo, self.hi = set(), set(), {}, {}
        self.polys: list[dict] = []

    def add(self, units) -> bool:
        """Assume units; False when they contradict what is known."""
        for u in units:
            if self.value(u) is False:
                return False
            self.keys.add(atom_key(u))
            self.negs.add(atom_key(fnot(u)))
            if u[0] == "gt":
                self.polys.append(u[1])
        return self._tighten()

    def _tighten(self) -> bool:
        lo, hi = self.lo, self.hi
        for _ in range(self.ROUNDS):
            changed = False
            for p in self.polys:
                # sum c*x >= 1 - k: each x's share is bounded by the others' maxima
                top, open_ = 1 - p.get(None, 0), []
                for x, c in p.items():
                    if x is None:
                        continue
                    b = hi.get(x) if c > 0 else lo.get(x)
                    if b is None:
                        open_.append(x)
                    else:
                        top -= c * b
                if len(open_) > 1:
                    continue
                for x, c in p.items():
                    if x is None or (open_ and x != open_[0]):
                        continue
                    need = top if open_ else top + c * (hi[x] if c > 0 else lo[x])
                    if c > 0:
                        b = -(-need // c)
                        if lo.get(x, b - 1) < b:
                            lo[x], changed = b, True
                    else:
                        b = need // c
                        if hi.get(x, b + 1) > b:
                            hi[x], changed = b, True
                    if x in lo and x in hi and lo[x] > hi[x]:
                        return False
            if not changed:
                break
        return True

    def value(self, a):
        """True or False when the units settle atom a, else None."""
        if a[0] == "or":
            return None
        k = atom_key(a)
        if k in self.keys:
            return True
        if k in self.negs:
            return False
        if a[0] != "gt":
            return None
        least = most = a[1].get(None, 0)
        for x, c in a[1].items():
            if x is None:
                continue
            l, h = self.lo.get(x), self.hi.get(x)
            if c < 0:
                l, h = h, l
            least = None if least is None or l is None else least + c * l
            most = None if most is None or h is None else most + c * h
        if least is not None and least > 0:
            return True
        if most is not None and most <= 0:
            return False
        return None


def _propagate(units, clauses):
    """Unit propagation to a fixpoint: (units, open clauses), or (None, None)
    when the units contradict each other or a clause loses every disjunct."""
    facts = _Facts()
    if not facts.add(units):
        return None, None
    units = list(units)
    todo, live = list(clauses), []
    while todo:
        clause = todo.pop()
        ds = []
        for d in clause:
            vals = [facts.value(c) for c in _conjuncts(d)]
            if all(vals):
                break  # satisfied
            if False not in vals:
                ds.append(d)
                kept = vals
        else:
            if not ds:
                return None, None
            if len(ds) > 1:
                live.append(ds)
                continue
            new = []  # the one disjunct's unsettled atoms; its clauses go to todo
            for c, v in zip(_conjuncts(ds[0]), kept):
                if v is None:
                    _split(c, new, todo)
            if not facts.add(new):
                return None, None
            units += new
            # the new units may settle clauses already kept
            todo += live
            live = []
    return units, live


def _false_atoms(d, m):
    return sum(not feval(c, m) for c in _conjuncts(d))
