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
clause the resulting model violates.  The Cooper search (_search) walks the
candidate substitutions depth-first instead of materializing the eliminated
formula, so a satisfying assignment falls out of the successful branch;
exhausting every candidate at a level is a proof of unsatisfiability for that
subproblem.  It decides any NNF formula; find_model hands it conjunctions.
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
    vs = pvars(p)
    if not vs:
        return pconst(p) > 0
    g = 0
    for v in vs:
        g = gcd(g, abs(p[v]))
    if g > 1:
        # g*q + c > 0  <=>  q >= ceil((1-c)/g)  <=>  g'*q - ... keep exact: q > floor((-c)/g) ... tighten
        c = pconst(p)
        q = {v: p[v] // g for v in vs}
        # g*q > -c  <=>  q >= floor(-c/g) + 1 = -((c)//g)... use: q > (-c - 1) // g ... careful:
        # g*q >= -c + 1  <=>  q >= ceil((1 - c) / g)
        bound = -((c - 1) // g)  # ceil((1-c)/g)
        q[None] = -bound + 1  # q - bound + 1 > 0  <=>  q >= bound
        if not q[None]:
            del q[None]
        return ("gt", q)
    return ("gt", p)


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
    fand / f_or; f itself when fn returned every atom unchanged."""
    if f is True or f is False:
        return f
    tag = f[0]
    if tag not in ("and", "or"):
        return fn(f)
    parts = [map_atoms(g, fn) for g in f[1]]
    if all(p is g for p, g in zip(parts, f[1])):
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


def fsubst(f, x, image):
    """f with the poly image (not mentioning x) substituted for the name x;
    f itself when x does not occur."""
    return map_atoms(f, lambda a: _subst_atom(a, x, image))


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
        zero = dict.fromkeys(sorted(fvars(f)), 0)
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
                conj = fand(units)
                m = self._search(conj, sorted(fvars(conj)))
                if m is None:
                    continue
                model = {**zero, **m}
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

    def _pick(self, f, xs):
        # fewest atom occurrences first, then smallest coefficient lcm
        counts = {x: 0 for x in xs}
        lams = {x: 1 for x in xs}

        def walk(g):
            if g is True or g is False:
                return
            tag = g[0]
            if tag in ("and", "or"):
                for h in g[1]:
                    walk(h)
                return
            for v, c in _poly(g).items():
                if v in counts:
                    counts[v] += 1
                    lams[v] = _lcm(lams[v], abs(c))

        walk(f)
        return min(xs, key=lambda x: (lams[x] != 1, counts[x], x))

    def _search(self, f, xs) -> dict | None:
        self._tick()
        if f is False:
            return None
        if not xs:
            return {} if f is True or feval(f, {}) else None
        if f is True:
            return {x: 0 for x in xs}
        x = self._pick(f, xs)
        rest = [y for y in xs if y != x]
        if x not in fvars(f):
            m = self._search(f, rest)
            return None if m is None else {**m, x: 0}

        lam = 1
        for a in _collect_atoms(f, x):
            lam = _lcm(lam, abs(_poly(a)[x]))

        # scale every atom so x's coefficient is +-lam, then read it as xh=lam*x
        def scaled(a):
            p = _poly(a)
            if x not in p:
                return a
            k = lam // abs(p[x])
            return ("gt", pscale(p, k)) if a[0] == "gt" else (a[0], a[1] * k, pscale(p, k))

        fs = map_atoms(f, scaled)
        delta = lam
        for a in _collect_atoms(fs, x):
            if a[0] in ("div", "ndiv"):
                delta = _lcm(delta, a[1])

        lower_terms = []  # xh > -t  for atoms  s*xh + t > 0 with s=+1  (b = -t)
        for a in _collect_atoms(fs, x):
            if a[0] == "gt":
                p = a[1]
                if p[x] > 0:
                    b = pscale({k: v for k, v in p.items() if k != x}, -1)
                    if b not in lower_terms:
                        lower_terms.append(b)

        # candidates: b + j for each lower bound, plus the minus-infinity case
        for j in range(1, delta + 1):
            for b in lower_terms:
                self._tick()
                cand = padd(b, {None: j})
                # fs[xh := cand] where xh has coefficient +-lam: for an atom with
                # s*xh we add s*cand; but xh = lam*x so x = cand/lam must divide.
                g = _subst_xhat(fs, x, cand, lam)
                m = self._search(g, rest)
                if m is not None:
                    xh = peval(cand, m)
                    if xh % lam == 0:
                        m2 = {**m, x: xh // lam}
                        if feval(f, m2):
                            return m2
        # minus infinity: lower-bound atoms false, upper-bound atoms true
        fminf = _minus_inf(fs, x)
        for j in range(1, delta + 1):
            self._tick()
            g = _subst_xhat(fminf, x, {None: j}, lam)
            m = self._search(g, rest)
            if m is not None:
                # concrete xh: strictly below every bound term, congruent to j
                bounds = [peval(b, m) for b in _bound_terms(fs, x)]
                top = (min(bounds) - 1) if bounds else j
                xh = top - ((top - j) % delta)
                if xh % lam == 0:
                    m2 = {**m, x: xh // lam}
                    if feval(f, m2):
                        return m2
        return None


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
    if f is False:
        units.append(False)
    elif f[0] == "and":
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
            if u is False or self.value(u) is False:
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
        else:
            if not ds:
                return None, None
            if len(ds) > 1:
                live.append(ds)
                continue
            new = []
            _split(ds[0], new, todo)
            vals = [facts.value(u) for u in new]
            if False in vals:
                return None, None
            new = [u for u, v in zip(new, vals) if v is None]
            if not facts.add(new):
                return None, None
            units += new
            # the new units may settle clauses already kept
            todo += live
            live = []
    return units, live


def _false_atoms(d, m):
    return sum(not feval(c, m) for c in _conjuncts(d))


def _collect_atoms(f, x):
    """The atoms of f that mention x."""
    if f is True or f is False:
        return []
    if f[0] in ("and", "or"):
        return [a for g in f[1] for a in _collect_atoms(g, x)]
    return [f] if x in _poly(f) else []


def _subst_xhat(f, x, cand, lam):
    """Substitute xh := cand into atoms scaled to coefficient +-lam (xh = lam*x),
    conjoining the lam | xh constraint."""
    body = map_atoms(f, lambda a: _subst_atom(a, x, cand, lam))
    return body if lam == 1 else fand([body, div_atom(lam, cand)])


def _minus_inf(f, x):
    return map_atoms(f, lambda a: a if a[0] != "gt" or x not in a[1] else a[1][x] < 0)


def _bound_terms(f, x):
    """Terms whose values xh must stay strictly below in the minus-infinity
    case: -t for lower bounds xh + t > 0, t for upper bounds -xh + t > 0."""
    out = []
    for a in _collect_atoms(f, x):
        if a[0] == "gt":
            p = a[1]
            t = {k: v for k, v in p.items() if k != x}
            out.append(pscale(t, -1 if p[x] > 0 else 1))
    return out
