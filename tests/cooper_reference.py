"""Reference Cooper searches for differential tests of
loopacc.solver.presburger.  TreeCooper is the whole-formula search over NNF
trees with "and" and "or" nodes, as the solver ran it before its _search
took flat lists of atoms: call its _search directly (find_model hands
_search lists and is not meant to run there).  ListCooper is the search over
a flat list of atoms that counts every atom's names and substitutes into
every atom at each level, as the solver ran it before it kept the
conjunction indexed by name; its find_model is the solver's.  Both tick the
budget and deadline of the solver they extend."""

from __future__ import annotations

from itertools import chain

from loopacc.solver.presburger import (
    PresburgerSolver, _lcm, _poly, _subst_atom, div_atom, fand, feval, fvars, map_atoms,
    padd, peval, pscale,
)


class ListCooper(PresburgerSolver):
    """Cooper's elimination over a flat list of atoms, rebuilt per level."""

    def _search(self, atoms, xs) -> dict | None:
        m = self._cooper(atoms, xs)
        if m is not None and not all(feval(a, m) for a in atoms):
            raise AssertionError(f"Cooper's model {m} fails its atoms")
        return m

    def _cooper(self, atoms, xs) -> dict | None:
        self._tick()
        counts, lams = {}, {}
        for a in atoms:
            for v, c in _poly(a).items():
                if v is not None:
                    counts[v] = counts.get(v, 0) + 1
                    lams[v] = _lcm(lams.get(v, 1), abs(c))
        if not counts:
            return dict.fromkeys(xs, 0)
        x = min(counts, key=lambda v: (lams[v] != 1, counts[v], v))
        lam = delta = lams[x]
        scaled, others, lower, upper = [], [], [], []  # others: all but x's gt atoms
        for a in atoms:
            c = _poly(a).get(x)
            if c is None:
                others.append(a)
            elif a[0] != "gt":
                k = lam // abs(c)
                a = (a[0], a[1] * k, pscale(a[2], k))
                delta = _lcm(delta, a[1])
                others.append(a)
            else:
                a = ("gt", pscale(a[1], lam // abs(c)))
                t = {v: w for v, w in a[1].items() if v != x}
                if c < 0:
                    upper.append(t)  # xh < t
                elif (b := pscale(t, -1)) not in lower:
                    lower.append(b)  # b < xh
            scaled.append(a)
        rest = [y for y in xs if y != x]
        if lower:
            cands = ((padd(b, {None: j}), j) for j in range(1, delta + 1) for b in lower)
        else:
            cands = (({None: j}, j) for j in range(1, delta + 1))
        for cand, j in cands:
            self._tick()
            sub = _substituted(scaled if lower else others, x, cand, lam)
            m = None if sub is None else self._cooper(sub, rest)
            if m is None:
                continue
            if lower:
                xh = peval(cand, m)
            else:  # strictly below every upper bound, congruent to j
                top = min(peval(t, m) for t in upper) - 1 if upper else j
                xh = top - (top - j) % delta
            if xh % lam == 0:
                m[x] = xh // lam
                return m
        return None


def _substituted(atoms, x, cand, lam):
    """atoms, scaled to x-coefficients +-lam, with xh := cand (xh = lam*x) and
    lam | cand added, dropping the atoms that became true; None when one
    became false."""
    out = []
    for a in chain((_subst_atom(a, x, cand, lam) for a in atoms), [div_atom(lam, cand)]):
        if a is False:
            return None
        if a is not True:
            out.append(a)
    return out


class TreeCooper(PresburgerSolver):
    """Cooper's elimination decided depth-first over any NNF formula."""

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
