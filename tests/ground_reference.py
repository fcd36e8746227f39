"""The ground solver's earlier front end, kept as a test reference:
linearisation through simplify.linearize, which keys every atom of a
monomial by its printed text, and the presolve that substitutes each solved
name into every conjunct mentioning it, clauses included, one name at a
time, over presburger's current atom operations.  ground.to_linear must give
the same formulas and product names; GroundProblem.presolve, which solves
the units a clause collapses to only after the other units, the same rows
on the inputs the tests draw."""

from loopacc.expr import And, BoolConst, Not, Or, Rel, Sel, Var
from loopacc.simplify import as_int_const, linearize
from loopacc.solver import ground
from loopacc.solver.presburger import (
    Unsupported, atom_key, div_atom, f_or, fand, fsubst, fvars, gt_atom, padd, pscale,
)


def linpoly(e, products: dict) -> dict:
    """expr -> linear poly over variable names.  Non-linear monomials are
    abstracted as consistent fresh names from the product table (sound for
    unsat; sat needs model verification)."""
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
            key = tuple(k for k, _ in mono)
            if key not in products:
                products[key] = f".prod{len(products)}"
            name = products[key]
        out[name] = out.get(name, 0) + c
    return {k: v for k, v in out.items() if v}


def to_linear(f, products: dict):
    """NNF tuple tree over linear atoms."""
    return _nnf(f, False, products)


def _nnf(f, neg: bool, products: dict):
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
            return div_atom(d, linpoly(f.right, products), neg=neg)
        l = linpoly(f.left, products)
        r = linpoly(f.right, products)
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


class GroundProblem(ground.GroundProblem):
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
                found = k and ground._definition(f[1], units, products)
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
                for g in ground._top(fsubst(row[0], {x: image})):
                    if g is False:
                        return [False]
                    if g is not True:
                        rows.append(_row(g, names))


def _row(f, names):
    return f, names, atom_key(f) if isinstance(f, tuple) and f[0] == "gt" else None
