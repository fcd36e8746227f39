"""Randomized a-solvable loops, correct by construction: scalars split into
affine drivers (s <- s + c) and polynomial followers (s <- s + c + driver);
array writes use one coefficient row over drivers per array with distinct
constant offsets (so (Distinct) holds syntactically and displacements are
constant); right-hand sides read either inductive partner cells / trivial
cells (condition a) or strictly-ahead displacing cells (condition b)."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .expr import Bin, Const, Expr, Rel, Sel, Var, sv
from .loop import Loop


SCALARS = (1, 3)  # least and most scalars per loop
MAX_DIM = 2
MAX_WRITES_PER_ARRAY = 2
OFFSET_RANGE = 3  # write offsets in dimension 0 lie in [-3, 3]
COEFF_RANGE = 2  # index coefficients over drivers lie in [0, 2]


@dataclass
class GenConfig:
    arrays: tuple[int, int] = (0, 2)
    scalars_only: bool = False
    force_dim: int | None = None


@dataclass
class GenLoop:
    loop: Loop
    drivers: dict[Var, int] = field(default_factory=dict)  # scalar -> increment


def _affine_index(rnd, drivers: list[tuple[Var, int]], sign: int):
    """Index over drivers with displacement of the requested sign (or zero);
    returns (expression builder offset -> Expr, displacement per offset)."""
    parts = []
    disp = 0
    for v, inc in drivers:
        c = rnd.randint(0, COEFF_RANGE)
        if c:
            parts.append((v, c))
            disp += c * inc
    if sign != 0 and disp * sign <= 0:
        # force the requested direction with enough weight on a driver moving
        # the right way; without such a driver fall back to a constant index
        candidates = [(v, inc) for v, inc in drivers if inc * sign > 0]
        if candidates:
            v, inc = rnd.choice(candidates)
            units = (-disp * sign) // abs(inc) + 1
            parts.append((v, units))
            disp += units * inc
        else:
            parts, disp = [], 0
    if sign == 0:
        parts, disp = [], 0

    def build(offset: int) -> Expr:
        e: Expr | None = None
        for v, c in parts:
            t = sv(v) if c == 1 else Bin("*", Const(c), sv(v))
            e = t if e is None else Bin("+", e, t)
        if e is None:
            return Const(offset)
        if offset > 0:
            return Bin("+", e, Const(offset))
        if offset < 0:
            return Bin("-", e, Const(-offset))
        return e

    return build, disp


def gen_loop(seed: int, config: GenConfig | None = None) -> GenLoop:
    cfg = config or GenConfig()
    rnd = random.Random(seed)
    n_scalars = rnd.randint(*SCALARS)
    n_arrays = 0 if cfg.scalars_only else rnd.randint(*cfg.arrays)

    drivers: list[tuple[Var, int]] = []
    followers: list[Var] = []
    scalar_updates: list[tuple[Sel, Expr]] = []
    for s in range(n_scalars):
        v = Var(f"s{s}")
        if s == 0 or rnd.random() < 0.7:
            inc = rnd.choice([-2, -1, 1, 2])
            drivers.append((v, inc))
            rhs: Expr = Bin("+", sv(v), Const(inc)) if inc >= 0 else Bin("-", sv(v), Const(-inc))
        else:
            inc = rnd.randint(-2, 2)
            base: Expr = Bin("+", sv(v), Const(inc))
            d, _ = rnd.choice(drivers)
            rhs = Bin("+", base, sv(d))
            followers.append(v)
        scalar_updates.append((Sel(v, ()), rhs))

    trivial_arr = Var("t0", 1)  # unwritten; read-only trivial cells
    arrays = []
    for ai in range(n_arrays):
        dim = cfg.force_dim or rnd.randint(1, MAX_DIM)
        x = Var(f"a{ai}", dim)
        sign = rnd.choice([1, -1])
        builders = []
        disps = []
        for d in range(dim):
            comp_sign = sign if (d == 0 or rnd.random() < 0.6) else 0
            b, disp = _affine_index(rnd, drivers, comp_sign)
            builders.append(b)
            disps.append(disp)
        if all(d == 0 for d in disps) and rnd.random() < 0.7:
            # give the first dimension a real direction most of the time
            b, disp = _affine_index(rnd, drivers, sign)
            builders[0], disps[0] = b, disp
        n_writes = rnd.randint(1, MAX_WRITES_PER_ARRAY)
        offsets = rnd.sample(range(-OFFSET_RANGE, OFFSET_RANGE + 1), n_writes)
        writes = []
        for off in offsets:
            # offsets distinguish writes in dimension 0, so (Distinct) is a
            # constant disequality there
            idx = tuple(b(off if d == 0 else 0) for d, b in enumerate(builders))
            writes.append(Sel(x, idx))
        arrays.append((x, writes, disps, offsets))

    def scalar_poly() -> Expr:
        e: Expr = Const(rnd.randint(-3, 3))
        for v, _ in drivers:
            if rnd.random() < 0.5:
                e = Bin("+", e, sv(v))
        for v in followers:
            if rnd.random() < 0.3:
                e = Bin("+", e, sv(v))
        if rnd.random() < 0.3:
            e = Bin("+", e, Sel(trivial_arr, (Const(rnd.randint(0, 3)),)))
        return e

    # fill array rhs: mode (a) reads the write's inductive partner cell,
    # mode (b) reads cells strictly ahead of every write
    filled: list[tuple[Sel, Expr]] = []
    for x, writes, disps, offsets in arrays:
        lead = max(offsets) if all(d >= 0 for d in disps) else min(offsets)
        for w, off in zip(writes, offsets):
            mode = rnd.choice(["a", "b", "plain"])
            if mode == "a":
                partner = Sel(x, tuple(_shift(ix, -d) for ix, d in zip(w.idx, disps)))
                rhs = Bin("+", partner, scalar_poly()) if rnd.random() < 0.7 else partner
            elif mode == "b":
                ahead = 1 + abs(disps[0]) if all(d >= 0 for d in disps) else -(1 + abs(disps[0]))
                target = Sel(x, tuple(
                    _shift(ix, (lead - off) + ahead if d0 == 0 else 0)
                    for d0, ix in enumerate(w.idx)))
                rhs = Bin("+", target, Const(rnd.randint(-2, 2)))
            else:
                rhs = scalar_poly()
            filled.append((w, rhs))

    if drivers and rnd.random() < 0.8:
        g, inc = drivers[0]
        bound = 1000 if inc > 0 else -1000
        guard = Rel("<" if inc > 0 else ">", sv(g), Const(bound))
    else:
        guard = Rel("<", Const(0), Const(1))  # effectively true, still an inequation
    updates = scalar_updates + filled
    loop = Loop(guard, tuple(lv for lv, _ in updates), tuple(r for _, r in updates))
    return GenLoop(loop, dict(drivers))


def _shift(e: Expr, k: int) -> Expr:
    if k == 0:
        return e
    if k > 0:
        return Bin("+", e, Const(k))
    return Bin("-", e, Const(-k))
