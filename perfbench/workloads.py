"""The benchmark's workloads: the problems each one runs, the answer each
problem is known to have, and the operations that time loopacc on them.

Every operation drives the public pipeline the way the CLI does and opens a
fresh backend session, because a CLI user pays the solver start on every run:

    accelerate  problem.parse_problem -> accel.accelerate
    check       ... -> accel.encode_reachability -> lamsolve.solve
                    -> lamsolve.verify_model (for a model)
    oracle      oracle.check_loop with 10 states and n_max 8

Parsing and generation happen once per workload build, in set-up.  Each
operation resets the fresh-name counter, as a new CLI process starts with it
at zero; names feed the solver's variable order, so this keeps verdicts and
search-node counts repeatable from pass to pass.

Modules are looked up at call time (``accel.accelerate``, not a name bound at
import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from loopacc import accel, backend, expr, gen, lamsolve, oracle, problem
from loopacc.closedform import Failure

EXAMPLES = "examples_problems"

# Known answers for every checked-in example, worked out by hand from the
# files, not taken from loopacc's output.  An accelerate answer is "ok" or
# the phase that must reject the loop; a check answer is a verdict or that
# phase.
#   countdown: a[5] is set to 3 when i passes 5, before i can reach 0.
#   hoare13:   the swap carries a[i0] rightwards and shifts every other cell
#              left, so a'[i'] = a[i0] = b[j] once i' >= k: safe.
#   mixing:    a[i] is inductive and a[i+1] displacing, and one rhs reads
#              both, so the loop is not a-solvable.
#   overview:  j = 0 satisfies a'[j] = a[0] after k = 10000 shifts: unsafe.
EXAMPLE_ACCELERATE = {
    "countdown.loop": "ok",
    "decrement.loop": "ok",
    "hoare13.loop": "ok",
    "mixing.loop": "classification",
    "overview.loop": "ok",
    "swap.loop": "ok",
    "twodim.loop": "ok",
}
EXAMPLE_CHECK = {
    "countdown.loop": "safe-bounded",
    "hoare13.loop": "safe-bounded",
    "mixing.loop": "classification",
    "overview.loop": "unsafe",
}

# lamsolve's own answers that mean "undecided", as opposed to a backend error
UNDECIDED = {"unknown", "refinement failed", "lemma bound exhausted"}

SWAP_LOOP = """(loop
  (guard (< i k))
  (update
    ((lhs i) (rhs (+ i 1)))
    ((lhs (select a (+ i 1))) (rhs (select a i)))
    ((lhs (select a i)) (rhs (select a (+ i 1))))))"""

HOARE_K = range(1, 6)
FUZZ_LOOPS = 120
ORACLE_STATES = 10
ORACLE_N_MAX = 8


@dataclass
class Op:
    kind: str  # accelerate | check | oracle
    name: str
    expected: str
    problem: problem.ProblemFile | None = None
    loop: object = None  # the generated loop of an oracle operation


@dataclass
class Outcome:
    """What one operation answered: a verdict (or "ok"), the failure phase or
    backend diagnostic behind an "unknown", and for "unsafe" the model."""

    verdict: str
    detail: str = ""
    lemmas: int = 0
    model: object = None
    reverified: bool = True
    mismatches: int = 0


@dataclass
class Workload:
    name: str
    ops: list[Op] = field(default_factory=list)


# ---------------------------------------------------------------------------
# generated problem families


def hoare_text(k: int, mutated: bool) -> str:
    """The Hoare-K family on the hoare13 swap loop.  Valid: with m_t = i + t,
    the post asks a'[i'] != b[j] and a'[m_t] != b[m_t + 1] for t < K, which
    the swap makes impossible (safe-bounded).  Mutated: a'[i'] != b[j + 1]
    and a'[m_t] != b[m_t]; a[c] = c is a witness (unsafe)."""
    ms = [f"m{t}" for t in range(1, k)]
    decl = "(declare (i 0) (k 0) (j 0) (a 1) (b 1)" + "".join(f" ({m} 0)" for m in ms) + ")"
    init = ["(= b a)", "(= j i)", "(< i k)"] + [f"(= {m} (+ i {t}))" for t, m in enumerate(ms, 1)]
    if mutated:
        post = ["(>= i k)", "(distinct (select a i) (select b (+ j 1)))"]
        post += [f"(distinct (select a {m}) (select b {m}))" for m in ms]
    else:
        post = ["(>= i k)", "(distinct (select a i) (select b j))"]
        post += [f"(distinct (select a {m}) (select b (+ {m} 1)))" for m in ms]
    if ms:
        post.append(f"(< {ms[-1]} k)")
    return "\n".join([decl, "(init " + " ".join(init) + ")", SWAP_LOOP,
                      "(post " + " ".join(post) + ")"])


def refinement_text(c: int, d: int, p: int) -> str:
    """Two arrays shifted right from i = d >= 0, with a[0] = c initially and
    the post a' = b' /\\ b'[p] != c.  Cells below d + 1 are never written, so
    for p = 0 the post needs b'[0] = a'[0] = a[0] = c: safe.  For d = 0 and
    p = 1, a'[1] = a[0] = c after any n >= 1: safe.  lamsolve proves both
    only after instantiating a' = b' at index p (one or two lemmas), which
    no checked-in example needs."""
    return f"""(declare (i 0) (k 0) (a 1) (b 1))
(init (= i {d}) (= (select a 0) {c}))
(loop
  (guard (< i k))
  (update
    ((lhs i) (rhs (+ i 1)))
    ((lhs (select a (+ i 1))) (rhs (select a i)))
    ((lhs (select b (+ i 1))) (rhs (select b i)))))
(post (= a b) (distinct (select b {p}) {c}))"""


def _parse(text: str) -> problem.ProblemFile:
    return problem.parse_problem(text, is_path=False)


# ---------------------------------------------------------------------------
# workload builders: everything here is set-up


def build_corpus(seed: int, root: Path) -> Workload:
    rnd = random.Random(seed)
    w = Workload("corpus")
    for name, want in EXAMPLE_ACCELERATE.items():
        pf = problem.parse_problem(root / EXAMPLES / name)
        w.ops.append(Op("accelerate", name, want, pf))
        if name in EXAMPLE_CHECK:
            w.ops.append(Op("check", name, EXAMPLE_CHECK[name], pf))
    c = rnd.choice([v for v in range(-9, 10) if v])
    d1, d2 = rnd.sample(range(1, 6), 2)
    for d, p in ((0, 0), (0, 1), (d1, 0), (d2, 0)):
        w.ops.append(Op("check", f"refine[c={c},d={d},p={p}]", "safe-bounded",
                        _parse(refinement_text(c, d, p))))
    rnd.shuffle(w.ops)
    return w


def build_hoare(seed: int, root: Path) -> Workload:
    w = Workload("hoare")
    for k in HOARE_K:
        w.ops.append(Op("check", f"hoare[K={k}]", "safe-bounded", _parse(hoare_text(k, False))))
        w.ops.append(Op("check", f"hoare-mut[K={k}]", "unsafe", _parse(hoare_text(k, True))))
    random.Random(seed).shuffle(w.ops)
    return w


def build_fuzz(seed: int, root: Path) -> Workload:
    """The loops and random states of `oracle --fuzz 120 --seed 0`; the seed
    picks the order.  Letting it pick the loops or the states would make the
    work itself vary: on a 2-core machine, 60-loop sets from other generator
    seeds took 30% more or less time, and other states changed the number
    of oracle comparisons by 9% (quartile distance over median).  With 60
    loops the median loop time sat in a sparse stretch of the distribution
    and moved by 20% from run to run; 120 loops fill it in."""
    w = Workload("fuzz")
    cfg = gen.GenConfig()
    for k in range(FUZZ_LOOPS):
        g = gen.gen_loop(k, cfg)
        w.ops.append(Op("oracle", f"gen[{k}]", "ok", loop=g.loop))
    random.Random(seed).shuffle(w.ops)
    return w


BUILDERS = {"corpus": build_corpus, "hoare": build_hoare, "fuzz": build_fuzz}


# ---------------------------------------------------------------------------
# operations: the timed part


def run_op(op: Op, sessions) -> Outcome:
    expr.reset_fresh_counter()
    with sessions() as ses:
        if op.kind == "accelerate":
            t = accel.accelerate(op.problem.loop, ses)
            if isinstance(t, Failure):
                return Outcome(t.phase, t.detail)
            return Outcome("ok")
        if op.kind == "check":
            return _check(op.problem, ses)
        rep = oracle.check_loop(op.loop, loop_id=op.name, seeds=ORACLE_STATES,
                                n_max=ORACLE_N_MAX, session=ses, seed0=0)
        if rep.failure is not None:
            return Outcome(rep.failure.phase, rep.failure.detail)
        return Outcome("ok", mismatches=len(rep.mismatches))


def _check(pf: problem.ProblemFile, ses) -> Outcome:
    t = accel.accelerate(pf.loop, ses)
    if isinstance(t, Failure):
        return Outcome(t.phase, t.detail)
    lits = accel.encode_reachability(pf.init, t, pf.post)
    res = lamsolve.solve(lits, ses)
    if res.status == "model":
        ok = lamsolve.verify_model(res.model, lits, ses)
        return Outcome("unsafe", lemmas=res.lemmas, model=res.model, reverified=ok)
    if res.status == "unsat":
        return Outcome("safe-bounded", lemmas=res.lemmas)
    return Outcome("unknown", res.diagnostic, lemmas=res.lemmas)


@contextmanager
def new_session(**options):
    """A fresh backend session whose solver process is waited for on exit;
    BackendSession.close only kills it."""
    ses = backend.BackendSession(**options)
    try:
        yield ses
    finally:
        proc = ses.proc
        ses.close()
        if proc is not None:
            proc.wait()


def judge(op: Op, out: Outcome, replay) -> tuple[bool, str]:
    """(decided, failure reason or "").  Decided: the known answer was
    reached.  A failure is a wrong verdict, a witness that does not replay,
    an oracle mismatch, a backend error or an unexpected rejection; an
    "unknown" from the solver or a backend-inconclusive rejection is only
    undecided."""
    if out.mismatches:
        return False, f"{out.mismatches} oracle mismatches"
    if out.verdict == op.expected:
        if out.verdict != "unsafe":
            return True, ""
        if not out.reverified:
            return False, "lamsolve.verify_model rejected the model"
        why = replay(op.problem, out.model)
        return (True, "") if why is None else (False, f"witness replay: {why}")
    if out.verdict in ("safe-bounded", "unsafe", "ok"):
        return False, f"wrong answer {out.verdict}, expected {op.expected}"
    if out.verdict == "unknown":
        if out.detail in UNDECIDED:
            return False, ""
        return False, f"backend error: {out.detail}"
    if "inconclusive" in out.detail:
        return False, ""
    return False, f"unexpected {out.verdict} failure: {out.detail}"
