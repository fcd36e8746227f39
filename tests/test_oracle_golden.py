"""Oracle reports pinned byte for byte, the interpreter steps the oracle
spends, and determinism of `loopacc oracle --fuzz` under --seed.

tests/golden/oracle.json was written once from ``golden_reports()`` and is
never regenerated by this test; a change to how the oracle evaluates closed
forms or runs the interpreter that keeps every comparison keeps it passing."""

import json
from pathlib import Path

from loopacc import cli, loop as loop_mod
from loopacc.expr import Bin, Const, Rel, Sel, Var, reset_fresh_counter, sv
from loopacc.gen import gen_loop
from loopacc.loop import Loop
from loopacc.oracle import check_loop

from conftest import A, I, J, K, plus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "oracle.json"
GEN_SEEDS, STATES, N_MAX = 40, 4, 8


def skip_loops():
    """The two loops of test_gen_oracle whose cells or runs do not evaluate,
    with the states and seeds that test uses."""
    x = Var("x")
    cell = Loop(guard=Rel("<", sv(I), sv(K)),
                lvalues=(Sel(I, ()), Sel(x, ())),
                rhs=(plus(sv(I), 1), Bin("+", sv(x), Sel(A, (Bin("div", sv(K), sv(J)),)))))
    zero = Bin("-", sv(J), sv(J))
    run = Loop(guard=Rel("<", sv(I), sv(K)),
               lvalues=(Sel(A, (sv(I),)), Sel(I, ())),
               rhs=(Bin("div", Const(10), zero), plus(sv(I), 1)))
    return {"skip-cell": (cell, dict(seeds=40)), "skip-run": (run, dict(seeds=10, seed0=41))}


def golden_reports(session) -> dict:
    """`to_json()` minus `elapsed` of every pinned oracle run."""
    out = {}
    for seed in range(GEN_SEEDS):
        reset_fresh_counter()
        rep = check_loop(gen_loop(seed).loop, loop_id=f"gen[{seed}]", seeds=STATES, n_max=N_MAX,
                         session=session)
        out[rep.loop_id] = rep.to_json()
    for name, (lp, kw) in skip_loops().items():
        reset_fresh_counter()
        out[name] = check_loop(lp, loop_id=name, session=session, **kw).to_json()
    for data in out.values():
        del data["elapsed"]
    return out


def test_oracle_reports_are_unchanged(session):
    assert golden_reports(session) == json.loads(GOLDEN.read_text())


def test_oracle_runs_the_interpreter_once_per_state(monkeypatch, session):
    calls = 0
    real = loop_mod.step

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(loop_mod, "step", counted)
    for seed in range(5):
        calls = 0
        rep = check_loop(gen_loop(seed).loop, seeds=STATES, n_max=N_MAX, session=session)
        assert rep.ok and calls <= STATES * N_MAX, (seed, calls)
    for name, (lp, kw) in skip_loops().items():
        calls = 0
        check_loop(lp, session=session, **kw)
        assert calls <= kw["seeds"] * N_MAX, (name, calls)


def test_cli_oracle_fuzz_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        reset_fresh_counter()
        assert cli.main(["oracle", "--fuzz", "3", "--seed", "5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        for rep in data["reports"]:
            del rep["elapsed"]
        outs.append(data)
    assert outs[0] == outs[1]
    assert sum(rep["checked"] for rep in outs[0]["reports"]) > 0
