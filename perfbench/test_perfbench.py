"""Self-tests of the benchmark: known answers, witness replay, determinism
and layer coverage of the traced run, and failing fast.

    python3 -m pytest perfbench/test_perfbench.py

They start solver processes and take under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import witness  # noqa: E402
import workloads  # noqa: E402
from loopacc import accel, backend, expr, problem  # noqa: E402
from loopacc.sexpr import to_text  # noqa: E402

# the layers each workload is there to load; their per-pass values must be > 0
LOADED = {
    "corpus": ["loop.validate_s", "classify.check_a_solvable_s", "recurrence.solve_s",
               "closedform.closed_forms_all_s", "arrayform.closed_form_array_s",
               "accel.guard_characterize_s", "accel.accelerate_s",
               "backend.sessions_started", "backend.first_check_s", "backend.check_s",
               "backend.checks", "backend.is_valid_calls", "backend.is_valid_roundtrips",
               "lamsolve.solve_s", "lamsolve.rounds", "lamsolve.lemmas",
               "lamsolve.propagate_s", "lamsolve.check_model_s", "lamsolve.verify_model_s",
               "server.parse_s", "ground.check_s", "ground.check_total_s", "ground.hoist_s",
               "ground.ackermann_s", "ground.presolve_s", "ground.to_linear_s",
               "ground.conjuncts_after_presolve", "presburger.find_model_s",
               "presburger.nodes"],
    "hoare": ["ground.check_total_s", "presburger.find_model_s", "presburger.nodes",
              "presburger.nodes_unknown", "presburger.unknown_timeout"],
    "fuzz": ["closedform.closed_forms_all_s", "arrayform.closed_form_array_s",
             "oracle.check_loop_s", "oracle.run_n_s", "oracle.run_n_calls",
             "oracle.substitute_s", "oracle.eval_expr_s", "oracle.closure_eval_s",
             "oracle.checks"],
}


def small(name: str, seed: int):
    """The workload, cut to what a test can afford: the hoare members that
    decide fast plus one that times out, and five fuzz loops."""
    w = workloads.BUILDERS[name](seed, ROOT)
    if name == "hoare":
        keep = {"hoare[K=1]", "hoare[K=2]", "hoare-mut[K=3]"}
        w.ops = [op for op in w.ops if op.name in keep]
    if name == "fuzz":
        w.ops = w.ops[:5]
    return w


def traced_passes(w, n_passes: int):
    tracer = tracing.Tracer()
    sessions = tracing.LoggedSessions(ROOT / ".perfbench" / "test-smt")
    snapshots = [tracer.snapshot()]
    tracer.install()
    try:
        samples, _ = run.measure(w, 0, n_passes, sessions,
                              after_op=lambda op: sessions.replay(tracer),
                              after_pass=lambda: snapshots.append(tracer.snapshot()))
    finally:
        tracer.uninstall()
    passes = [b.minus(a) for a, b in zip(snapshots, snapshots[1:])]
    return samples, passes


def counts(snapshot) -> dict:
    return {name: value(snapshot) for name, _u, _b, value in tracing.LAYER_METRICS
            if name in tracing.REPEATABLE}


@pytest.mark.parametrize("name", ["corpus", "hoare", "fuzz"])
def test_traced_run_repeats_and_loads_its_layers(name):
    first, passes = traced_passes(small(name, 7), 2)
    again, rerun = traced_passes(small(name, 7), 1)
    assert not [s.failure for s in first + again if s.failure]
    verdicts = [(s.op.name, s.verdict, s.lemmas) for s in first]
    half = len(verdicts) // 2
    assert verdicts[:half] == verdicts[half:] == [(s.op.name, s.verdict, s.lemmas) for s in again]
    assert counts(passes[0]) == counts(passes[1]) == counts(rerun[0])
    values, repeatable = tracing.per_pass(passes, passes)
    assert repeatable
    empty = [m for m in LOADED[name] if not values[m] > 0]
    assert not empty, f"layers with no time or count on {name}: {empty}"
    if name == "fuzz":
        assert values["backend.checks"] == 0
    if name == "hoare":
        share = values["presburger.find_model_s"] / values["ground.check_total_s"]
        assert share > 0.5


def test_refinement_family_makes_lemmas():
    w = workloads.build_corpus(3, ROOT)
    refine = [op for op in w.ops if op.name.startswith("refine")]
    assert len(refine) == 4
    for op in refine:
        out = workloads.run_op(op, workloads.new_session)
        assert out.verdict == "safe-bounded" and out.lemmas >= 1, (op.name, out)


def test_generated_hoare_k1_is_the_example():
    def outcome(pf):
        expr.reset_fresh_counter()
        with backend.BackendSession() as ses:
            formula = to_text(accel.accelerate(pf.loop, ses).formula)
        op = workloads.Op("check", "k1", "safe-bounded", pf)
        return formula, workloads.run_op(op, workloads.new_session).verdict

    generated = problem.parse_problem(workloads.hoare_text(1, False), is_path=False)
    example = problem.parse_problem(ROOT / workloads.EXAMPLES / "hoare13.loop")
    assert outcome(generated) == outcome(example)
    assert outcome(example)[1] == "safe-bounded"


def _unsafe(name: str, text: str | None = None):
    pf = problem.parse_problem(text, is_path=False) if text else \
        problem.parse_problem(ROOT / workloads.EXAMPLES / name)
    out = workloads.run_op(workloads.Op("check", name, "unsafe", pf), workloads.new_session)
    assert out.verdict == "unsafe"
    return pf, out.model


def test_witness_replay_accepts_true_and_rejects_false_witnesses():
    pf, model = _unsafe("overview.loop")
    assert witness.replay(pf, model) is None
    assert "init" in witness.replay(pf, replace(model, scalars={**model.scalars, "k": 5}))

    pf, model = _unsafe("mut", workloads.hoare_text(2, True))
    assert witness.replay(pf, model) is None
    flat = {**model.arrays, "a": expr.FiniteFn.const(1, 0)}
    assert "post" in witness.replay(pf, replace(model, arrays=flat, derived={}))
    shorter = {**model.scalars, "n": model.scalars["n"] + 5}
    assert witness.replay(pf, replace(model, scalars=shorter)) is not None


def test_judge_separates_undecided_from_failed():
    op = workloads.Op("check", "p", "safe-bounded")
    never = lambda pf, m: pytest.fail("no replay for a safe verdict")  # noqa: E731
    O = workloads.Outcome
    assert workloads.judge(op, O("safe-bounded"), never) == (True, "")
    assert workloads.judge(op, O("unknown", "unknown"), never) == (False, "")
    assert workloads.judge(op, O("unknown", "refinement failed"), never) == (False, "")
    assert workloads.judge(op, O("unsafe"), never)[1].startswith("wrong answer")
    assert workloads.judge(op, O("unknown", "backend timed out"), never)[1].startswith("backend")
    assert workloads.judge(op, O("guard", "backend inconclusive on guard monotonicity"),
                           never) == (False, "")
    assert workloads.judge(op, O("rec", "boom"), never)[1].startswith("unexpected")
    unsafe = workloads.Op("check", "p", "unsafe")
    assert workloads.judge(unsafe, O("unsafe", reverified=False), never)[1]
    assert workloads.judge(unsafe, O("unsafe"), lambda pf, m: "post false")[1].startswith("witness")
    assert workloads.judge(workloads.Op("oracle", "g", "ok"), O("ok", mismatches=2), never)[1]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(n, u, b) for n, u, b, _v in tracing.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)


def _bench(cwd: Path, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_fails_fast_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench(tmp_path)
    assert p.returncode != 0 and p.stdout == ""


def test_fails_fast_when_the_solver_cannot_start():
    env = {**os.environ, backend.ENV_BACKEND: f"{sys.executable} -c pass"}
    p = _bench(ROOT, env)
    assert p.returncode == 2 and p.stdout == ""
    assert "solver" in p.stderr
