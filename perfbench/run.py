"""loopacc benchmark: time to verdict, decided share and oracle throughput.

    python3 perfbench/run.py --workload corpus|hoare|fuzz --seed N
                             --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, and the solver child process gets the same path.  Each workload is a
closed loop: one client runs one operation at a time, each with a fresh
backend session, and repeats whole passes over the workload until S seconds
have passed (and at least the workload's minimum number of passes).

--trace 0 prints the end-to-end metrics; --trace 1 first measures half the
time untraced, then half with every layer wrapped, and prints the per-layer
metrics per pass, including the tracing overhead.  The last line of stdout
is the result object; a line "report: {...}" before it breaks the timings
down by operation kind and problem.  The exit code is 0 only when every
answer was correct; 2 when the program cannot be found or the solver cannot
start, with no result printed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 11

# minimum passes per run, and the tail percentile: the highest percentile
# with at least ten samples beyond it at the sample count a 25 s run gives
# at the seed commit (about 150 corpus, 20 hoare and 240 fuzz samples)
MIN_PASSES = {"corpus": 7, "hoare": 2, "fuzz": 2}
TAIL_PCT = {"corpus": 90, "hoare": 50, "fuzz": 90}

# CPU-bound times are reported at a reference machine speed.  On a shared
# 2-core machine the same run took up to 45% longer a minute later; the wall
# time of a bare interpreter start, probed after every operation, slowed by
# the same factor, and dividing by it cut the run-to-run spread of fuzz's mean
# operation time from 0.20 to 0.05 and corpus's from 0.10 to 0.05.  hoare's
# operations mostly wait out the solver's 2 s wall-clock deadline, which does
# not scale with machine speed, so its operation times stay as measured.
# Set-up is CPU-bound on every workload.
PROBE_REFERENCE_S = 0.012
AT_REFERENCE_SPEED = {"corpus": True, "hoare": False, "fuzz": True}

# end-to-end metric -> unit
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
              "decided_share": "share", "ok_share": "share", "peak_rss_mb": "MB"}
PROGRAM_MODULES = ("loopacc", "loopacc.cli", "loopacc.solver.server")


@dataclass
class Sample:
    op: object
    seconds: float
    verdict: str
    decided: bool
    failure: str
    lemmas: int
    n_pass: int


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def import_program() -> float:
    """Import loopacc from scratch and return the time it took."""
    for name in [m for m in sys.modules if m == "loopacc" or m.startswith("loopacc.")]:
        del sys.modules[name]
    gc.collect()  # the modules just dropped would otherwise be collected mid-import
    t0 = perf_counter()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    return perf_counter() - t0


def probe() -> float:
    """Wall time to start and stop a bare interpreter: a yardstick of the
    machine's speed at the moment that no change to loopacc can move."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return perf_counter() - t0


def preflight() -> str | None:
    """One trivial check through a fresh session: without a sat/unsat answer
    every later query would wait out its timeout and read as unknown."""
    from loopacc.expr import Const, Rel, Var, sv
    from workloads import new_session

    with new_session() as ses:
        res = ses.check([Rel(">", sv(Var("x")), Const(0))])
    if res.status not in ("sat", "unsat"):
        return f"the solver did not answer a trivial query ({res.status}: {res.diagnostic})"
    return None


def measure(workload, seconds: float, min_passes: int, sessions, before_op=None,
            after_op=None, after_pass=None) -> tuple[list[Sample], list[float]]:
    """Whole passes over the workload until `seconds` have passed and at
    least `min_passes` are done, with a speed probe after every operation.
    Only run_op is timed; judging the answer, the probe and the hooks are
    not."""
    from witness import replay
    from workloads import judge, run_op

    samples: list[Sample] = []
    probes: list[float] = []
    t0 = perf_counter()
    n_pass = 0
    while n_pass < min_passes or perf_counter() - t0 < seconds:
        for op in workload.ops:
            if before_op:
                before_op(op, n_pass)
            gc.collect()  # no garbage of the last operation, as in a fresh CLI process
            start = perf_counter()
            try:
                out = run_op(op, sessions)
            except Exception:  # a crash is a failed operation, not the end of the run
                elapsed = perf_counter() - start
                traceback.print_exc(file=sys.stderr)
                out, decided, failure = None, False, "raised"
            else:
                elapsed = perf_counter() - start
                decided, failure = judge(op, out, replay)
            if failure:
                print(f"perfbench: {op.kind} {op.name}: {failure}", file=sys.stderr)
            samples.append(Sample(op, elapsed, out.verdict if out else "error", decided,
                                  failure, out.lemmas if out else 0, n_pass))
            if after_op:
                after_op(op)
            probes.append(probe())
        n_pass += 1
        if after_pass:
            after_pass()
    return samples, probes


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def to_reference(probes: list[float]) -> float:
    """The factor that takes a time measured during these probes to the
    reference speed."""
    return PROBE_REFERENCE_S / statistics.median(probes)


def end_to_end(samples: list[Sample], setup_s: float, tail_pct: int, scale: float) -> dict:
    """The result metrics; operation times are multiplied by scale."""
    times = [s.seconds * scale for s in samples]
    verdicts = [s for s in samples if s.op.kind != "accelerate"]
    failed = sum(1 for s in samples if s.failure)
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "op_tail_s": percentile(times, tail_pct),
        "ops_per_s": len(times) / sum(times),
        "decided_share": sum(s.decided for s in verdicts) / len(verdicts),
        "ok_share": 1 - failed / len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report(samples: list[Sample], tail_pct: int) -> dict:
    """The per-kind view: per operation kind p50 and tail (with percentile
    and sample count), loops per second, failed share, and every problem's
    verdicts."""
    out: dict = {"passes": 1 + max(s.n_pass for s in samples),
                 "failed_share": sum(1 for s in samples if s.failure) / len(samples)}
    for kind in ("accelerate", "check", "oracle"):
        times = [s.seconds for s in samples if s.op.kind == kind]
        if times:
            tail = percentile(times, tail_pct)
            out[f"{kind}_p50_s"] = round(statistics.median(times), 6)
            out[f"{kind}_tail_s"] = {"value": round(tail, 6), "percentile": tail_pct,
                                     "samples": len(times),
                                     "beyond": sum(1 for t in times if t > tail)}
    oracle_times = [s.seconds for s in samples if s.op.kind == "oracle"]
    if oracle_times:
        out["loops_per_s"] = round(len(oracle_times) / sum(oracle_times), 4)
    problems: dict = {}
    for s in samples:
        row = problems.setdefault(f"{s.op.kind} {s.op.name}", {"expected": s.op.expected,
                                                              "answers": {}, "lemmas": set()})
        row["answers"][s.verdict] = row["answers"].get(s.verdict, 0) + 1
        row["lemmas"].add(s.lemmas)
    for row in problems.values():
        row["lemmas"] = sorted(row["lemmas"])
    out["problems"] = dict(sorted(problems.items()))
    return out


def result_line(samples: list[Sample], metrics: dict, units: dict) -> str:
    failed = sum(1 for s in samples if s.failure)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def setup(name: str, seed: int) -> tuple[object, float, float]:
    """Import loopacc and build the workload SETUP_REPEATS times each, with a
    speed probe after each.  Returns the workload, the median import time
    plus the median build time, and that time at the reference speed."""
    imports, builds, probes = [], [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_program())
        probes.append(probe())
    from workloads import BUILDERS  # binds the modules imported last

    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload = BUILDERS[name](seed, ROOT)
        builds.append(perf_counter() - t0)
        probes.append(probe())
    setup_s = statistics.median(imports) + statistics.median(builds)
    return workload, setup_s, setup_s * to_reference(probes)


def traced(args, workload) -> int:
    """Half the time untraced, half traced; per-layer metrics per pass."""
    from tracing import LAYER_METRICS, REPEATABLE, LoggedSessions, Tracer, per_pass
    from workloads import BUILDERS, new_session

    tracer = Tracer()
    tracer.install()
    builds = []
    for _ in range(SETUP_REPEATS):
        before = tracer.snapshot()
        BUILDERS[args.workload](args.seed, ROOT)
        builds.append(tracer.snapshot().minus(before))
    tracer.uninstall()

    half = args.seconds / 2
    plain, _ = measure(workload, half, 1, new_session)
    sessions = LoggedSessions(OUT / "smt")
    snapshots = [tracer.snapshot()]
    starts: dict = {}
    per_problem: dict = {}  # the repeatable counts of each operation's first run

    def start(op, n_pass):
        tracer.problem = f"{op.kind} {op.name} #{n_pass}"
        starts[tracer.problem] = tracer.snapshot()

    def finish(op):
        sessions.replay(tracer)
        used = tracer.snapshot().minus(starts.pop(tracer.problem))
        per_problem.setdefault(f"{op.kind} {op.name}", {
            name: value(used) for name, _u, _b, value in LAYER_METRICS if name in REPEATABLE})

    tracer.install()
    try:
        traced_samples, _ = measure(workload, half, 1, sessions, before_op=start,
                                    after_op=finish,
                                    after_pass=lambda: snapshots.append(tracer.snapshot()))
    finally:
        tracer.uninstall()
    passes = [b.minus(a) for a, b in zip(snapshots, snapshots[1:])]
    metrics, repeatable = per_pass(passes, builds)
    t_plain = [s.seconds for s in plain]
    t_traced = [s.seconds for s in traced_samples]
    metrics["trace.overhead_p50_s"] = statistics.median(t_traced) - statistics.median(t_plain)
    metrics["trace.overhead_share"] = (statistics.fmean(t_traced) / statistics.fmean(t_plain)) - 1
    tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.json")
    samples = plain + traced_samples
    print("report: " + json.dumps({"untraced": report(plain, TAIL_PCT[args.workload]),
                                   "traced": report(traced_samples, TAIL_PCT[args.workload]),
                                   "counts_repeat_every_pass": repeatable,
                                   "counts_per_problem": dict(sorted(per_problem.items()))},
                                  default=str))
    units = {name: unit for name, unit, _better, _how in LAYER_METRICS}
    print(result_line(samples, {name: metrics[name] for name in units}, units))
    return 0 if all(not s.failure for s in samples) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(MIN_PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "loopacc" / "__init__.py").is_file():
        return fail(f"no loopacc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # the solver child runs `python -m loopacc.solver.server` and must find them too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    try:
        workload, raw_setup_s, setup_s = setup(args.workload, args.seed)
    except ImportError as exc:
        return fail(f"cannot import loopacc: {exc}")
    why = preflight()
    if why:
        return fail(why)
    if args.trace:
        return traced(args, workload)

    from workloads import new_session

    samples, probes = measure(workload, args.seconds, MIN_PASSES[args.workload], new_session)
    scale = to_reference(probes) if AT_REFERENCE_SPEED[args.workload] else 1.0
    metrics = end_to_end(samples, setup_s, TAIL_PCT[args.workload], scale)
    as_measured = end_to_end(samples, raw_setup_s, TAIL_PCT[args.workload], 1.0)
    print("report: " + json.dumps({**report(samples, TAIL_PCT[args.workload]),
                                   "probe_s": statistics.median(probes),
                                   "as_measured": as_measured}, default=str))
    print(result_line(samples, metrics, END_TO_END))
    return 0 if all(not s.failure for s in samples) else 1


if __name__ == "__main__":
    sys.exit(main())
