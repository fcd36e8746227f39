"""Command-line front end.

    loopacc classify FILE
    loopacc closed-form FILE [--array X] [--show-rec] [--check n=K]
    loopacc accelerate FILE
    loopacc check FILE [--backend CMD] [--timeout S] [--smt-log F]
    loopacc oracle [FILE | --fuzz K [--scalars-only | --dim D]] [--n-max M] [--seed S]

`check` prints unsafe / safe-bounded / unknown with exit codes 0 / 1 / 2;
any command that crashes prints the traceback and exits 3.
Every command accepts --json for a machine-readable report (schema 1).  The
bundled solver answers queries in-process by default; --backend or
LOOPACC_BACKEND names an SMT-LIB2 solver command to run as a subprocess
instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .accel import accelerate, check_reachability
from .backend import BackendSession, DEFAULT_TIMEOUT
from .classify import check_a_solvable
from .closedform import Failure, closed_forms_all
from .gen import GenConfig, gen_loop
from .lamsolve import finite_fn_expr
from .loop import validate_loop
from .oracle import check_loop
from .problem import parse_problem
from .sexpr import ParseError, to_text

SCHEMA = 1


def _session(args) -> BackendSession:
    return BackendSession(backend=getattr(args, "backend", None),
                          timeout=getattr(args, "timeout", DEFAULT_TIMEOUT),
                          smt_log=getattr(args, "smt_log", None))


def _emit(args, human: str, payload: dict) -> None:
    if args.json:
        payload["schema"] = SCHEMA
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(human)


def cmd_classify(args) -> int:
    pf = parse_problem(args.file)
    with _session(args) as ses:
        val = validate_loop(pf.loop, ses)
        verdict = check_a_solvable(pf.loop, ses)
    rows = []
    for lv in verdict.closure:
        c = verdict.labels.get(lv)
        rows.append((to_text(lv), c.label.value if c else "-", c.justification if c else ""))
    width = max((len(r[0]) for r in rows), default=6)
    lines = [f"distinct: {'ok' if val.ok else ('inconclusive' if val.inconclusive else 'violated')}"]
    lines.append(f"a-solvable: {'yes' if verdict.a_solvable else 'no'}"
                 + (f"  ({verdict.reason})" if verdict.reason else ""))
    lines.append(f"{'lvalue'.ljust(width)}  {'class'.ljust(12)}  justification")
    for name, label, just in rows:
        lines.append(f"{name.ljust(width)}  {label.ljust(12)}  {just}")
    if verdict.rhs_tags:
        lines.append("rhs conditions: " + " ".join(
            f"r_{i + 1}:({t})" for i, t in enumerate(verdict.rhs_tags)))
    payload = {
        "distinct": val.ok,
        "a_solvable": verdict.a_solvable,
        "reason": verdict.reason,
        "monotonicity": {x.name: m.value for x, m in verdict.monotone.items()},
        "lvalues": [{"lvalue": a, "class": b, "justification": c} for a, b, c in rows],
        "rhs_tags": verdict.rhs_tags,
    }
    _emit(args, "\n".join(lines), payload)
    return 0 if verdict.a_solvable else 1


def cmd_closed_form(args) -> int:
    pf = parse_problem(args.file)
    with _session(args) as ses:
        forms = closed_forms_all(pf.loop, ses)
        if isinstance(forms, Failure):
            _emit(args, f"failure({forms.phase}): {forms.detail}",
                  {"ok": False, "phase": forms.phase, "detail": forms.detail})
            return 1
        lines = []
        payload: dict = {"ok": True, "lvalues": {}, "arrays": {}}
        if args.show_rec:
            lines.append("rec system:")
            for r, e in forms.system:
                lv = forms.system.sigma.lvalue(r)
                lines.append(f"  rec[{to_text(lv)}]' = {to_text(e)}")
            lines.append("solution:")
            payload["rec"] = {}
            for lv, r in forms.system.sigma.pairs:
                th = forms.solution.of(r)
                lines.append(f"  theta(rec[{to_text(lv)}]) = {to_text(th)}")
                payload["rec"][to_text(lv)] = to_text(th)
        lines.append("closed forms (lvalues):")
        for lv, e in forms.table.items():
            lines.append(f"  {to_text(lv)} -> {to_text(e)}")
            payload["lvalues"][to_text(lv)] = to_text(e)
        if args.array:
            targets = [x for x in pf.loop.variables() if x.name == args.array]
            if not targets:
                print(f"unknown array '{args.array}'", file=sys.stderr)
                return 2
        else:
            targets = list(forms.outside_table(pf.loop))
        for x in targets:
            lam = forms.variables[x]
            if isinstance(lam, Failure):
                _emit(args, f"failure({lam.phase}): {lam.detail}",
                      {"ok": False, "phase": lam.phase, "detail": lam.detail})
                return 1
            lines.append(f"{x.name}^(n) = {to_text(lam)}")
            payload["arrays"][x.name] = to_text(lam)
        if args.check is not None:
            rep = check_loop(pf.loop, loop_id=str(args.file), seeds=10, n_max=args.check,
                             session=ses)
            lines.append(f"oracle check (n<={args.check}): {_oracle_status(rep)}")
            payload["oracle"] = rep.to_json()
            if not rep.ok:
                _emit(args, "\n".join(lines), payload)
                return 1
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_accelerate(args) -> int:
    pf = parse_problem(args.file)
    with _session(args) as ses:
        t = accelerate(pf.loop, ses)
    if isinstance(t, Failure):
        _emit(args, f"failure({t.phase}): {t.detail}",
              {"ok": False, "phase": t.phase, "detail": t.detail})
        return 1
    human = to_text(t.formula)
    payload = {"ok": True, "formula": human,
               "closed_forms": {x.name: to_text(e) for x, e in t.closed_forms.items()},
               "guard": to_text(t.guard_formula)}
    _emit(args, human, payload)
    return 0


def cmd_check(args) -> int:
    pf = parse_problem(args.file)
    if pf.post is None:
        print("check needs a (post ...) block naming the reachability target",
              file=sys.stderr)
        return 2
    with _session(args) as ses:
        res = check_reachability(pf.init, pf.loop, pf.post, ses)
    if isinstance(res, Failure):
        _emit(args, f"unknown ({res.phase}: {res.detail})",
              {"result": "unknown", "phase": res.phase, "detail": res.detail})
        return 2
    if res.status == "model":
        m = res.model
        witness = dict(sorted(m.scalars.items()))
        _emit(args, "unsafe\n" + "\n".join(f"  {k} = {v}" for k, v in witness.items()),
              {"result": "unsafe", "witness": witness,
               "arrays": {k: to_text(finite_fn_expr(v)) for k, v in sorted(m.arrays.items())},
               "derived": {k: v if isinstance(v, int) else to_text(v)
                           for k, v in sorted(m.derived.items())},
               "reverified": True, "lemmas": res.lemmas})
        return 0
    if res.status == "unsat":
        _emit(args, "safe-bounded", {"result": "safe-bounded", "lemmas": res.lemmas})
        return 1
    why = f"{res.diagnostic}: {res.reason}" if res.reason else res.diagnostic
    _emit(args, f"unknown ({why})", {"result": "unknown", "detail": res.diagnostic,
                                     "reason": res.reason, "lemmas": res.lemmas})
    return 2


def _oracle_status(r) -> str:
    if r.failure:
        return f"failure({r.failure.phase})"
    return "ok" if r.ok else f"{len(r.mismatches)} mismatches"


def cmd_oracle(args) -> int:
    if args.file is not None and (args.scalars_only or args.dim):  # they shape --fuzz loops
        args.usage_error(f"argument {'--dim' if args.dim else '--scalars-only'}: "
                         "not allowed with argument file")
    reports = []
    with _session(args) as ses:
        if args.fuzz:
            cfg = GenConfig(scalars_only=args.scalars_only,
                            force_dim=args.dim)
            for k in range(args.fuzz):
                g = gen_loop(args.seed + k, cfg)
                reports.append(check_loop(g.loop, loop_id=f"gen[{args.seed + k}]",
                                          seeds=args.states, n_max=args.n_max,
                                          session=ses, seed0=args.seed))
        else:
            pf = parse_problem(args.file)
            reports.append(check_loop(pf.loop, loop_id=str(args.file),
                                      seeds=args.states, n_max=args.n_max,
                                      session=ses, seed0=args.seed))
    bad = [r for r in reports if not r.ok]
    lines = []
    for r in reports:
        lines.append(f"{r.loop_id}: {_oracle_status(r)}  [{r.checked} checks, {r.elapsed:.2f}s]")
    lines.append(f"total: {len(reports) - len(bad)}/{len(reports)} ok")
    _emit(args, "\n".join(lines),
          {"reports": [r.to_json() for r in reports], "ok": not bad})
    return 0 if not bad else 1


def _natural(text: str, low: int = 0) -> int:
    try:
        k = int(text)
    except ValueError:
        k = low - 1
    if k < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return k


def _positive(text: str) -> int:
    return _natural(text, 1)


def _check_bound(text: str) -> int:
    """K from "n=K" or "K"."""
    return _natural(text.removeprefix("n="))


def _seconds(text: str) -> float:
    try:
        t = float(text)
    except ValueError:
        t = 0.0
    if not t > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"expected seconds > 0, got {text!r}")
    return t


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="loopacc", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, file_group=None, **file_options):
        (file_group or p).add_argument("file", help="problem file (s-expression syntax)",
                                       **file_options)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--backend", default=None,
                       help="SMT-LIB2 solver command to run as a subprocess "
                            "(default: the bundled solver, in-process)")
        p.add_argument("--timeout", type=_seconds, default=DEFAULT_TIMEOUT,
                       help="seconds per backend query")
        p.add_argument("--smt-log", default=None, help="dump the SMT dialogue to a file")

    p = sub.add_parser("classify", help="lvalue classes and a-solvability")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("closed-form", help="closed forms for lvalues and arrays")
    common(p)
    p.add_argument("--array", default=None, help="emit the lambda for one array")
    p.add_argument("--show-rec", action="store_true", help="print the recurrence system")
    p.add_argument("--check", type=_check_bound, default=None, metavar="n=K",
                   help="compare against the interpreter up to n=K")
    p.set_defaults(fn=cmd_closed_form)

    p = sub.add_parser("accelerate", help="emit the accelerated transition")
    common(p)
    p.set_defaults(fn=cmd_accelerate)

    p = sub.add_parser("check", help="reachability: unsafe / safe-bounded / unknown")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("oracle", help="differential testing against the interpreter")
    source = p.add_mutually_exclusive_group(required=True)
    common(p, source, nargs="?", default=None)
    source.add_argument("--fuzz", type=_positive, default=None, metavar="K",
                        help="generate and test K random a-solvable loops")
    p.add_argument("--n-max", type=_natural, default=8,
                   help="compare after 0..N_MAX iterations (default 8)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the first random state; with --fuzz, of the first loop too")
    p.add_argument("--states", type=_positive, default=10, help="random states per loop")
    generator = p.add_mutually_exclusive_group()
    generator.add_argument("--scalars-only", action="store_true", help="loops without arrays")
    generator.add_argument("--dim", type=_positive, default=None, help="force array dimension")
    p.set_defaults(fn=cmd_oracle, usage_error=p.error)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a crash: no verdict's exit code
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
