"""Compare the CLI's current output with the golden files, modulo renumbered
fresh names.

examples.json maps each key to the stdout and exit code of ``cli.main`` on
it; smtlog.json maps each example to the dialogue that ``check --smt-log``
writes for it, or to null when it writes none.  Each key runs in-process with
the fresh-name counter reset, as ``tests/test_golden.py`` runs it.  An entry
matches up to renumbering when its exit code is the golden's, and its text
becomes the golden's under one bijection between the ``name!k`` tokens of
the two texts that keeps each token's name.  The script reports every entry
as identical, renumbered only or differs, prints a unified diff for each one
that differs, and exits 1 when any differs.

    python3 tests/golden/rename_only.py           # report
    python3 tests/golden/rename_only.py --write   # also rewrite the golden files

``--write`` rewrites a golden file with the current outputs, and only when
none of its entries differs beyond renumbering.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_DIR = ROOT / "tests" / "golden"
FRESH = re.compile(r"([^\s()\"\\!]+)!(\d+)")


def _main(argv: list[str]) -> tuple[int, str]:
    """exit code and stdout of cli.main, from a reset fresh-name counter."""
    from loopacc import cli
    from loopacc.expr import reset_fresh_counter

    reset_fresh_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run(key: str) -> dict:
    """stdout and exit code of one examples.json key."""
    code, out = _main(key.split())
    return {"exit": code, "stdout": out}


def dialogue(path: str) -> str | None:
    """The --smt-log dialogue of check on one example; None without a log."""
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "smt.log"
        _main(["check", path, "--smt-log", str(log)])
        return log.read_text() if log.exists() else None


GOLDENS = {"examples.json": run, "smtlog.json": dialogue}


def renumbered(old: str, new: str) -> bool:
    """new is old with its name!k tokens renamed by a name-keeping bijection."""
    a, b = FRESH.split(old), FRESH.split(new)
    if len(a) != len(b):
        return False
    forward: dict[str, str] = {}
    backward: dict[str, str] = {}
    # split yields text, name, k, text, name, k, ..., text
    for pos in range(0, len(a), 3):
        if a[pos] != b[pos]:
            return False
        if pos + 2 >= len(a):
            break
        if a[pos + 1] != b[pos + 1]:
            return False
        src, dst = a[pos + 1] + "!" + a[pos + 2], b[pos + 1] + "!" + b[pos + 2]
        if forward.setdefault(src, dst) != dst or backward.setdefault(dst, src) != src:
            return False
    return True


def _text(entry) -> str:
    """One golden entry as the text its comparison reads."""
    if isinstance(entry, dict):
        return f"exit {entry['exit']}\n{entry['stdout']}"
    return "(no log)\n" if entry is None else entry


def compare(want, got) -> str:
    if got == want:
        return "identical"
    if want is not None and got is not None and renumbered(_text(want), _text(got)):
        return "renumbered only"
    return "differs"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite each golden file none of whose entries differs "
                         "beyond renumbering")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    any_differ = False
    for name, produce in GOLDENS.items():
        path = GOLDEN_DIR / name
        golden = json.loads(path.read_text())
        current, counts = {}, {"identical": 0, "renumbered only": 0, "differs": 0}
        print(f"{name}:")
        for key in sorted(golden):
            current[key] = got = produce(key)
            verdict = compare(golden[key], got)
            counts[verdict] += 1
            print(f"  {verdict}: {key}")
            if verdict == "differs":
                sys.stdout.writelines(difflib.unified_diff(
                    _text(golden[key]).splitlines(keepends=True),
                    _text(got).splitlines(keepends=True),
                    f"golden: {key}", f"current: {key}"))
        print("  " + "  ".join(f"{label}: {count}" for label, count in counts.items()))
        any_differ |= counts["differs"] > 0
        if args.write:
            if counts["differs"]:
                print(f"{name} left as it is", file=sys.stderr)
            else:
                path.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
                print(f"wrote {path.relative_to(ROOT)}")
    return 1 if any_differ else 0


if __name__ == "__main__":
    sys.exit(main())
