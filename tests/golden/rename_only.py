"""Compare the CLI's current output on every key of examples.json with the
golden, modulo renumbered fresh names.

Each key runs through ``cli.main`` in-process with the fresh-name counter
reset, as ``tests/test_golden.py`` runs it.  An output matches up to
renumbering when its exit code is the golden's, and its stdout becomes the
golden's under one bijection between the ``name!k`` tokens of the two texts
that keeps each token's name.  The script prints how many outputs are
identical, how many are renumbered only and how many differ, and exits 1
when any differs.

    python3 tests/golden/rename_only.py           # report
    python3 tests/golden/rename_only.py --write   # also rewrite examples.json

``--write`` rewrites examples.json with the current outputs, and only when no
output differs beyond renumbering.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden" / "examples.json"
FRESH = re.compile(r"([^\s()\"\\!]+)!(\d+)")


def run(key: str) -> dict:
    """stdout and exit code of one key, from a reset fresh-name counter."""
    from loopacc import cli
    from loopacc.expr import reset_fresh_counter

    reset_fresh_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(key.split())
    return {"exit": code, "stdout": out.getvalue()}


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite examples.json when nothing differs beyond renumbering")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text())
    current, identical, renamed, differ = {}, 0, 0, []
    for key in sorted(golden):
        current[key] = got = run(key)
        want = golden[key]
        if got == want:
            identical += 1
        elif got["exit"] == want["exit"] and renumbered(want["stdout"], got["stdout"]):
            renamed += 1
        else:
            differ.append(key)
    print(f"identical: {identical}  renumbered only: {renamed}  differ: {len(differ)}")
    for key in differ:
        print(f"  differs: {key}")
    if args.write:
        if differ:
            print("examples.json left as it is", file=sys.stderr)
        else:
            GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
            print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
