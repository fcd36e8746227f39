"""SMT-LIB2 server over stdin/stdout backed by the bundled ground solver: one
``session.Session`` answers the commands read from stdin.  Run as
``loopacc-smt`` or ``python -m loopacc.solver.server``.
"""

from __future__ import annotations

import argparse
import sys

from ..sexpr import ParseError, balanced, read_all as parse_forms
# The session has its own module: loopacc/__init__ imports the backend, which
# imports the session, so a session defined here would be loaded twice under
# ``-m``, once by name and once as __main__.  Clients of the server module use
# these names from here.
from .session import Session, SmtError, error_text, smt_string  # noqa: F401


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="loopacc-smt", description=__doc__)
    ap.add_argument("--timeout", type=float, default=None,
                    help="seconds per check-sat before answering unknown")
    args = ap.parse_args(argv)
    session = Session(timeout=args.timeout)
    buf = ""
    for line in sys.stdin:
        buf += line
        if not balanced(buf):
            continue
        try:
            forms = parse_forms(buf)
        except ParseError as exc:
            print(error_text(str(exc)), flush=True)
            buf = ""
            continue
        buf = ""
        for form in forms:
            try:
                out = session.command(form)
            except ParseError as exc:
                print(error_text(str(exc)), flush=True)
                continue
            except Exception as exc:  # never die mid-protocol
                print(error_text(f"internal: {exc}"), flush=True)
                continue
            if out is None:
                return 0
            if out:
                print(out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
