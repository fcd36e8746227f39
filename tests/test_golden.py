"""Golden CLI output: the stdout and exit code of classify, closed-form,
accelerate and check, human and --json, on every example problem.

tests/golden/examples.json was written once from the CLI and is never
regenerated by this test; a refactor that keeps the output byte-identical
keeps it passing."""

import json
from pathlib import Path

import pytest

from loopacc import cli
from loopacc.expr import reset_fresh_counter

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "examples.json").read_text())


def run_cli(argv, capsys):
    """cli.main in-process, with the fresh-name counter reset as in a new
    process."""
    reset_fresh_counter()
    code = cli.main(argv)
    return capsys.readouterr().out, code


def test_golden_covers_every_example():
    names = {key.split()[1] for key in GOLDEN}
    assert names == {f"examples_problems/{p.name}"
                     for p in (ROOT / "examples_problems").glob("*.loop")}
    assert len(GOLDEN) == 8 * len(names)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_cli_output_is_unchanged(key, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    out, code = run_cli(key.split(), capsys)
    assert out == GOLDEN[key]["stdout"]
    assert code == GOLDEN[key]["exit"]
