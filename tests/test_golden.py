"""Golden CLI output: the stdout and exit code of classify, closed-form,
accelerate and check, human and --json, on every example problem; and the
solver dialogue that check --smt-log writes for each of them.

tests/golden/examples.json and tests/golden/smtlog.json were written once from
the CLI and are never regenerated by this test; a refactor that keeps the
output byte-identical keeps it passing.  smtlog.json maps each example to its
dialogue, or to null when check writes no log (the file has no post)."""

import json
from pathlib import Path

import pytest

from loopacc import cli
from loopacc.expr import reset_fresh_counter

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "examples.json").read_text())
SMTLOG = json.loads((ROOT / "tests" / "golden" / "smtlog.json").read_text())


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
    assert set(SMTLOG) == names


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_cli_output_is_unchanged(key, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    out, code = run_cli(key.split(), capsys)
    assert out == GOLDEN[key]["stdout"]
    assert code == GOLDEN[key]["exit"]


@pytest.mark.parametrize("path", sorted(SMTLOG))
def test_smt_log_dialogue_is_unchanged(path, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    log = tmp_path / "smt.log"
    run_cli(["check", path, "--smt-log", str(log)], capsys)
    assert (log.read_text() if log.exists() else None) == SMTLOG[path]
