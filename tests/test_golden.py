"""Golden outputs: the default-grid verify report in every format and the
README's CLI examples.

A refactor that keeps these bytes keeps the observable behaviour.  The
report hashes are SHA-256 over the output with every line containing
"generated_at" removed; the trailing newline is part of the hashed bytes.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from kbonacci.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

VERIFY_DEFAULT_SHA256 = {
    "json": "fb06a52f90db8ab5069f777c66c9e9c512299cfb0079f71c8c9ffd2f736b49fb",
    "plain": "6668fb30eb25d78fd06cd185ac38baf3a36a03045382b329c5021dba266fe4e7",
    "csv": "b91721d7661c1546468c4ceaf5b29ff58729770426422bd81e6db13a40d2d634",
}


def run(capsys, argv: list[str]) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


@pytest.mark.parametrize("fmt", sorted(VERIFY_DEFAULT_SHA256))
def test_verify_default_grid_golden(capsys, fmt):
    out = run(capsys, ["verify", "--format", fmt])
    kept = "".join(line for line in out.splitlines(keepends=True) if '"generated_at"' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == VERIFY_DEFAULT_SHA256[fmt]


def readme_cli_examples() -> dict[str, list[str]]:
    """Command line (after "$ kbonacci ") -> the output lines shown below
    it, from the README's CLI section."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    examples: dict[str, list[str]] = {}
    for chunk in re.split(r"^\$ kbonacci ", block, flags=re.M)[1:]:
        command, *output = chunk.rstrip("\n").split("\n")
        examples[command] = output
    return examples


@pytest.mark.parametrize(
    "command",
    ["term --k 3 --j 10", "seq --k 2 --from -4 --to 6", "matrix --family L --r 1 --j 4"],
)
def test_readme_cli_example_in_full(capsys, command):
    shown = readme_cli_examples()[command]
    assert run(capsys, command.split()).splitlines() == shown


def test_readme_verify_example_summary(capsys):
    command = "verify --suite geometric --max-k 2 --max-n 4 --max-m 4 --min-j -2 --max-j 4"
    shown = readme_cli_examples()[command]
    assert shown[0] == "..."
    assert run(capsys, command.split()).splitlines()[-2:] == shown[-2:]
