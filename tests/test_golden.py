"""Golden outputs: the default-grid verify report in every format, the
dense-grid JSON report, plain and csv output of the commands that read
terms and matrices, and the README's CLI examples.

A refactor that keeps these bytes keeps the observable behaviour.  The
report hashes are SHA-256 over the output with every line containing
"generated_at" removed (the dense report is built without one); the
trailing newline, where the output has one, is part of the hashed bytes.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from kbonacci.cli import main
from kbonacci.identities import SuiteGrid, run_suite

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


# the dense grid reaches matrices of dimension 27 and 64, which the
# default grid leaves out
DENSE_GRID = SuiteGrid(max_k=4, max_r=3, dim_cap=64)
VERIFY_DENSE_JSON_SHA256 = "94126a4ce3c0a64192b0848ce35a45d38acbe664a45ad7245ebd876c818ec6f3"


def test_verify_dense_grid_golden():
    text = run_suite(None, DENSE_GRID).to_json(include_timestamp=False)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_DENSE_JSON_SHA256


# SHA-256 of the whole output.  The seq ranges cross WINDOW_CAP = 4096 on
# each side, so they read the window and the frame beyond it.
COMMAND_SHA256 = {
    ("seq --k 3 --from 4090 --to 4100", "plain"): "f52b4976617097a273b1b1f1162de26140808634fede034d38f1708faaa30d1c",
    ("seq --k 3 --from 4090 --to 4100", "csv"): "631911aaf2f8a225d136953c00db673866bf6825438a4664c4c25a00e27eb2c1",
    ("seq --k 5 --from -4100 --to -4090", "plain"): "9e3f4a1995da87333d5e61f4053b023e90f558952f415e45f7cc916d0e35d4b8",
    ("seq --k 5 --from -4100 --to -4090", "csv"): "5a0510a830067a8ad77c9ba9d57c8cea165fdf79eb661ffb6e01780870f3ae75",
    ("blocks --k 4 --count 3", "plain"): "ca51963a07bb5a99e5e2373c247723431ccb6431f56f943fca1e202c8d45dc84",
    ("blocks --k 4 --count 3", "csv"): "d76b5b19b5f971d2b6f9d62c9cec201cd5ce03eef9d91bd2e9d08137202375c4",
    ("matrix --k 3 --r 2 --j -7", "plain"): "dd3e2ff58277543450b5080b12705a935e0f3627b2d9472a2b69ce22f9d987a9",
    ("matrix --k 3 --r 2 --j -7", "csv"): "9c657285f0a46069cab2ae57128c070c7a8e1d62d997d9d761ac440a343dfd72",
    ("matrix --family L --r 2 --j 9", "plain"): "bbf84bc14aaec426600c92fb5df9f819ffbb958f7439debfd780c16f1fa2a33e",
    ("matrix --family L --r 2 --j 9", "csv"): "cbf89c9f98d39ef515a20f1605d6fe54b4ebf6b1c18e53cef004968894809291",
    ("matrix --family Q --k 3 --r 2", "plain"): "5f6f7973694c503edc58e7b7824b345ea8611d5ed5aa175e9c2ec73ea600791b",
    ("matrix --family Q --k 3 --r 2", "csv"): "4604715fca9aa0694701a1de2accdbc08e04b4c572f3eb4473147e3414189e51",
}


@pytest.mark.parametrize("command, fmt", sorted(COMMAND_SHA256))
def test_command_golden(capsys, command, fmt):
    out = run(capsys, [*command.split(), "--format", fmt])
    assert hashlib.sha256(out.encode()).hexdigest() == COMMAND_SHA256[command, fmt]


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
