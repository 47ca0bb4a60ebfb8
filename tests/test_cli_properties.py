"""Property test of the command-line exit contract.

Over argv drawn for every subcommand and an unknown one, with good and
bad values, unknown and repeated flags, main must return 0, 1 or 2
without raising; an exit 2 writes exactly one stderr line, starting
"error: ", and an exit 0 writes nothing to stderr.  main runs in process
with both streams sent to StringIO.  Every verify argv ends with a tiny
grid, whose flags win because they come last.  --output is never drawn,
so nothing is written outside the streams.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from kbonacci.cli import main

# each subcommand's flags, those it requires first
FLAGS = {
    "term": ("--k", "--j", "--method"),
    "seq": ("--k", "--from", "--to"),
    "matrix": ("--k", "--r", "--j", "--family"),
    "blocks": ("--k", "--count"),
    "verify": ("--suite", "--max-k", "--max-r", "--max-n", "--max-m", "--max-j", "--min-j"),
    "bench": ("--k", "--j-max", "--step"),
    "nope": ("--k",),
}
REQUIRED = {"term": 2, "seq": 3, "matrix": 3, "blocks": 2, "bench": 2}
CHOICES = {
    "--format": ("plain", "json", "csv", "xml"),
    "--method": ("iter", "qpow", "x"),
    "--family": ("F", "L", "Q", "X"),
    "--suite": ("all", "geometric", "no_such_checker", "geometric,fl_double"),
}
VALUES = st.sampled_from((*map(str, range(-3, 6)), "2.5", "x", "", "1e3", "--k"))
TINY_GRID = ("--max-k", "2", "--max-r", "1", "--max-n", "2", "--max-m", "2", "--max-j", "2")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    # most argv give the required flags, so that many runs get past the parser
    required = FLAGS[command][: REQUIRED.get(command, 0)] if draw(st.integers(0, 3)) else ()
    for flag in (*required, *draw(st.lists(st.sampled_from((*FLAGS[command], "--format", "--bogus")), max_size=4))):
        argv += [flag, draw(st.sampled_from(CHOICES[flag]) if flag in CHOICES else VALUES)]
    if command == "verify":
        argv += TINY_GRID
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_every_argv_ends_in_an_answer_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
    if code == 0:
        assert err.getvalue() == "", argv
