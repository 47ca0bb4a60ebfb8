"""Start-up budget: importing the package and its CLI loads none of the
stdlib modules that are costly to import and unneeded by most commands
and compiles no matrix kernel, and the csv writer, imported only when a
command writes csv, still writes the golden bytes in a fresh
interpreter."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import kbonacci
from test_golden import COMMAND_SHA256, VERIFY_DEFAULT_SHA256

SRC = os.path.dirname(os.path.dirname(os.path.abspath(kbonacci.__file__)))

# dataclasses pulls in inspect, and inspect ast and dis
UNWANTED = ("dataclasses", "inspect", "datetime", "csv")


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


def test_import_loads_none_of_the_unwanted_modules():
    # -S keeps site's own imports out of the list
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import kbonacci, kbonacci.cli\n"
        f"print(' '.join(name for name in {UNWANTED!r} if name in sys.modules))\n"
    )
    proc = run_python("-S", "-c", code)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"\n"


def test_import_compiles_no_product_kernel():
    # nor any other kernel
    # kernels compile at the first operation of their kind and dimension,
    # inside the command that needs them
    kernels = ("_product_kernel", "_sum_kernel", "_difference_kernel", "_scale_kernel")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import kbonacci, kbonacci.cli\n"
        f"print([getattr(kbonacci.matrix, name).cache_info().currsize for name in {kernels!r}])\n"
    )
    proc = run_python("-S", "-c", code)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"[0, 0, 0, 0]\n"


def test_csv_outputs_in_a_fresh_interpreter():
    proc = run_python("-m", "kbonacci", "verify", "--format", "csv")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_DEFAULT_SHA256["csv"]
    command = "blocks --k 4 --count 3"
    proc = run_python("-m", "kbonacci", *command.split(), "--format", "csv")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == COMMAND_SHA256[command, "csv"]
