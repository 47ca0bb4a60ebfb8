"""The package and its tests keep to the Python 3.10 grammar."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    """Checks grammar only: a library call added after 3.10, or a changed
    behaviour, parses as well under 3.10 and is not caught here."""
    paths = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
    assert len(paths) > 20
    for path in paths:
        # a SyntaxError names the file and line
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
