"""Exact bidirectional k-bonacci sequences, their recursive block matrix
families, and an executable identity verification suite."""

from .bench import BenchMismatch, BenchRow, dec_digits, iterative_term, run_bench
from .builders import build_base, build_higher, build_lucas, build_q, fast_f, fast_term
from .expectations import EXPECTED_DEVIATIONS, ExpectedDeviation, expected_reason
from .identities import (
    CHECKER_IDS,
    CHECKERS,
    CheckCase,
    CheckerParams,
    SuiteGrid,
    SuiteResult,
    json_chunks,
    jsonify,
    run_suite,
)
from .matrix import (
    SquareMatrix,
    compose,
    decompose,
    from_json_dict,
    identity,
    to_json_dict,
    to_text,
    zeros,
)
from .sequences import (
    BackwardBlock,
    BlockProperties,
    KbonacciSequence,
    LucasSequence,
    backward_block,
    block_properties,
    closed_form_band,
    fibonacci_term,
    lucas_term,
    term,
    term_range,
)

__version__ = "0.1.0"

__all__ = [
    "BackwardBlock",
    "BenchMismatch",
    "BenchRow",
    "BlockProperties",
    "CHECKERS",
    "CHECKER_IDS",
    "CheckCase",
    "CheckerParams",
    "EXPECTED_DEVIATIONS",
    "ExpectedDeviation",
    "KbonacciSequence",
    "LucasSequence",
    "SquareMatrix",
    "SuiteGrid",
    "SuiteResult",
    "backward_block",
    "block_properties",
    "build_base",
    "build_higher",
    "build_lucas",
    "build_q",
    "closed_form_band",
    "compose",
    "dec_digits",
    "decompose",
    "expected_reason",
    "fast_f",
    "fast_term",
    "fibonacci_term",
    "from_json_dict",
    "identity",
    "iterative_term",
    "json_chunks",
    "jsonify",
    "lucas_term",
    "run_bench",
    "run_suite",
    "term",
    "term_range",
    "to_json_dict",
    "to_text",
    "zeros",
    "__version__",
]
