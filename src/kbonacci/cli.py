"""Command-line front end.

Subcommands: term, seq, matrix, blocks, verify, bench.  Output formats
are plain (human-aligned), json (big integers as decimal strings), and
csv (header row, all cells quoted).  Exit codes: 0 success, 1 when
verification finds an unexpected failure or the benchmark paths
disagree, 2 on usage or validation errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import bench as bench_mod
from . import builders, matrix, sequences
from .identities import SuiteGrid, jsonify, run_suite


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kbonacci", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")

    p = sub.add_parser("term", help="one sequence term")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--method", choices=("iter", "qpow"), default="iter")
    add_common(p)

    p = sub.add_parser("seq", help="a contiguous run of terms, negative indices included")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--from", dest="j_lo", type=int, required=True)
    p.add_argument("--to", dest="j_hi", type=int, required=True)
    add_common(p)

    p = sub.add_parser("matrix", help="one member of a matrix family")
    p.add_argument("--family", choices=("F", "L", "Q"), default="F")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--j", type=int, default=None)
    add_common(p)

    p = sub.add_parser("blocks", help="backward blocks with property annotations")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    add_common(p)

    p = sub.add_parser("verify", help="run identity checkers and report")
    p.add_argument("--suite", default="all", help="'all' or comma-separated checker ids")
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--max-r", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--max-j", type=int, default=None)
    p.add_argument("--min-j", type=int, default=None)
    add_common(p)

    p = sub.add_parser("bench", help="time iterative vs companion-power evaluation")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j-max", dest="j_max", type=int, required=True)
    p.add_argument("--step", type=int, default=None)
    add_common(p)

    return parser


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _cmd_term(args) -> int:
    if args.method == "qpow":
        value = builders.fast_term(args.k, args.j)
    else:
        value = sequences.term(args.k, args.j)
    if args.format == "plain":
        text = str(value)
    elif args.format == "json":
        text = _json_text(jsonify({"k": args.k, "j": args.j, "method": args.method, "value": value}))
    else:
        text = _csv_text(("k", "j", "method", "value"), [(args.k, args.j, args.method, value)])
    _emit(text, args.output)
    return 0


def _cmd_seq(args) -> int:
    values = sequences.term_range(args.k, args.j_lo, args.j_hi)
    indices = range(args.j_lo, args.j_hi + 1)
    if args.format == "plain":
        jw = max(len(str(j)) for j in indices)
        vw = max(len(str(v)) for v in values)
        text = "\n".join(f"{str(j).rjust(jw)}  {str(v).rjust(vw)}" for j, v in zip(indices, values))
    elif args.format == "json":
        text = _json_text(
            jsonify({"k": args.k, "j_lo": args.j_lo, "j_hi": args.j_hi, "values": values})
        )
    else:
        text = _csv_text(("j", "value"), list(zip(indices, values)))
    _emit(text, args.output)
    return 0


def _cmd_matrix(args) -> int:
    family = args.family
    if family == "L":
        if args.k not in (None, 2):
            raise _UsageError("family L is order 2 only; omit --k or pass --k 2")
        if args.j is None:
            raise _UsageError("family L requires --j")
        m = builders.build_lucas(args.r, args.j)
    elif family == "Q":
        if args.j is not None:
            raise _UsageError("family Q does not take --j")
        if args.k is None:
            raise _UsageError("family Q requires --k")
        m = builders.build_q(args.k, args.r)
    else:
        if args.k is None:
            raise _UsageError("family F requires --k")
        if args.j is None:
            raise _UsageError("family F requires --j")
        m = builders.build_higher(args.k, args.r, args.j)
    if args.format == "plain":
        text = matrix.to_text(m)
    elif args.format == "json":
        text = _json_text(matrix.to_json_dict(m))
    else:
        text = _csv_text(
            tuple(f"col_{i + 1}" for i in range(m.dim)),
            [tuple(row) for row in m.rows],
        )
    _emit(text, args.output)
    return 0


def _cmd_blocks(args) -> int:
    if args.count < 0:
        raise _UsageError("--count must be >= 0")
    blocks = []
    for n in range(args.count):
        block = sequences.backward_block(args.k, n)
        props = sequences.block_properties(args.k, n)
        blocks.append((block, props))
    if args.format == "plain":
        lines = []
        for block, props in blocks:
            lo, hi = block.indices[-1], block.indices[0]
            values = " ".join(str(v) for v in block.values)
            lines.append(f"block {block.index}  indices {hi}..{lo}  values: {values}")
            annotations = "  ".join(f"{name}={'yes' if ok else 'no'}" for name, ok in props.as_dict().items())
            lines.append(f"  {annotations}")
        text = "\n".join(lines) if lines else "no blocks requested"
    elif args.format == "json":
        text = _json_text(
            jsonify(
                {
                    "k": args.k,
                    "count": args.count,
                    "blocks": [
                        {
                            "n": block.index,
                            "indices": list(block.indices),
                            "values": list(block.values),
                            "properties": props.as_dict(),
                        }
                        for block, props in blocks
                    ],
                }
            )
        )
    else:
        prop_names = (
            list(blocks[0][1].as_dict()) if blocks else list(sequences.block_properties(args.k, 0).as_dict())
        )
        rows = [
            (block.index, " ".join(str(v) for v in block.values), *(props.as_dict()[p] for p in prop_names))
            for block, props in blocks
        ]
        text = _csv_text(("n", "values", *prop_names), rows)
    _emit(text, args.output)
    return 0


def _cmd_verify(args) -> int:
    grid_kwargs = {}
    for flag, field_name in (
        ("max_k", "max_k"),
        ("max_r", "max_r"),
        ("max_n", "n_max"),
        ("max_m", "m_max"),
        ("max_j", "j_max"),
        ("min_j", "j_min"),
    ):
        value = getattr(args, flag)
        if value is not None:
            grid_kwargs[field_name] = value
    grid = SuiteGrid(**grid_kwargs)
    selection = None if args.suite.strip() == "all" else [s.strip() for s in args.suite.split(",") if s.strip()]
    result = run_suite(selection, grid)
    if args.format == "plain":
        lines = []
        for case in result.cases:
            params = " ".join(f"{key}={case.params[key]}" for key in sorted(case.params))
            status = case.status
            if status == "fails":
                status = "fails (expected)" if case.reason is not None else "fails (UNEXPECTED)"
            lines.append(f"{case.checker:20} {status:20} {params}")
        counts = result.status_counts()
        lines.append("")
        lines.append(
            "cases: {total}  holds: {holds}  holds-corrected: {corrected}  "
            "fails: {fails} (unexpected: {unexpected})  skipped: {skipped}".format(
                total=len(result.cases),
                holds=counts["holds"],
                corrected=counts["holds-corrected"],
                fails=counts["fails"],
                unexpected=len(result.unexpected_failures()),
                skipped=counts["skipped"],
            )
        )
        lines.append(f"pass: {'yes' if result.passed else 'no'}")
        text = "\n".join(lines)
    elif args.format == "json":
        text = result.to_json()
    else:
        rows = [
            (case.checker, case.status, json.dumps(jsonify(case.params), sort_keys=True))
            for case in result.cases
        ]
        text = _csv_text(("id", "status", "params"), rows)
    _emit(text, args.output)
    return 0 if result.passed else 1


def _cmd_bench(args) -> int:
    rows = bench_mod.run_bench(args.k, args.j_max, args.step)
    if args.format == "plain":
        header = f"{'j':>10}  {'iter_seconds':>14}  {'qpow_seconds':>14}  {'digits':>10}"
        body = [
            f"{row.j:>10}  {row.iter_seconds:>14.6f}  {row.qpow_seconds:>14.6f}  {row.digits:>10}"
            for row in rows
        ]
        text = "\n".join([header, *body])
    elif args.format == "json":
        payload = {
            "k": str(args.k),
            "j_max": str(args.j_max),
            "step": str(args.step if args.step is not None else args.j_max),
            "rows": [
                {
                    "j": str(row.j),
                    "iter_seconds": row.iter_seconds,
                    "qpow_seconds": row.qpow_seconds,
                    "digits": str(row.digits),
                }
                for row in rows
            ],
        }
        text = _json_text(payload)
    else:
        text = _csv_text(
            ("j", "iter_seconds", "qpow_seconds", "digits"),
            [(row.j, row.iter_seconds, row.qpow_seconds, row.digits) for row in rows],
        )
    _emit(text, args.output)
    return 0


_HANDLERS = {
    "term": _cmd_term,
    "seq": _cmd_seq,
    "matrix": _cmd_matrix,
    "blocks": _cmd_blocks,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    # Terms outgrow the 4,300-digit int-to-text limit of Python 3.11 and
    # later (and of patched 3.10 releases); lift it for this call only.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(previous)


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except bench_mod.BenchMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
