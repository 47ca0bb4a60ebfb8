"""Command-line front end.

Subcommands: term, seq, matrix, blocks, verify, bench.  Output formats
are plain (human-aligned), json (big integers as decimal strings), and
csv (header row, all cells quoted).  Exit codes: 0 success, 1 when
verification finds an unexpected failure or the benchmark paths
disagree, 2 on usage or validation errors.  Every refusal, the parser's
and the library's alike, is a ValueError, and main turns each into one
"error:" line and exit 2 in one place.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import re
import sys

from . import bench as bench_mod
from . import builders, matrix, sequences
from .identities import SuiteGrid, SuiteRun, json_chunks, jsonify


# largest matrix dimension (k^r, or 2^r for family L) that `matrix` builds
MATRIX_DIM_CAP = 1024

# largest order that `term`, `seq` and `blocks` take: a sequence starts
# with k + 1 terms, about 25 bytes each, so `term --k ORDER_CAP --j 5`
# peaks at about 250 MiB
ORDER_CAP = 10**7

# largest k * |j| that `term` takes, by either method: its arithmetic grows
# with that product.  `term --k 2 --j 25000000` and `term --k ORDER_CAP
# --j 5` are at the cap; the first takes about 17 s on a 2-CPU machine,
# where `--j 1000000000` would make a term of about 2*10^8 digits.  It
# also bounds dim^2 * |j| of `matrix`, whose dim^2 entries have up to
# about |j| bits each
TERM_CAP = 5 * ORDER_CAP

# largest cost estimate min(k, |j|)^2 * |j|^1.585 that `term --method qpow`
# takes: x^j mod P_k costs about k^2/2 Karatsuba squarings of ints of up to
# |j| bits per bit of j, fewer while j < k leaves the coefficients sparse
# (two at k = 2, where the estimate overstates by 3/2; it is kept, as at
# k = 2 TERM_CAP refuses every j before this cap would).
# On a 2-CPU machine (Python 3.11.7) that read 0.7 to 3.7 s per 10^12:
# `--k 1000 --j 50000` (2.8*10^13) took 45 s; `--k 5 --j 10000000`
# (3.1*10^12) and `--k 12 --j 4000000` (4.2*10^12), inside the cap, about 9 s
QPOW_CAP = 5 * 10**12


# longest quoted value that a usage error echoes back whole
ECHO_CHARS = 40


def _shorten(quoted: re.Match) -> str:
    """A quoted value cut to its first ECHO_CHARS characters."""
    text = quoted[0]
    if len(text) <= ECHO_CHARS + 2:
        return text
    return text[: ECHO_CHARS + 1] + "..." + quoted[1]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse echoes a rejected value whole, and an integer flag may
        # carry thousands of digits
        raise ValueError(re.sub(r"""(['"]).*?\1""", _shorten, message))


def _build_parser() -> _Parser:
    parser = _Parser(prog="kbonacci", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run):
        """The flags every subcommand takes, and the handler that main runs."""
        p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        p.set_defaults(run=run)

    p = sub.add_parser("term", help="one sequence term")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--method", choices=("iter", "qpow"), default="iter")
    add_common(p, _cmd_term)

    p = sub.add_parser("seq", help="a contiguous run of terms, negative indices included")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--from", dest="j_lo", type=int, required=True)
    p.add_argument("--to", dest="j_hi", type=int, required=True)
    add_common(p, _cmd_seq)

    p = sub.add_parser("matrix", help="one member of a matrix family")
    p.add_argument("--family", choices=("F", "L", "Q"), default="F")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--j", type=int, default=None)
    add_common(p, _cmd_matrix)

    p = sub.add_parser("blocks", help="backward blocks with property annotations")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    add_common(p, _cmd_blocks)

    p = sub.add_parser("verify", help="run identity checkers and report")
    p.add_argument("--suite", default="all", help="'all' or comma-separated checker ids")
    # each dest is the SuiteGrid field the flag sets
    p.add_argument("--max-k", type=int)
    p.add_argument("--max-r", type=int)
    p.add_argument("--max-n", dest="n_max", metavar="MAX_N", type=int)
    p.add_argument("--max-m", dest="m_max", metavar="MAX_M", type=int)
    p.add_argument("--max-j", dest="j_max", metavar="MAX_J", type=int)
    p.add_argument("--min-j", dest="j_min", metavar="MIN_J", type=int)
    add_common(p, _cmd_verify)

    p = sub.add_parser("bench", help="time the plain recurrence against x^j mod P_k evaluation")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j-max", dest="j_max", type=int, required=True)
    p.add_argument("--step", type=int, default=None)
    add_common(p, _cmd_bench)

    return parser


def _emit(chunks, output: str | None) -> None:
    """Write the chunks to output, or to stdout when it is None, as they
    come.  A file the chunks fail to fill is removed."""
    if output is None:
        try:
            _write(chunks, sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped reading, as `| head` does: end quietly,
            # and keep the flush at exit from failing again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    handle = open(output, "w", encoding="utf-8")
    try:
        with handle:
            _write(chunks, handle)
    except BaseException:
        os.remove(output)
        raise


def _write(chunks, handle) -> None:
    last = ""
    for chunk in chunks:
        handle.write(chunk)
        last = chunk or last
    if not last.endswith("\n"):
        handle.write("\n")


def _csv_chunks(header, rows):
    """The header and then each row as CSV text, all cells quoted, one
    chunk per row; int cells are written by matrix.decimal_text."""
    # imported here: no command but a csv one needs it
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="\n")
    for row in itertools.chain((header,), rows):
        writer.writerow([matrix.decimal_text(c) if type(c) is int else c for c in row])
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _check_order(k) -> None:
    """Refuse k > ORDER_CAP before any term is made; k < 2 is left to the
    library's own check."""
    if k > ORDER_CAP:
        raise ValueError(f"--k exceeds the order cap of {ORDER_CAP}")


def _check_qpow(k, j) -> None:
    """Refuse x^j mod P_k whose cost estimate exceeds QPOW_CAP; k and |j|
    are already bounded by the term cap."""
    if min(k, abs(j)) ** 2 * abs(j) ** 1.585 > QPOW_CAP:
        raise ValueError(f"--method qpow's cost estimate min(k, |j|)^2 * |j|^1.585 exceeds the cap of {QPOW_CAP}")


def _cmd_term(args) -> int:
    _check_order(args.k)
    if args.k * abs(args.j) > TERM_CAP:
        raise ValueError(f"--k times |--j| exceeds the term cap of {TERM_CAP}")
    if args.method == "qpow":
        _check_qpow(args.k, args.j)
        value = builders.fast_term(args.k, args.j)
    else:
        value = sequences.term(args.k, args.j)
    if args.format == "plain":
        chunks = [matrix.decimal_text(value)]
    elif args.format == "json":
        chunks = json_chunks({"k": args.k, "j": args.j, "method": args.method, "value": value})
    else:
        chunks = _csv_chunks(("k", "j", "method", "value"), [(args.k, args.j, args.method, value)])
    _emit(chunks, args.output)
    return 0


def _cmd_seq(args) -> int:
    _check_order(args.k)
    if args.k * max(abs(args.j_lo), abs(args.j_hi)) > TERM_CAP:
        raise ValueError(f"--k times max(|--from|, |--to|) exceeds the term cap of {TERM_CAP}")
    values = sequences.term_range(args.k, args.j_lo, args.j_hi)
    indices = range(args.j_lo, args.j_hi + 1)
    if args.format == "plain":
        cells = [matrix.decimal_text(v) for v in values]
        jw = max(len(matrix.decimal_text(j)) for j in indices)
        vw = max(len(c) for c in cells)
        chunks = (f"{matrix.decimal_text(j).rjust(jw)}  {c.rjust(vw)}\n" for j, c in zip(indices, cells))
    elif args.format == "json":
        chunks = json_chunks({"k": args.k, "j_lo": args.j_lo, "j_hi": args.j_hi, "values": values})
    else:
        chunks = _csv_chunks(("j", "value"), zip(indices, values))
    _emit(chunks, args.output)
    return 0


def _check_matrix_size(k, r, j) -> None:
    """Refuse k^r > MATRIX_DIM_CAP, then (k^r)^2 * |j| > TERM_CAP, before
    anything is built; j is None for family Q, whose entries are 0 and 1.
    k >= 2 at least doubles the dimension per level, so r past the cap's
    bit length is refused without forming k^r; smaller k or r are left to
    the builders' own checks."""
    if k < 2 or r < 1:
        return
    if r > MATRIX_DIM_CAP.bit_length() or k**r > MATRIX_DIM_CAP:
        raise ValueError(f"matrix dimension {k}^{r} exceeds the cap of {MATRIX_DIM_CAP}")
    if j is not None and k ** (2 * r) * abs(j) > TERM_CAP:
        raise ValueError(f"matrix dimension squared times |--j| exceeds the term cap of {TERM_CAP}")


def _cmd_matrix(args) -> int:
    family, r, j = args.family, args.r, args.j
    if family == "L" and args.k not in (None, 2):
        raise ValueError("family L is order 2 only; omit --k or pass --k 2")
    if family == "Q" and j is not None:
        raise ValueError("family Q does not take --j")
    k = 2 if family == "L" else args.k
    if k is None:
        raise ValueError(f"family {family} requires --k")
    if j is None and family != "Q":
        raise ValueError(f"family {family} requires --j")
    _check_matrix_size(k, r, j)
    if family == "L":
        m = builders.build_lucas(r, j)
    elif family == "Q":
        m = builders.build_q(k, r)
    else:
        m = builders.build_higher(k, r, j)
    if args.format == "plain":
        chunks = [matrix.to_text(m)]
    elif args.format == "json":
        # "dim" has always been a JSON number here
        chunks = json_chunks(matrix.to_json_dict(m), quote_ints=False)
    else:
        chunks = _csv_chunks(tuple(f"col_{i + 1}" for i in range(m.dim)), m.rows)
    _emit(chunks, args.output)
    return 0


def _blocks_plain(pairs):
    """Two lines per block: its indices and values, then its properties."""
    for block, props in pairs:
        lo, hi = block.indices[-1], block.indices[0]
        values = " ".join(map(matrix.decimal_text, block.values))
        annotations = "  ".join(f"{name}={'yes' if ok else 'no'}" for name, ok in props.as_dict().items())
        yield f"block {block.index}  indices {hi}..{lo}  values: {values}\n  {annotations}\n"


def _cmd_blocks(args) -> int:
    _check_order(args.k)
    if args.count < 0:
        raise ValueError("--count must be >= 0")
    sequences._validate_order(args.k)
    # each block is made as it is written
    blocks = (sequences.backward_block(args.k, n) for n in range(args.count))
    pairs = ((block, sequences._properties_of(block)) for block in blocks)
    if args.format == "plain":
        chunks = _blocks_plain(pairs) if args.count else ["no blocks requested"]
    elif args.format == "json":
        items = (
            {"n": block.index, "indices": block.indices, "values": block.values, "properties": props.as_dict()}
            for block, props in pairs
        )
        chunks = json_chunks({"k": args.k, "count": args.count, "blocks": items})
    else:
        rows = ((block.index, " ".join(map(matrix.decimal_text, block.values)), *props) for block, props in pairs)
        chunks = _csv_chunks(("n", "values", *sequences.BlockProperties._fields), rows)
    _emit(chunks, args.output)
    return 0


def _verify_plain(run):
    """One line per case as it is made, then the status counts and the
    verdict."""
    for case in run:
        params = " ".join(f"{key}={case.params[key]}" for key in sorted(case.params))
        status = case.status
        if status == "fails":
            status = "fails (UNEXPECTED)" if case.unexpected else "fails (expected)"
        yield f"{case.checker:20} {status:20} {params}\n"
    counts = run.counts
    yield (
        "\ncases: {total}  holds: {holds}  holds-corrected: {corrected}  "
        "fails: {fails} (unexpected: {unexpected})  skipped: {skipped}\n"
    ).format(total=sum(counts.values()), corrected=counts["holds-corrected"], unexpected=run.unexpected, **counts)
    yield f"pass: {'yes' if run.passed else 'no'}\n"


def _cmd_verify(args) -> int:
    flags = {name: getattr(args, name, None) for name in SuiteGrid._fields}
    grid = SuiteGrid(**{name: value for name, value in flags.items() if value is not None})
    selection = None if args.suite.strip() == "all" else [s.strip() for s in args.suite.split(",") if s.strip()]
    # checks the selection and the grid before anything is written
    run = SuiteRun(selection, grid)
    if args.format == "plain":
        chunks = _verify_plain(run)
    elif args.format == "json":
        chunks = run.json_chunks()
    else:
        rows = ((c.checker, c.status, json.dumps(jsonify(c.params), sort_keys=True)) for c in run)
        chunks = _csv_chunks(("id", "status", "params"), rows)
    _emit(chunks, args.output)
    # a reader that stops early, as `| head` does, leaves cases unmade;
    # the verdict covers them too
    for _ in run:
        pass
    return 0 if run.passed else 1


def _cmd_bench(args) -> int:
    _check_order(args.k)
    js = bench_mod.bench_indices(args.k, args.j_max, args.step)
    # both paths run at every row, so the term cap bounds the rows' total
    if args.k * len(js) * (js[0] + js[-1]) // 2 > TERM_CAP:
        raise ValueError(f"--k times the sum of the rows' j exceeds the term cap of {TERM_CAP}")
    _check_qpow(args.k, args.j_max)
    rows = bench_mod.run_bench(args.k, args.j_max, args.step)
    if args.format == "plain":
        header = f"{'j':>10}  {'iter_seconds':>14}  {'qpow_seconds':>14}  {'digits':>10}"
        body = [
            f"{row.j:>10}  {row.iter_seconds:>14.6f}  {row.qpow_seconds:>14.6f}  {row.digits:>10}"
            for row in rows
        ]
        chunks = ["\n".join([header, *body])]
    elif args.format == "json":
        payload = {"k": args.k, "j_max": args.j_max, "step": js.step, "rows": [row._asdict() for row in rows]}
        chunks = json_chunks(payload)
    else:
        chunks = _csv_chunks(bench_mod.BenchRow._fields, rows)
    _emit(chunks, args.output)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except bench_mod.BenchMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
