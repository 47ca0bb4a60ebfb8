"""Benchmark: cold-process kbonacci operations in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs no build and writes only
under .bench_build/ there.  Each operation runs in a fresh child
interpreter (perfbench/child.py) that imports kbonacci from the
checkout's src/, so it sees cold lru_caches and sequence windows, as
every CLI user does.  One client: the next child starts only after the
previous one has exited, and new children start until --seconds have
passed.  Every operation's output is checked; a wrong output, an
exception, a nonzero exit or a timeout counts as a failed operation.

--trace 0 reports the end-to-end metrics, medians over the operations:
wall_s and cpu_s of the operation (timed inside the child, after
import), peak_rss_mib of the child, and setup_s, the time from spawning
the child to the kbonacci CLI module being imported, over the
operations' children and set-up probes; the three times are scaled for
the host's speed (see REFERENCE_S).  --trace 1 runs each input twice,
untraced and then traced, and reports the per-layer metrics of the
traced children (see spans.py), unscaled, plus trace.overhead_s, the
median difference between the two wall times.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The lines before it are a readable summary and a record
of the seed and environment.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import oracle
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

CHILD_TIMEOUT_S = 60
# a child runs under this address-space ceiling, so a runaway
# operation fails cleanly instead of exhausting the shared machine
AS_LIMIT = 1 << 30

# Timestamp-free verify reports at the commit that defined this
# benchmark: case count and SHA-256 of the bytes, generated_at line removed.
REPORTS = {
    "verify-default": (4985, "fb06a52f90db8ab5069f777c66c9e9c512299cfb0079f71c8c9ffd2f736b49fb"),
    "verify-dense": (5652, "94126a4ce3c0a64192b0848ce35a45d38acbe664a45ad7245ebd876c818ec6f3"),
}

# term-deep: (function, k, sign of j, lowest |j|, highest |j|).  Window-path
# indices stay at 4*10^4 or below: the term() cache grows quadratically.
TERM_CALLS = (
    ("term", 2, 1, 30_000, 40_000),
    ("term", 3, -1, 30_000, 40_000),
    ("fast_term", 2, 1, 900_000, 1_000_000),
    ("fast_term", 5, 1, 90_000, 100_000),
    ("fast_term", 8, 1, 25_000, 30_000),
)

# The host's speed drifts by tens of percent within seconds, and the
# timings with it.  After each operation the parent times a fixed task of
# its own (reference_s) for about REFERENCE_SHARE of the operation's time;
# the operation's times in seconds are reported multiplied by REFERENCE_S
# over that task's mean time right after it, which cancels the drift.
# REFERENCE_S is the task's mean time on the 2-vCPU VM that defined this
# benchmark, so the figures read as seconds there.
REFERENCE_S = 0.089
REFERENCE_SHARE = 0.2
# After the references, set-up probes (children that only import
# kbonacci) run for about PROBE_SHARE of the operation's time, so that
# setup_s is a median over many children on every workload.
PROBE = {"calls": []}
PROBE_SHARE = 0.1

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)
WORKLOADS = {w["name"]: w["why"] for w in BENCH["workloads"]}
END_TO_END = [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCH["per_layer"]]


def _r_sequence_steps(d: int) -> list[float]:
    # generalised golden ratio: the root of x^(d+1) = x + 1
    phi = 2.0
    for _ in range(64):
        phi = (1 + phi) ** (1 / (d + 1))
    return [phi ** -(i + 1) % 1.0 for i in range(d)]


def term_inputs(seed: int):
    """Endless [function, k, j] lists, one per term-deep operation.

    The indices follow a low-discrepancy sequence from a seeded offset,
    so any number of operations spreads evenly over each index range.
    An operation's peak RSS grows with the square of its two term()
    indices, from about 93 to 133 MiB over these ranges; with plain
    random draws, which indices a run happened to get moved its median
    peak RSS about twice as much from seed to seed.
    """
    rng = random.Random(seed)
    offsets = [rng.random() for _ in TERM_CALLS]
    steps = _r_sequence_steps(len(TERM_CALLS))
    for i in itertools.count():
        calls = []
        for (fn, k, sign, lo, hi), u, step in zip(TERM_CALLS, offsets, steps):
            calls.append([fn, k, sign * (lo + int((hi - lo + 1) * ((u + i * step) % 1.0)))])
        yield calls


def reference_s() -> float:
    """Seconds this process takes for a fixed task like the workloads'
    work: matrix products of dimension 16 and 32 and big-integer
    products."""
    small = [[(31 * i + 17 * j) % 97 for j in range(16)] for i in range(16)]
    dense = [[(31 * i + 17 * j) % 997 for j in range(32)] for i in range(32)]
    big = 7**30_000
    start = time.perf_counter()
    oracle.matpow(small, (1 << 10) - 1, oracle.PRIMES[0])
    oracle.matpow(dense, 15, oracle.PRIMES[0])
    for _ in range(15):
        big = big * big >> big.bit_length()
    return time.perf_counter() - start


def jobs(workload: str, seed: int):
    """Endless child jobs for the workload; each holds only its inputs."""
    if workload == "term-deep":
        for calls in term_inputs(seed):
            yield {"calls": calls, "moduli": list(oracle.PRIMES)}
    while True:
        yield {"report": os.path.join(WORK, "report.json")}


def check_report(path: str, workload: str) -> str | None:
    """Why the report at path is wrong, or None.  Reads it line by line,
    so the parent stays small: its peak RSS would show in the child's."""
    want_cases, want_digest = REPORTS[workload]
    digest = hashlib.sha256()
    cases, passed = 0, False
    with open(path, "rb") as handle:
        for line in handle:
            if b'"generated_at"' in line:
                continue
            digest.update(line)
            if line.startswith(b'      "id": '):
                cases += 1
            elif line.startswith(b'  "pass": '):
                passed = line.rstrip(b",\n") == b'  "pass": true'
    if cases != want_cases:
        return f"{cases} cases, expected {want_cases}"
    if not passed:
        return "report does not pass"
    if digest.hexdigest() != want_digest:
        return f"report digest {digest.hexdigest()} differs from {want_digest}"
    return None


def check(workload: str, job: dict, out) -> str | None:
    """Why the operation's output is wrong, or None."""
    if workload == "term-deep":
        for (fn, k, j), got in zip(job["calls"], out):
            if got != oracle.residues(k, j):
                return f"{fn}({k}, {j}) disagrees with the modular oracle"
        return None if len(out) == len(job["calls"]) else "missing term values"
    if out.get("exit", 0) != 0:
        return f"verify exited with {out['exit']}"
    return check_report(job["report"], workload)


def run_child(workload: str, job: dict, spans_path: str | None = None) -> dict:
    """Run one operation in a fresh interpreter and check its output.

    Returns the child's timings and peak RSS, or an "error" entry saying
    why the operation failed.  With spans_path the child is traced and
    writes its spans there.
    """
    os.makedirs(WORK, exist_ok=True)
    result_path = os.path.join(WORK, "result.json")
    stderr_path = os.path.join(WORK, "stderr.txt")
    for path in (result_path, spans_path, job.get("report")):
        if path and os.path.exists(path):
            os.remove(path)
    job = dict(job, workload=workload, src=SRC, result=result_path, spans=spans_path, as_limit=AS_LIMIT)
    with open(stderr_path, "wb") as stderr:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        timed_out = False
        try:
            # os.wait4, not Popen.wait, to read the child's own rusage
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    timed_out = True
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.005)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        with open(stderr_path, "rb") as handle:
            tail = handle.read().decode(errors="replace").strip().splitlines()[-1:]
        return {"error": f"child exited with {proc.returncode}: {' '.join(tail)}"}
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    error = check(workload, job, result["out"])
    if error:
        return {"error": error}
    return {
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        "setup_s": result["imported"] - spawned,
        "peak_rss_mib": usage.ru_maxrss / 1024,  # KiB on Linux
    }


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, or None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "int_max_str_digits": getattr(sys, "get_int_max_str_digits", lambda: None)(),
    }


def repeat(fn, seconds: float) -> list:
    """fn() once, then again until `seconds` have passed; the results."""
    until = time.monotonic() + seconds
    results = [fn()]
    while time.monotonic() < until:
        results.append(fn())
    return results


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Closed loop of children until `seconds` have passed.

    Returns the untraced samples, the setup_s samples, the traced
    per-layer metrics, the number of children run and the errors.  Times
    in the samples are scaled for the host's speed (see REFERENCE_S).
    With trace, each input runs twice, untraced and then traced, so the
    two wall times differ only by the tracing.
    """
    samples, setups, layers, errors = [], [], [], []
    attempted = 0
    spans_path = os.path.join(WORK, "spans.bin")
    deadline = time.monotonic() + seconds
    for op_id, job in enumerate(jobs(workload, seed)):
        if op_id and time.monotonic() >= deadline:
            return samples, setups, layers, attempted, errors
        job = dict(job, op_id=op_id)
        started = time.monotonic()
        plain = run_child(workload, job)
        took = time.monotonic() - started
        speed = statistics.fmean(repeat(reference_s, REFERENCE_SHARE * took)) / REFERENCE_S
        children = [plain] + repeat(lambda: run_child("term-deep", PROBE), PROBE_SHARE * took)
        attempted += len(children)
        errors += [child["error"] for child in children if "error" in child]
        setups += [child["setup_s"] / speed for child in children if "error" not in child]
        if "error" in plain:
            continue
        samples.append({"wall_s": plain["wall_s"] / speed, "cpu_s": plain["cpu_s"] / speed,
                        "peak_rss_mib": plain["peak_rss_mib"], "speed": speed})
        if trace:
            traced = run_child(workload, job, spans_path)
            attempted += 1
            if "error" in traced:
                errors.append(traced["error"])
                continue
            metrics = spans.layer_metrics(*spans.load(spans_path))
            metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            layers.append(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kbonacci", "__init__.py")):
        print(f"error: no kbonacci sources under {SRC}", file=sys.stderr)
        return 2
    # one tiny unmeasured child first: it compiles the .pyc files of a
    # fresh checkout and stops the run early if the program is broken
    warm = run_child("term-deep", {"calls": [["term", 2, 10]], "moduli": list(oracle.PRIMES)})
    if "error" in warm:
        print(f"error: warm-up child failed: {warm['error']}", file=sys.stderr)
        return 2

    samples, setups, layers, attempted, errors = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for error in sorted(set(errors)):
        print(f"failed operation: {error}", file=sys.stderr)
    if not samples or (args.trace and not layers):
        print("error: no operation succeeded", file=sys.stderr)
        return 1

    if args.trace:
        names = PER_LAYER
        # the result line lists every per-layer metric, so a layer this
        # workload never calls reads 0 there; the summary leaves it out
        called = {name for m in layers for name in m}
        values = {name: statistics.median(m.get(name, 0) for m in layers) for name, _ in PER_LAYER}
        counts = f"{len(layers)} traced operations"
    else:
        names = END_TO_END
        called = {name for name, _ in END_TO_END}
        values = {name: statistics.median(s[name] for s in samples) for name, _ in END_TO_END if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        counts = f"{len(samples)} operations, setup_s over {len(setups)} children"

    print(f"{args.workload}: {WORKLOADS[args.workload]}")
    print(f"  medians over {counts}")
    for name, unit in names:
        if name in called:
            print(f"  {name:40} {values[name]:>14.6f} {unit}")
    if not args.trace:
        speed = statistics.median(s["speed"] for s in samples)
        print(f"  times in s are scaled to the reference host; this host took {speed:.3f}x its time (median)")
    uncalled = sorted(name for name, _ in names if name not in called)
    if uncalled:
        print(f"  not called by this workload (0 in the result line): {', '.join(uncalled)}")
    print(f"  {'error_rate':40} {len(errors) / attempted:>14.6f} ratio ({len(errors)} of {attempted} failed)")
    print("env " + json.dumps(environment(args), sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
