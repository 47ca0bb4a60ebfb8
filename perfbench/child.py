"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py JOB

JOB is a JSON object written by run.py.  The child caps its own address
space, imports kbonacci from the checkout's src/, runs the operation
once and writes a JSON result file.  With tracing on it wraps the
library's layers first and writes the operation's spans at exit.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def verify_default(kbonacci, job):
    return {"exit": kbonacci.cli.main(["verify", "--format", "json", "--output", job["report"]])}


def verify_dense(kbonacci, job):
    # the library, because dim_cap has no CLI flag
    grid = kbonacci.identities.SuiteGrid(max_k=4, max_r=3, dim_cap=64)
    text = kbonacci.identities.run_suite(None, grid).to_json(include_timestamp=False)
    with open(job["report"], "w", encoding="utf-8") as handle:
        handle.write(text)
    return {}


def term_deep(kbonacci, job):
    owners = {"term": kbonacci.sequences, "fast_term": kbonacci.builders}
    return [getattr(owners[fn], fn)(k, j) for fn, k, j in job["calls"]]


OPERATIONS = {"verify-default": verify_default, "verify-dense": verify_dense, "term-deep": term_deep}


def main() -> int:
    job = json.loads(sys.argv[1])
    resource.setrlimit(resource.RLIMIT_AS, (job["as_limit"], job["as_limit"]))
    sys.path.insert(0, job["src"])
    import kbonacci
    import kbonacci.cli

    # CLOCK_MONOTONIC is shared by all processes, so the parent can
    # subtract the time it spawned this child
    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    if not os.path.abspath(kbonacci.__file__).startswith(job["src"] + os.sep):
        raise SystemExit(f"kbonacci was imported from {kbonacci.__file__}, not from {job['src']}")

    recorder = None
    if job["spans"]:
        import spans

        recorder = spans.Recorder(job.get("op_id", 0))
        spans.install(recorder)

    operation = OPERATIONS[job["workload"]]
    wall, cpu = time.perf_counter(), time.process_time()
    out = operation(kbonacci, job)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu

    if "moduli" in job:
        out = [[value % p for p in job["moduli"]] for value in out]
    if recorder is not None:
        recorder.write(job["spans"])
    result = {"imported": imported, "wall_s": wall, "cpu_s": cpu, "out": out}
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
