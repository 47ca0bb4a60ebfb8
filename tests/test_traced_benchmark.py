"""The traced benchmark run still binds the library's names.

perfbench/spans.py wraps identities.run_suite, SuiteResult.to_json, the
identity checkers and the builders' caches by name.  A refactor that
moves one of those names leaves the untraced benchmark working and the
traced one broken, so this test runs a tiny traced suite in a fresh
interpreter, as the benchmark's child does, and reads its metrics back.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
from kbonacci import identities

rec = spans.Recorder(0)
spans.install(rec)
grid = identities.SuiteGrid(max_k=2, max_r=1, n_max=2, m_max=1, j_min=0, j_max=2, extra_fib_level=None)
identities.run_suite(None, grid).to_json(include_timestamp=False)
rec.write(sys.argv[2])
loaded = spans.load(sys.argv[2])
print(json.dumps({"metrics": spans.layer_metrics(*loaded), "caches": sorted(loaded[0]["caches"])}))
"""


def test_a_traced_suite_run_reports_its_layers(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(tmp_path / "spans.bin")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    metrics = out["metrics"]
    assert metrics["identities.cases"] > 0
    assert metrics["identities.render.calls"] == 1
    assert metrics["identities.run_suite.calls"] == 1
    # the write read cache_info() on every builder
    assert out["caches"] == sorted(["build_base", "build_higher", "build_lucas", "build_q"])
