"""Self-test of the benchmark.  From the root of a checkout:

    python3 perfbench/selftest.py

It checks that

* a wrong reference, a reference that raises and a non-finite reference
  each make tasks fail, counted in ``failed``, without ending the pass;
* every metric name ``run.py`` prints, traced and untraced, is the list in
  ``BENCHMARK.json``, with the same units;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's files,
  ``run.py`` exits non-zero without printing a result.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, workload, trace, seconds=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_failures_are_counted():
    os.environ.update({"CARNOT_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                       "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    sys.path.insert(0, str(ROOT / "src"))
    import refs
    import workloads

    def raises(*args):
        raise RuntimeError("deliberate")

    cases = {
        # name -> (refs attribute, replacement, task-name prefix expected to fail)
        "wrong": ("psi_cp", lambda lam: 3.0 * (math.exp(-lam * lam / 2.0) - 1.0) * (1 + 1e-8),
                  "frequency-"),
        "raises": ("layer_dims", raises, ("ladder-", "eigen-decomposition-")),
        "nan": ("sech_charfn", lambda *args: math.nan, "frequency-"),
    }
    for case, (attr, fake, prefix) in cases.items():
        saved = getattr(refs, attr)
        setattr(refs, attr, fake)
        try:
            res = workloads.run_pass("exact", 5, 0)
        finally:
            setattr(refs, attr, saved)
        failed = {f.split(":")[0] for f in res.failures}
        assert res.failed > 0 and res.failed == len(res.failures), (case, res.failed)
        assert all(name.startswith(prefix) for name in failed), (case, sorted(failed)[:5])
        print(f"ok: {case} reference -> {res.failed}/{res.attempted} tasks failed")
    res = workloads.run_pass("exact", 5, 0)
    assert res.failed == 0, res.failures
    print(f"ok: true references -> 0/{res.attempted} tasks failed")


def check_metric_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for trace, names in expected.items():
        out = _run(ROOT, "exact", trace)
        assert out.returncode == 0, out.stderr[-2000:]
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, set(result)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == names, (set(printed) ^ set(names), trace)
        assert result["correct"] and result["failed"] == 0, result
        print(f"ok: trace {trace} prints the {len(names)} metrics of BENCHMARK.json")


def check_bare_directory_fails():
    bare = ROOT / ".selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        out = _run(bare, "exact", 0)
        assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
        print(f"ok: without src/carnot run.py exits {out.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_failures_are_counted()
    check_metric_names()
    check_bare_directory_fails()
    print("selftest passed")
