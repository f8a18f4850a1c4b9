"""Benchmark of carnot: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {mc,grid,exact} --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout.  The workload runs
single-threaded in this process: ``CARNOT_THREADS`` and the BLAS/OpenMP
thread counts are pinned to 1 before numpy is imported.  Passes through the
workload's task list repeat, one after another, while the next one is
expected to end within ``--seconds``; at least one pass always runs.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics:

* ``setup_s``: median over fresh processes of the time from before
  ``import carnot`` until every shipped spec is loaded and validated;
* ``wall_s``: median time of one pass, every gate evaluated;
* ``cpu_s``: median processor time (user + system) of this process over one
  pass.  The workload is single-threaded and computes without waiting, so
  this is ``wall_s`` without the time the host did not run the process; on
  a shared virtual machine that time moves ``wall_s`` by several percent
  from run to run;
* ``peak_rss_mb``: peak resident memory of this process;
* ``pass_frac``: gated tasks that passed over gated tasks attempted.  A task
  fails when it raises, returns a non-finite value or misses its bound.

With ``--trace 1`` untraced and traced passes alternate and the last line
carries the per-layer metrics: calls, self time and work counts per traced
pass of the library functions the tracer wraps (see ``tracer.py``), the
largest accuracy ratios, and the tracing overhead.

The line before the result is the run record: machine, versions, commit,
seeds, input sizes, pass times and failures.  The exit code is 2 when the
checkout holds no ``src/carnot``.  ``selftest.py`` tests the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED_ENV = {"CARNOT_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
WORKLOADS = ("mc", "grid", "exact")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "pass_frac": "ratio"}

# per-layer metric -> (unit, tracer key, statistic)
PER_LAYER = {
    "groups.omega.calls": ("count", "groups.omega", "calls"),
    "groups.omega.self_s": ("s", "groups.omega", "self_s"),
    "groups.construct.s": ("s", "groups.construct", "self_s"),
    "spectral.frame_at.calls": ("count", "spectral.frame_at", "calls"),
    "spectral.frame_at.self_s": ("s", "spectral.frame_at", "self_s"),
    "polynomials.generator_matrix.calls": ("count", "polynomials.generator_matrix", "calls"),
    "polynomials.generator_matrix.self_s": ("s", "polynomials.generator_matrix", "self_s"),
    "polynomials.basis_dim": ("count", "polynomials.basis_dim", "count"),
    "levy.sample.calls": ("count", "levy.sample", "calls"),
    "levy.sample.draws": ("count", "levy.sample.draws", "count"),
    "levy.sample.self_s": ("s", "levy.sample", "self_s"),
    "levy.psi_eval.calls": ("count", "levy.psi_eval", "calls"),
    "levy.psi_eval.freqs": ("count", "levy.psi_eval.freqs", "count"),
    "levy.psi_eval.self_s": ("s", "levy.psi_eval", "self_s"),
    "kernels.invert_to_grid.calls": ("count", "kernels.invert_to_grid", "calls"),
    "kernels.invert_to_grid.self_s": ("s", "kernels.invert_to_grid", "self_s"),
    "kernels.invert_to_grid.out_pts": ("count", "kernels.invert_to_grid.out_pts", "count"),
    "kernels.group_convolve.self_s": ("s", "kernels.group_convolve", "self_s"),
    "kernels.hat.calls": ("count", "kernels.hat", "calls"),
    "kernels.hat.self_s": ("s", "kernels.hat", "self_s"),
    "kernels.vertical_charfn.calls": ("count", "kernels.vertical_charfn", "calls"),
    "kernels.vertical_charfn.self_s": ("s", "kernels.vertical_charfn", "self_s"),
    "hermite.weyl_matrix.self_s": ("s", "hermite.weyl_matrix", "self_s"),
    "hermite.laguerre_transform.calls": ("count", "hermite.laguerre_transform", "calls"),
    "hermite.laguerre_transform.self_s": ("s", "hermite.laguerre_transform", "self_s"),
    "semigroups.ou_apply_vertical.calls": ("count", "semigroups.ou_apply_vertical", "calls"),
    "semigroups.ou_apply_vertical.self_s": ("s", "semigroups.ou_apply_vertical", "self_s"),
    "semigroups.coeigen_residual.self_s": ("s", "semigroups.coeigen_residual", "self_s"),
    "semigroups.intertwine_residual.self_s": ("s", "semigroups.intertwine_residual", "self_s"),
    "semigroups.eigen_decomposition.self_s": ("s", "semigroups.eigen_decomposition", "self_s"),
    "semigroups.nonnormality_witness.self_s": ("s", "semigroups.nonnormality_witness", "self_s"),
    "semigroups.weighted_gram.self_s": ("s", "semigroups.weighted_gram", "self_s"),
    "simulate.levy_on_group.self_s": ("s", "simulate.levy_on_group", "self_s"),
    "simulate.levy_ou.self_s": ("s", "simulate.levy_ou", "self_s"),
    "simulate.estimate_charfn.self_s": ("s", "simulate.estimate_charfn", "self_s"),
    "simulate.paths": ("count", "simulate.paths", "count"),
    "simulate.paths_per_s": ("1/s", None, None),
    "verify.check.self_s": ("s", "verify.check", "self_s"),
    "accuracy.max_z": ("sigma", None, None),
    "accuracy.max_resid_ratio": ("ratio", None, None),
    "trace.overhead_frac": ("ratio", None, None),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def git_commit():
    """Commit of the checkout from ``.git`` when there is one, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(env):
    """Seconds per fresh-process setup, one value per probe."""
    probe = [sys.executable, str(HERE / "setup_probe.py")]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(probe, env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_passes(workloads, workload, seed, seconds, tracer):
    """Passes until the next is expected to overrun ``seconds``.  With a

    tracer, untraced and traced passes alternate in pairs on the same
    inputs, and at least one pair runs.
    """
    start = time.perf_counter()
    passes = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        index = len(passes) // 2 if tracer is not None else len(passes)
        if traced:
            tracer.install()
        try:
            res = workloads.run_pass(workload, seed, index)
        finally:
            if traced:
                tracer.uninstall()
        passes.append((traced, res))
        elapsed = time.perf_counter() - start
        if (tracer is None or len(passes) >= 2) and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def per_layer_metrics(tracer, passes):
    traced = [r for t, r in passes if t]
    plain = [r for t, r in passes if not t]
    stats, top_s = tracer.summary()
    n = len(traced)
    values = {}
    for name, (unit, key, stat) in PER_LAYER.items():
        if stat == "count":
            values[name] = tracer.counts.get(key, 0) / n
        elif key is not None:
            values[name] = stats.get(key, {}).get(stat, 0) / n
    sim_s = sum(stats.get(k, {}).get("incl_s", 0.0)
                for k in ("simulate.levy_on_group", "simulate.levy_ou"))
    paths = tracer.counts.get("simulate.paths", 0)
    values["simulate.paths_per_s"] = paths / sim_s if sim_s > 0 else 0.0
    values["accuracy.max_z"] = max(r.max_z for _, r in passes)
    values["accuracy.max_resid_ratio"] = max(r.max_ratio for _, r in passes)
    traced_wall = statistics.median(r.wall_s for r in traced)
    plain_wall = statistics.median(r.wall_s for r in plain)
    values["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    total_wall = sum(r.wall_s for r in traced)
    spans_self = sum(st["self_s"] for st in stats.values())
    accounting = {
        "traced_wall_s": total_wall,
        "spans_self_s": spans_self,
        "spans_top_level_s": top_s,
        "bench_own_s": total_wall - top_s,
        "spans": len(tracer.spans),
        "per_key": stats,
        "counts": tracer.counts,
    }
    return {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}, accounting


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "carnot" / "__init__.py").is_file():
        print(f"no carnot sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))

    setup_times = measure_setup(env) if args.trace == 0 else []

    import numpy
    import scipy

    import carnot
    import workloads
    if Path(carnot.__file__).resolve().parent != (SRC / "carnot").resolve():
        print(f"carnot imported from {carnot.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    passes = run_passes(workloads, args.workload, args.seed, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(r.attempted for _, r in passes)
    failed = sum(r.failed for _, r in passes)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "carnot": carnot.__version__,
        "commit": git_commit(), "env": PINNED_ENV, "setup_probes_s": setup_times,
        "passes": [{"seed": r.seed, "traced": t, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                    "attempted": r.attempted, "failed": r.failed, "failures": r.failures[:20],
                    "max_z": r.max_z, "max_resid_ratio": r.max_ratio, "sizes": r.sizes,
                    "task_s": r.task_s}
                   for t, r in passes],
    }
    if tracer is None:
        walls = [r.wall_s for _, r in passes]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r.cpu_s for _, r in passes),
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        record["wall_s_samples"] = len(walls)
    else:
        metrics, record["trace_accounting"] = per_layer_metrics(tracer, passes)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
