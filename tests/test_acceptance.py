"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line

with its measured residuals and runtime.  Tolerances are fixed here, not
calibrated.
"""

import math
import time

import numpy as np
import pytest

from carnot.groups import heisenberg
from carnot.verify import (
    check_coeigenfunction,
    check_eigenvalue_ladder,
    check_intertwinings,
    check_isospectrality,
    check_kernel_semigroup,
    check_marginal,
    check_mc_vs_kernel,
    check_plancherel,
    check_spectrum_description,
    check_stationary_law,
    check_weyl_isometry,
)

H1 = heisenberg(1)


def _report(num, name, passed, elapsed, budget, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name:24s} {status}  ({elapsed:.1f}s / budget {budget}s) {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_eigenvalue_ladder():
    t0 = time.perf_counter()
    res = check_eigenvalue_ladder(H1, cap=4, tol=1e-10)
    ok = res.passed and res.detail["multiplicities"] == [1, 2, 4, 6, 9]
    _report(1, "eigenvalue-ladder", ok, time.perf_counter() - t0, 1.0,
            f"max_err={res.detail['max_eig_err']:.1e}")


def test_criterion_2_isospectrality():
    t0 = time.perf_counter()
    res = check_isospectrality(H1, cap=4, tol=1e-8)
    ok = res.passed and res.detail["geometric"] == [1, 2, 4, 6, 9]
    _report(2, "isospectrality", ok, time.perf_counter() - t0, 5.0,
            f"geometric={res.detail['geometric']}")


def test_criterion_3_marginal_identity():
    t0 = time.perf_counter()
    res = check_marginal(H1, t=0.5, tol=1e-5, exponents=("none", "gaussian"))
    _report(3, "marginal-identity", res.passed, time.perf_counter() - t0, 30.0,
            f"max_abs_err={res.detail['max_abs_err']:.2e}")


def test_criterion_4_kernel_semigroup():
    t0 = time.perf_counter()
    res = check_kernel_semigroup(H1, tol=1e-3, nodes=41)
    _report(4, "kernel-semigroup", res.passed, time.perf_counter() - t0, 300.0,
            f"sup_err={res.detail['sup_err']:.2e}")


def test_criterion_5_mc_vs_kernel():
    t0 = time.perf_counter()
    res = check_mc_vs_kernel(H1, t=1.0, paths=100_000, exponents=("none", "cp"))
    detail = "; ".join(
        f"{name}: max_err={max(res.detail[name]):.1e} "
        f"bound={min(res.detail[f'{name}_bounds']):.1e}"
        for name in ("none", "cp")
    )
    _report(5, "mc-vs-kernel", res.passed, time.perf_counter() - t0, 60.0, detail)


def test_criterion_6_intertwinings():
    t0 = time.perf_counter()
    res = check_intertwinings(H1, t=0.5)
    # detail keys are "exponent:pair:test"; k is "pair:test"
    relations = [(key.split(":", 1)[1], v) for key, v in res.detail.items()
                 if key.count(":") == 2]
    worst_exact = max(
        v for k, v in relations
        if k.startswith(("gamma", "lp", "mbeta")) or k == "pi:h1"
    )
    worst_quad = max(
        v for k, v in relations
        if k.startswith(("lambda", "tbk")) or k == "pi:gaussian"
    )
    _report(6, "intertwinings", res.passed, time.perf_counter() - t0, 60.0,
            f"exact_paths={worst_exact:.1e} (<1e-12) quadrature={worst_quad:.1e} (<1e-4)")


def test_criterion_7_coeigenfunction():
    t0 = time.perf_counter()
    res = check_coeigenfunction(H1, exponents=("none", "gaussian"), tol=1e-3)
    worst = max(v for k, v in res.detail.items() if not k.startswith("lam_"))
    _report(7, "coeigenfunction", res.passed, time.perf_counter() - t0, 120.0,
            f"max_rel={worst:.2e}")


def test_criterion_8_plancherel_weyl():
    t0 = time.perf_counter()
    iso = check_weyl_isometry(H1, tol=1e-5)
    glob = check_plancherel(H1, tol=1e-3)
    _report(8, "plancherel-weyl", iso.passed and glob.passed,
            time.perf_counter() - t0, 60.0,
            f"isometry={iso.detail['max_rel_err']:.1e} global={glob.detail['rel_err']:.1e}")


def test_criterion_9_stationary_law():
    t0 = time.perf_counter()
    res = check_stationary_law(H1, paths=100_000, exponents=("gaussian", "cp"))
    detail = "; ".join(f"{n}: max_err={max(res.detail[n]):.1e}" for n in ("gaussian", "cp"))
    _report(9, "stationary-law", res.passed, time.perf_counter() - t0, 120.0, detail)


def test_criterion_10_spectrum_description():
    t0 = time.perf_counter()
    res = check_spectrum_description(H1, samples=200)
    _report(10, "spectrum-description", res.passed, time.perf_counter() - t0, 1.0,
            f"min={res.detail['min_sample']:.1f} ray_tail={res.detail['ray_tail']:.1e}")
