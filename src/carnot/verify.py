"""Verification suite: every check pins one identity of the theory at a

stated tolerance and reports pass/fail with the measured residual.  The
command-line runner and the acceptance tests share these functions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._quadrature import gauss_legendre
from .errors import UnsupportedOperationError
from .groups import heisenberg
from .kernels import group_convolve, heat_slice, invert_to_grid, perturbed_slice, vertical_charfn
from .levy import CompoundPoisson, LevyExponent, NormalDist
from .polynomials import generator_matrix, homogeneous_dimension_counts
from .semigroups import coeigen_residual, intertwine_residual, nonnormality_witness
from .simulate import PathConfig, estimate_charfn, simulate_levy_ou, simulate_levy_on_group
from .spectral import frame_at, spectrum_of_generator

__all__ = ["CheckResult", "run_check", "CHECKS", "default_exponents"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)
    elapsed: float = 0.0
    skipped: bool = False

    def as_dict(self):
        out = {"check": self.name, "passed": bool(self.passed),
               "elapsed_s": round(self.elapsed, 3)}
        if self.skipped:
            out["skipped"] = True
        out.update({k: _round(v) for k, v in self.detail.items()})
        return out


def _round(v):
    if isinstance(v, float):
        return float(f"{v:.6g}")
    if isinstance(v, (list, tuple)):
        return [_round(x) for x in v]
    return v


def default_exponents(m=1):
    """The named exponents of the checks on an m-dimensional vertical layer."""
    eye = np.eye(m)
    return {
        "none": None,
        "gaussian": LevyExponent(sigma=eye),
        "cp": LevyExponent(jumps=CompoundPoisson(3.0, NormalDist(np.zeros(m), eye)), m=m),
        "gaussian-drift": LevyExponent(sigma=eye, b=0.5 * eye[0]),
    }


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_eigenvalue_ladder(G=None, cap=4, tol=1e-10):
    """Generator spectrum on polynomials: eigenvalues 0..-cap with the

    homogeneous-layer dimensions as multiplicities, read from the matrix's
    exact block structure (:attr:`~carnot.polynomials.GeneratorMatrix.ladder`).
    """
    G = G or heisenberg(1)
    gm = generator_matrix(G, None, cap)
    eigs = gm.eigenvalues()
    counts = homogeneous_dimension_counts(G.n, G.m, cap)
    expected = np.sort(np.concatenate([[-k] * c for k, c in enumerate(counts)]))
    err = float(np.max(np.abs(np.sort(eigs.real) - expected)))
    imag = float(np.max(np.abs(eigs.imag)))
    geo = [gm.geometric_multiplicity(-float(k)) for k in range(cap + 1)]
    return CheckResult(
        "eigenvalue-ladder", err < tol and imag < tol and geo == counts,
        {"max_eig_err": err, "multiplicities": counts},
    )


def check_isospectrality(G=None, cap=4, tol=1e-8, exponents=None):
    """Eigenvalue multisets and both multiplicities do not depend on the

    vertical perturbation.  Multiplicities are compared exactly; every
    matrix carries the ladder structure, so the eigenvalue residual is
    exactly 0.
    """
    G = G or heisenberg(1)
    exps = exponents or default_exponents(G.m)
    reference = None
    detail = {}
    residual = 0.0
    ok = True
    for name, psi in exps.items():
        try:
            gm = generator_matrix(G, psi, cap)
        except UnsupportedOperationError as exc:
            detail[f"skipped_{name}"] = str(exc)
            continue
        eigs = np.sort(gm.eigenvalues().real)
        alg = [gm.algebraic_multiplicity(-float(k)) for k in range(cap + 1)]
        geo = [gm.geometric_multiplicity(-float(k)) for k in range(cap + 1)]
        if reference is None:
            reference = (eigs, alg, geo)
            detail["geometric"] = geo
        else:
            residual = max(residual, float(np.max(np.abs(eigs - reference[0]))))
            ok &= alg == reference[1] and geo == reference[2]
    if reference is not None:
        detail["residual"] = residual
    return CheckResult("isospectrality", ok and residual < tol, detail)


def _named_exponents(spec, default_names, m):
    """Accept a dict of named exponents or a tuple of default-set names."""
    if spec is None:
        spec = default_names
    if isinstance(spec, dict):
        return dict(spec)
    base = default_exponents(m)
    return {name: base[name] for name in spec}


def _vertical_window(psi, t):
    """The v axis of the marginal check: 241 nodes on ``[-9, 9]``, widened at

    the same spacing to cover ``t * effective_drift +- (9 + 6 sd)``, where
    ``sd`` is the standard deviation of the vertical Levy law at time t (from
    ``sigma`` and the jumps' second moment).  Exponents without exponential
    jump moments keep ``[-9, 9]``.
    """
    if psi is None or not psi.in_N_exp:
        return np.linspace(-9.0, 9.0, 241)
    step = 18.0 / 240
    centre = t * float(psi.effective_drift()[0])
    sd = math.sqrt(t * (2.0 * psi.sigma[0, 0] + psi.levy_moment(2 * np.eye(psi.m, dtype=int)[0])))
    left = math.ceil(max(0.0, 6.0 * sd - centre) / step)
    right = math.ceil(max(0.0, 6.0 * sd + centre) / step)
    return np.linspace(-9.0 - left * step, 9.0 + right * step, 241 + left + right)


def check_marginal(G=None, t=0.5, tol=1e-5, exponents=None):
    """Vertical integral of the kernel equals the Euclidean heat kernel.

    The vertical window is centred on the law's mean and widened by its
    spread (:func:`_vertical_window`).  Exponents without exponential jump
    moments produce kernels with polynomial vertical tails; the grid
    truncation then dominates, so those run at a relaxed, documented
    tolerance.
    """
    G = G or heisenberg(1)
    exps = _named_exponents(exponents, ("none", "gaussian"), G.m)
    pair = (np.linspace(-2.0, 2.0, 5), np.linspace(-1.5, 1.5, 4))
    h_axes = [pair[i % 2] for i in range(G.n)]
    hsq = sum(c**2 for c in np.meshgrid(*h_axes, indexing="ij"))
    euclid = (4 * math.pi * t) ** (-G.n / 2) * np.exp(-hsq / (4 * t))
    ok = True
    detail = {"tol": tol}
    worst = 0.0
    metas = []
    for name, psi in exps.items():
        v = _vertical_window(psi, t)
        grid = invert_to_grid(perturbed_slice(G, psi, t), h_axes + [v], calibrate=False)
        metas.append(grid.meta)
        marg = np.trapezoid(grid.values, v, axis=-1)
        err = float(np.max(np.abs(marg - euclid)))
        heavy = psi is not None and not psi.in_N_exp
        bound = max(tol, 5e-3) if heavy else tol
        if heavy:
            detail[f"{name}_note"] = "heavy vertical tail: grid-truncation tolerance 5e-3"
        detail[f"{name}_err"] = err
        ok &= err < bound
        worst = max(worst, err)
    detail["max_abs_err"] = worst
    detail.update(_lambda_rule_detail(metas))
    return CheckResult("marginal", ok, detail)


def _lambda_rule_detail(metas):
    """The largest lambda-rule size and self-check error of inverted grids."""
    return {"lam_nodes": max((m["lam_nodes"] for m in metas), default=0),
            "lam_err": max((m["lam_err"] for m in metas), default=0.0)}


def check_kernel_semigroup(G=None, tol=1e-3, nodes=41):
    """Convolution square of the half-time kernel equals the full kernel."""
    G = G or heisenberg(1)
    if G.n != 2 or G.m != 1:
        raise UnsupportedOperationError("grid convolution implemented for n = 2, m = 1")
    ax = [np.linspace(-4.5, 4.5, nodes), np.linspace(-4.5, 4.5, nodes),
          np.linspace(-3.5, 3.5, nodes)]
    q_half = invert_to_grid(heat_slice(G, 0.5), ax, calibrate=False)
    q_one = invert_to_grid(heat_slice(G, 1.0), ax, calibrate=False)
    conv = group_convolve(G, q_half, q_half)
    err = float(np.max(np.abs(conv.values - q_one.values)))
    return CheckResult("kernel-semigroup", err < tol, {
        "sup_err": err, "tol": tol, **_lambda_rule_detail([q_half.meta, q_one.meta])})


def check_mc_vs_kernel(G=None, t=1.0, paths=100_000, seed=7,
                       exponents=None, lam_panel=(0.5, 1.0, 2.0),
                       allowance=0.0):
    """Empirical vertical characteristic function of the simulated Levy

    process against the horizontally integrated kernel hat, within three
    Monte Carlo standard errors (plus an optional discretization allowance
    for small path counts).
    """
    G = G or heisenberg(1)
    exps = _named_exponents(exponents, ("none", "cp"), G.m)
    cfg = PathConfig(horizon=t, steps_per_unit=2048, paths=paths, seed=seed)
    return _charfn_check("mc-vs-kernel", simulate_levy_on_group, G, exps, cfg,
                         lam_panel, lambda psi, lam: vertical_charfn(G, psi, t, lam), allowance)


def _charfn_check(name, simulate, G, exps, cfg, lam_panel, exact, allowance):
    """Simulate each exponent's vertical endpoint, then compare its

    empirical characteristic function at ``lam e_1`` with ``exact(psi, lam)``
    within three Monte Carlo standard errors plus ``allowance``.
    """
    panel = np.outer(lam_panel, np.eye(G.m)[0])      # lam e_1 in R^m
    ok = True
    detail = {"seed": cfg.seed}
    for psi_name, psi in exps.items():
        _, V = simulate(G, psi, cfg)
        est = estimate_charfn(V, panel)
        errs, bounds = [], []
        for k, lam in enumerate(panel):
            errs.append(abs(est.values[k] - exact(psi, lam)))
            bounds.append(3 * est.stderr[k] + allowance)
        ok &= all(e < b for e, b in zip(errs, bounds))
        detail[psi_name] = [float(e) for e in errs]
        detail[f"{psi_name}_bounds"] = [float(b) for b in bounds]
    return CheckResult(name, ok, detail)


def check_intertwinings(G=None, t=0.5, exponents=None):
    """All intertwining relations: exact polynomial paths below 1e-12,

    quadrature paths below 1e-4.  Pairs that need a capability the group
    or the exponent lacks (the Heisenberg geometry of the lift and the
    projection, moments for the polynomial shifts), and exponents whose
    dimension differs from the vertical layer's, are reported as skipped.
    """
    G = G or heisenberg(1)
    exps = exponents or {k: v for k, v in default_exponents(G.m).items() if k != "gaussian-drift"}
    reports = []
    detail = {}

    def attempt(name, pair, psi, *args, **kw):
        # keyed "exponent:pair:test": every exponent keeps its own residual
        try:
            rep = intertwine_residual(pair, G, psi, t, *args, **kw)
        except UnsupportedOperationError as exc:
            detail[f"{name}:{pair}"] = f"skipped: {exc}"
            return
        reports.append(rep)
        detail[f"{name}:{rep.pair}:{rep.test_id}"] = rep.residual

    for name, psi in exps.items():
        if psi is not None and psi.m != G.m:
            detail[name] = f"skipped: exponent has m = {psi.m}, the group has m = {G.m}"
            continue
        attempt(name, "pi", psi, "h1", tol=1e-12)
        if psi is not None:
            attempt(name, "gamma", psi, "mixed", tol=1e-12)
            attempt(name, "lp", psi, "mixed", tol=1e-12)
        attempt(name, "lambda", psi, tol=1e-4)
    attempt("none", "pi", None, "gaussian", tol=1e-4)
    tbk_psi = LevyExponent(sigma=[[1.0]], b=[0.4],
                           jumps=CompoundPoisson(2.0, NormalDist([0.0], [[1.0]])))
    attempt("gaussian-drift-cp", "tbk", tbk_psi, tol=1e-10)
    attempt("none", "mbeta", None, tol=1e-12)
    ok = all(r.passed for r in reports)
    return CheckResult("intertwinings", ok, detail)


def check_coeigenfunction(G=None, exponents=("none", "gaussian"), tol=1e-3):
    """Weak-form adjoint eigenfunction relation at two horizons."""
    G = G or heisenberg(1)
    exps = default_exponents(G.m)
    ok = True
    detail = {}
    metas = []
    for name in exponents:
        for t in (0.25, 0.5):
            rep = coeigen_residual(G, exps[name], [1], t, test="bump", tol=tol)
            ok &= rep.passed
            detail[f"{name},t={t}"] = rep.residual
            metas.append(rep.grid_meta)
    detail.update(_lambda_rule_detail(metas))
    return CheckResult("coeigenfunction", ok, detail)


def check_weyl_isometry(G=None, tol=1e-5, seed=40):
    """Hilbert-Schmidt isometry of the plane transform on Gaussians."""
    from .hermite import weyl_matrix

    G = G or heisenberg(1)
    fr = frame_at(G, np.ones(G.m))
    rng = np.random.default_rng(seed)
    worst = quad_err = 0.0
    for _ in range(3):
        a = float(rng.uniform(0.35, 0.8))
        b = float(rng.uniform(0.35, 0.8))
        f = lambda x, y: np.exp(-a * x**2 - b * y**2)
        wm = weyl_matrix(fr, f, 32)
        lhs = fr.pf * wm.hs_norm_sq() / (2 * math.pi)
        rhs = math.pi / (2.0 * math.sqrt(a * b))
        worst = max(worst, abs(lhs - rhs) / rhs)
        quad_err = max(quad_err, wm.quad_err)
    return CheckResult("weyl-isometry", worst < tol,
                       {"max_rel_err": worst, "tol": tol, "seed": seed,
                        "quad_points": wm.quad_points, "quad_err": quad_err})


def check_plancherel(G=None, tol=1e-3):
    """Global Plancherel identity on a separable Gaussian.

    For ``f(z, v) = exp(-a |z|^2) exp(-v^2 / 2)`` the squared norm of the
    group transform integrates, against the Plancherel weight
    ``Pf(lam) / (2 pi)^(d+k+m)``, to the squared norm of f.  The transform
    norm per frequency is assembled from the radial Laguerre coefficients:
    numerically on the bulk of frequencies and by the validated geometric
    closed form where thousands of modes would be needed.  The numerical
    frequencies, and the cross-check node lam = 0.5, lie on the ray of
    ``lam = 1``: one :func:`~carnot.hermite.laguerre_transform` call gives
    all of them from one Laguerre table, each truncated at its own cap.
    """
    from . import hermite

    G = G or heisenberg(1)
    a = 0.5
    fr1 = frame_at(G, np.ones(G.m))
    eta_unit = fr1.eta[0]

    def ratio(eta):
        # geometric series sum_k R_k^2 with R_k = sqrt(2 pi/eta) (c-1)^k / c^{k+1}
        c = 0.5 + 2.0 * a / eta
        return c, ((c - 1.0) / c) ** 2

    def s_closed(eta):
        c, r = ratio(eta)
        return (2 * math.pi / eta) / (c * c) / (1.0 - r)

    lam, w = gauss_legendre(1e-4, 12.0, 160)
    numeric = lam >= 0.3
    ray = np.append(lam[numeric], 0.5)
    caps = [max(16, int(math.log(1e-12) / math.log(ratio(l * eta_unit)[1])) + 8) for l in ray]
    R = hermite.laguerre_transform(fr1, lambda zsq: np.exp(-a * zsq[:, 0]), caps,
                                   quad_nodes=300, u_cap=90.0, scale=ray)
    S_numeric = np.sum(R**2, axis=1)
    S = np.empty(lam.size)
    S[numeric] = S_numeric[:-1]
    S[~numeric] = [s_closed(l * eta_unit) for l in lam[~numeric]]
    # spectral side: (2 pi)^{-1} int |ghat|^2 S dlam, |ghat|^2 = 2 pi e^{-lam^2}
    spectral = 2.0 * float(np.sum(w * S * np.exp(-(lam**2))))
    direct = (math.pi / (2 * a)) * math.sqrt(math.pi)
    rel = abs(spectral - direct) / direct
    # validate the closed form against the numerical coefficients once
    cross = abs(S_numeric[-1] - s_closed(0.5 * eta_unit))
    return CheckResult(
        "plancherel", rel < tol and cross < 1e-9,
        {"rel_err": rel, "closed_form_cross_check": cross, "tol": tol,
         "lam_nodes": lam.size, "laguerre_cap": max(caps)},
    )


def check_stationary_law(G=None, paths=100_000, seed=41, exponents=None,
                         allowance=0.0):
    """Simulated Ornstein-Uhlenbeck vertical marginal at long horizon

    against the stationary hat, within three Monte Carlo standard errors.
    """
    G = G or heisenberg(1)
    exps = _named_exponents(exponents, ("gaussian", "cp"), G.m)
    cfg = PathConfig(horizon=6.0, steps_per_unit=2048, paths=paths, seed=seed)
    return _charfn_check("stationary-law", simulate_levy_ou, G, exps, cfg, (0.25, 0.5, 1.0),
                         lambda psi, lam: vertical_charfn(G, psi, None, lam, invariant=True),
                         allowance)


def check_spectrum_description(G=None, seed=8, samples=200):
    """Sampled values of the perturbed-generator spectrum stay in the

    claimed set, reach arbitrarily low, and approach zero along shrinking
    frequencies when unperturbed.
    """
    G = G or heisenberg(1)
    rng = np.random.default_rng(seed)
    desc = spectrum_of_generator(G, None)
    ok = desc.kind == "interval" and desc.s0 == 0.0
    vals = []
    for _ in range(samples):
        beta = [int(rng.integers(0, 5)) for _ in range(G.d)]
        lam = rng.normal(size=G.m) * float(rng.uniform(0.1, 40.0))
        nu = rng.normal(size=G.k)      # radical frequency; k = 0 draws nothing
        vals.append(desc.sample(beta, lam, nu).real)
    vals = np.array(vals)
    ok &= bool(np.all(vals <= 1e-12))
    ok &= bool(vals.min() < -100.0)
    ray = [desc.sample([0] * G.d, np.full(G.m, eps), np.zeros(G.k)).real
           for eps in (1e-1, 1e-2, 1e-3)]
    ok &= abs(ray[-1]) < 1e-2
    exps = default_exponents(G.m)
    drift_desc = spectrum_of_generator(G, exps["gaussian-drift"])
    ok &= drift_desc.kind == "parametric-set"
    full_desc = spectrum_of_generator(G, exps["gaussian"])
    ok &= full_desc.kind == "interval" and full_desc.s0 == 0.0
    return CheckResult(
        "spectrum-description", ok,
        {"min_sample": float(vals.min()), "ray_tail": float(ray[-1]), "seed": seed},
    )


def check_nonnormality(G=None):
    """Strictly positive commutator of the semigroup with its stationary

    adjoint on the degree-3 layer.
    """
    G = G or heisenberg(1)
    w = nonnormality_witness(G, None, 1.0)
    return CheckResult("non-normality", w > 1e-6, {"commutator_norm": w})


CHECKS = {
    "eigen": check_eigenvalue_ladder,
    "isospectral": check_isospectrality,
    "marginal": check_marginal,
    "semigroup": check_kernel_semigroup,
    "mc-kernel": check_mc_vs_kernel,
    "intertwine": check_intertwinings,
    "coeigen": check_coeigenfunction,
    "weyl": check_weyl_isometry,
    "plancherel": check_plancherel,
    "stationary": check_stationary_law,
    "spectrum": check_spectrum_description,
    "nonnormal": check_nonnormality,
}

QUICK = ("eigen", "isospectral", "weyl", "plancherel", "spectrum", "marginal")


def run_check(name, G=None, **kw):
    """Run one check.  An unsupported operation is a skip with its reason;

    any other exception is a failed result that records it, so a crashed
    check is reported as a failure and never as a usage error.
    """
    fn = CHECKS[name]
    t0 = time.perf_counter()
    try:
        result = fn(G=G, **kw)
    except UnsupportedOperationError as exc:
        result = CheckResult(name, True, {"skipped": str(exc)}, skipped=True)
    except Exception as exc:
        result = CheckResult(name, False, {"error": f"{type(exc).__name__}: {exc}"})
    result.elapsed = time.perf_counter() - t0
    return result

