"""The three workloads: fixed task lists, each task gated against a reference.

A workload is a closed loop with one client: the next task starts when the
previous one has ended.  One pass runs the whole task list once; the inputs
of a pass (path seeds, random frequencies, evaluation nodes) are drawn from
the workload seed and the pass index, so the same seed gives the same
inputs.  Sizes are fixed; every bound is the tolerance the library's own
checks use.

* ``mc``: Monte Carlo against closed forms.  The Euler area loop of
  ``simulate`` and the ``levy`` samplers do nearly all the work; ``kernels``
  only evaluates closed forms.  Two group shapes (n*m = 2 and 12) show a
  sampler whose cost scales differently in n and m.
* ``grid``: bulk Fourier inversion and convolution.  ``invert_to_grid``,
  ``group_convolve`` and ``ou_apply_vertical`` do nearly all the work, on
  grids with many horizontal and few vertical points and the reverse, with
  a complex exponent (no even-in-lambda reduction) and one- and two-plane
  groups.
* ``exact``: exact calculus and closed forms, called one at a time: Weyl
  assembly, polynomial generator matrices and per-call overhead in
  ``spectral`` and the ``levy`` quadratures, the same code ``grid`` calls in
  batches.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field

import numpy as np

import refs
from specs import load_specs

from carnot import (groups, hermite, kernels, levy, polynomials, semigroups, simulate,
                    spectral, verify)

Z_GATE = 3.0


class Gates:
    """Comparisons of one task.  A task passes when every comparison is

    finite and within its bound.
    """

    def __init__(self):
        self.ratios = []   # residual / bound; passes below 1
        self.zs = []       # Monte Carlo error / standard error; passes below 3

    def below(self, value, bound):
        self.ratios.append(float(value) / bound)

    def above(self, value, floor):
        value = float(value)
        self.ratios.append(floor / value if value > 0 else math.inf)

    def rel(self, value, reference, bound):
        self.below(abs(value - reference) / abs(reference), bound)

    def z(self, err, stderr):
        self.zs.append(float(err) / float(stderr))

    def passed(self):
        vals = np.array(self.ratios + [z / Z_GATE for z in self.zs], dtype=float)
        return bool(vals.size) and bool(np.all(np.isfinite(vals))) and bool(np.all(vals < 1.0))


@dataclass
class Task:
    name: str
    sizes: dict
    run: object          # () -> Gates


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    max_z: float = 0.0
    max_ratio: float = 0.0
    failures: list = field(default_factory=list)
    task_s: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    seed: list = field(default_factory=list)   # entropy of the pass's generator


def pass_rng(seed, pass_index):
    return np.random.default_rng([int(seed), int(pass_index)])


def run_pass(workload, seed, pass_index):
    """Run one pass of a workload; a task that raises counts as failed."""
    t0, c0 = time.perf_counter(), time.process_time()
    rng = pass_rng(seed, pass_index)
    G, P = load_specs()
    tasks = TASK_LISTS[workload](G, P, rng)
    res = PassResult(wall_s=0.0, sizes={t.name: t.sizes for t in tasks if t.sizes},
                     seed=[int(seed), int(pass_index)])
    for task in tasks:
        t1 = time.perf_counter()
        res.attempted += 1
        try:
            gates = task.run()
            ok = gates.passed()
        except Exception as exc:  # a failing task is counted, never fatal
            gates, ok = None, False
            res.failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
        else:
            if not ok:
                res.failures.append(f"{task.name}: ratios={gates.ratios} zs={gates.zs}")
            finite = [r for r in gates.ratios if math.isfinite(r)]
            res.max_ratio = max([res.max_ratio] + finite)
            res.max_z = max([res.max_z] + [z for z in gates.zs if math.isfinite(z)])
        res.failed += not ok
        group = re.sub(r"-\d+$", "", task.name)      # frequency-17 -> frequency
        res.task_s[group] = res.task_s.get(group, 0.0) + time.perf_counter() - t1
    res.wall_s = time.perf_counter() - t0
    res.cpu_s = time.process_time() - c0
    return res


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

MC_PATHS = 20_000
MC_PATHS_QUAT = 10_000
STEPS_PER_UNIT = 2048


def _own_stderr(V, lam):
    """Standard error of the empirical charfn, as the gate's yardstick:

    the real and imaginary parts' standard errors added.
    """
    ph = np.asarray(V, dtype=float) @ np.asarray(lam, dtype=float)
    n = len(ph)
    return math.sqrt(np.var(np.cos(ph)) / n) + math.sqrt(np.var(np.sin(ph)) / n)


def _mc_task(G, psi, cfg, panel, exact, invariant):
    if invariant:
        _, V = simulate.simulate_levy_ou(G, psi, cfg)
    else:
        _, V = simulate.simulate_levy_on_group(G, psi, cfg)
    lam = np.array(panel, dtype=float).reshape(len(panel), G.m)
    est = simulate.estimate_charfn(V, lam)
    gates = Gates()
    for k, row in enumerate(lam):
        ref = exact(row)
        gates.z(abs(est.values[k] - ref), _own_stderr(V, row))
        lib = kernels.vertical_charfn(G, psi, None if invariant else cfg.horizon, row,
                                      invariant=invariant)
        gates.rel(lib, ref, 1e-10)
    return gates


def mc_tasks(G, P, rng):
    h1, quat = G["h1"], G["quaternionic"]
    tasks = []
    psi_levy = {
        "none": (None, lambda lam: 0.0),
        "psi_cp": (P["psi_cp"], refs.psi_cp),
        "psi_stable": (P["psi_stable"], refs.psi_stable),
    }
    for name, (psi, exponent) in psi_levy.items():
        cfg = simulate.PathConfig(horizon=1.0, steps_per_unit=STEPS_PER_UNIT, paths=MC_PATHS,
                                  seed=int(rng.integers(2**31)))
        exact = lambda row, e=exponent: refs.sech_charfn(abs(row[0]), 1.0, 1) * math.exp(e(row[0]))
        tasks.append(Task(f"levy-h1-{name}", _sizes(cfg), lambda c=cfg, p=psi, e=exact:
                          _mc_task(h1, p, c, (0.5, 1.0, 2.0), e, False)))
    psi_ou = {
        "psi_gaussian": (P["psi_gaussian"], refs.psi_gaussian_limit),
        "psi_cp": (P["psi_cp"], refs.psi_cp_limit),
    }
    for name, (psi, limit) in psi_ou.items():
        cfg = simulate.PathConfig(horizon=6.0, steps_per_unit=STEPS_PER_UNIT, paths=MC_PATHS,
                                  seed=int(rng.integers(2**31)))
        # stationary law: t = 1/2 area times the reflected stationary exponent
        exact = lambda row, f=limit: refs.sech_charfn(abs(row[0]), 0.5, 1) * np.exp(f(-row[0]))
        tasks.append(Task(f"ou-h1-{name}", _sizes(cfg), lambda c=cfg, p=psi, e=exact:
                          _mc_task(h1, p, c, (0.25, 0.5, 1.0), e, True)))
    cfg = simulate.PathConfig(horizon=1.0, steps_per_unit=STEPS_PER_UNIT, paths=MC_PATHS_QUAT,
                              seed=int(rng.integers(2**31)))
    panel = ((0.5, 0.0, 0.0), (0.0, 1.0, 0.0), (0.6, 0.8, 1.0))
    exact = lambda row: refs.sech_charfn(float(np.linalg.norm(row)), 1.0, 2)
    tasks.append(Task("levy-quaternionic-none", _sizes(cfg),
                      lambda: _mc_task(quat, None, cfg, panel, exact, False)))
    return tasks


def _sizes(cfg):
    return {"paths": cfg.paths, "steps_per_unit": cfg.steps_per_unit,
            "horizon": cfg.horizon, "seed": cfg.seed}


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def _semigroup_task(G, nodes):
    ax = [np.linspace(-4.5, 4.5, nodes), np.linspace(-4.5, 4.5, nodes),
          np.linspace(-3.5, 3.5, nodes)]
    q_half = kernels.invert_to_grid(kernels.heat_slice(G, 0.5), ax, calibrate=False)
    q_one = kernels.invert_to_grid(kernels.heat_slice(G, 1.0), ax, calibrate=False)
    conv = kernels.group_convolve(G, q_half, q_half)
    gates = Gates()
    gates.below(np.max(np.abs(conv.values - q_one.values)), 1e-3)
    return gates


def _coeigen_task(G, psi, t):
    rep = semigroups.coeigen_residual(G, psi, [1], t, test="bump", tol=1e-3)
    gates = Gates()
    gates.below(rep.residual, 1e-3)
    return gates


def _marginal_task(G, psi, h_axes, t=0.5, nv=241):
    sl = kernels.heat_slice(G, t) if psi is None else kernels.perturbed_slice(G, psi, t)
    v = np.linspace(-9.0, 9.0, nv)
    grid = kernels.invert_to_grid(sl, list(h_axes) + [v], calibrate=False)
    marg = np.trapezoid(grid.values, v, axis=-1)
    rsq = sum(c**2 for c in np.meshgrid(*h_axes, indexing="ij"))
    gates = Gates()
    gates.below(np.max(np.abs(marg - refs.euclid_heat(rsq, G.n, t))), 1e-5)
    return gates


def grid_tasks(G, P, rng):
    h1, h2 = G["h1"], G["h2"]
    drift = levy.LevyExponent(sigma=[[1.0]], b=[0.5])
    tasks = [Task("semigroup-h1-41^3", {"grid": [41, 41, 41]},
                  lambda: _semigroup_task(h1, 41))]
    for name in ("psi_none", "psi_gaussian"):
        for t in (0.25, 0.5):
            tasks.append(Task(f"coeigen-h1-{name}-t{t}", {"grid": [61, 61, 73], "t": t},
                              lambda p=P[name], t=t: _coeigen_task(h1, p, t)))
    h1_axes = (np.linspace(-2.0, 2.0, 5), np.linspace(-1.5, 1.5, 4))
    for name, psi in (("psi_none", None), ("psi_gaussian", P["psi_gaussian"]),
                      ("gaussian-drift", drift), ("psi_cp", P["psi_cp"])):
        tasks.append(Task(f"marginal-h1-{name}", {"grid": [5, 4, 241]},
                          lambda p=psi: _marginal_task(h1, p, h1_axes)))
    h2_axes = (np.linspace(-2.0, 2.0, 5),) * 4
    tasks.append(Task("marginal-h2-psi_none", {"grid": [5, 5, 5, 5, 241]},
                      lambda: _marginal_task(h2, None, h2_axes)))
    return tasks


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def _ladder_task(G, psi, cap):
    gm = polynomials.generator_matrix(G, psi, cap)
    dims = refs.layer_dims(G.n, G.m, cap)
    eigs = np.linalg.eigvals(gm.entries)
    expected = np.sort(np.concatenate([[-float(k)] * c for k, c in enumerate(dims)]))
    gates = Gates()
    gates.below(np.max(np.abs(np.sort(eigs.real) - expected)), 1e-8)
    gates.below(np.max(np.abs(eigs.imag)), 1e-8)
    for k, dim in enumerate(dims):
        gates.below(abs(gm.geometric_multiplicity(-float(k)) - dim), 0.5)
    return gates


def _eigen_decomposition_task(G, psi, cap, t=1.0):
    levels = semigroups.eigen_decomposition(G, psi, cap, t)
    dims = refs.layer_dims(G.n, G.m, cap)
    gates = Gates()
    gates.below(abs(len(levels) - len(dims)), 0.5)
    for k, (value, polys) in enumerate(levels):
        gates.rel(value, math.exp(-k * t), 1e-12)
        gates.below(abs(len(polys) - dims[k]), 0.5)
        for p in polys:
            resid = polynomials.ou_generator(G, psi, p) + p.scale(k)
            gates.below(resid.max_abs_coeff(), 1e-9 * max(1.0, p.max_abs_coeff()))
    return gates


def _intertwine_task(G, pairs, seed):
    gates = Gates()
    for pair, psi, test in pairs:
        rep = semigroups.intertwine_residual(pair, G, psi, 0.5, test, seed=seed, tol=1e-12)
        gates.below(rep.residual, 1e-12)
    return gates


def _weyl_task(G, shapes):
    fr = spectral.frame_at(G, np.ones(G.m))
    gates = Gates()
    for a, b in shapes:
        wm = hermite.weyl_matrix(fr, lambda x, y: np.exp(-a * x**2 - b * y**2), 32)
        lhs = fr.pf * wm.hs_norm_sq() / (2 * math.pi)
        gates.rel(lhs, math.pi / (2.0 * math.sqrt(a * b)), 1e-5)   # |f|^2 on R^2
    return gates


def _plancherel_task(G):
    res = verify.check_plancherel(G)
    gates = Gates()
    gates.below(res.detail["rel_err"], 1e-3)
    gates.below(res.detail["closed_form_cross_check"], 1e-9)
    return gates


def _nonnormal_task(G):
    gates = Gates()
    gates.above(semigroups.nonnormality_witness(G, None, 1.0), 1e-6)
    return gates


def _frequency_task(G, P, lam, lam3, t, z1, z2):
    """One random frequency through each closed form, against refs."""
    h1, h2, quat = G["h1"], G["h2"], G["quaternionic"]
    cp, stable, gauss = P["psi_cp"], P["psi_stable"], P["psi_gaussian"]
    lv = np.array([lam])
    zsq1, zsq2 = float(z1 @ z1), float(z2 @ z2)
    heat1 = refs.heisenberg_hat(1, t, zsq1, lam)
    half1 = refs.heisenberg_hat(1, 0.5, zsq1, lam)
    gates = Gates()
    gates.rel(kernels.heat_hat(h1, t, z1, lv), heat1, 1e-10)
    gates.rel(kernels.heat_hat(h2, t, z2, lv), refs.heisenberg_hat(2, t, zsq2, lam), 1e-10)
    gates.rel(kernels.perturbed_hat(h1, cp, t, z1, lv), heat1 * np.exp(t * refs.psi_cp(lam)), 1e-10)
    gates.rel(kernels.perturbed_hat(h1, stable, t, z1, lv),
              heat1 * np.exp(t * refs.psi_stable(lam)), 1e-10)
    gates.rel(kernels.invariant_hat(h1, gauss, z1, lv),
              half1 * np.exp(refs.psi_gaussian_limit(-lam)), 1e-10)
    gates.rel(kernels.invariant_hat(h1, cp, z1, lv), half1 * np.exp(refs.psi_cp_limit(-lam)), 1e-10)
    gates.rel(kernels.invariant_hat(h1, stable, z1, lv),
              half1 * np.exp(refs.psi_stable_limit(-lam)), 1e-10)
    gates.rel(complex(cp.psi_t(t, lv)), refs.psi_cp_t(t, lam), 1e-10)
    charfn = kernels.vertical_charfn(quat, None, t, lam3)
    gates.rel(charfn, refs.sech_charfn(float(np.linalg.norm(lam3)), t, 2), 1e-10)
    gates.below(max(abs(charfn) - 1.0, 0.0), 1e-15)     # |charfn| <= 1
    return gates


FREQUENCIES = 200


def exact_tasks(G, P, rng):
    h1 = G["h1"]
    defaults = {
        "psi_none": None,
        "psi_gaussian": P["psi_gaussian"],
        "psi_cp": P["psi_cp"],
        "gaussian-drift": levy.LevyExponent(sigma=[[1.0]], b=[0.5]),
    }
    tasks = []
    for name, psi in defaults.items():
        tasks.append(Task(f"ladder-h1-{name}-cap8", {"cap": 8},
                          lambda p=psi: _ladder_task(h1, p, 8)))
    for gname, group in (("h2", G["h2"]), ("free2(3)", groups.free_step2(3)),
                         ("quaternionic", G["quaternionic"])):
        tasks.append(Task(f"ladder-{gname}-cap6", {"cap": 6},
                          lambda g=group: _ladder_task(g, None, 6)))
    for name in ("psi_cp", "gaussian-drift"):
        tasks.append(Task(f"eigen-decomposition-h1-{name}-cap4", {"cap": 4},
                          lambda p=defaults[name]: _eigen_decomposition_task(h1, p, 4)))
    pairs = [("mbeta", None, None)]
    for name in ("psi_none", "psi_gaussian", "psi_cp"):
        psi = defaults[name]
        pairs.append(("pi", psi, "h1"))
        if psi is not None:
            pairs += [("gamma", psi, "mixed"), ("lp", psi, "mixed")]
    node_seed = int(rng.integers(2**31))
    tasks.append(Task("intertwine-h1", {"pairs": len(pairs), "seed": node_seed},
                      lambda: _intertwine_task(h1, pairs, node_seed)))
    shapes = [tuple(rng.uniform(0.35, 0.8, size=2)) for _ in range(3)]
    tasks.append(Task("weyl-isometry-h1", {"size": 32, "shapes": len(shapes)},
                      lambda: _weyl_task(h1, shapes)))
    tasks.append(Task("plancherel-h1", {"lam_nodes": 160}, lambda: _plancherel_task(h1)))
    tasks.append(Task("nonnormality-h1", {"cap": 3}, lambda: _nonnormal_task(h1)))
    for i in range(FREQUENCIES):
        lam = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 4.0))
        direction = rng.normal(size=3)
        lam3 = direction / np.linalg.norm(direction) * rng.uniform(0.2, 4.0)
        t = float(rng.uniform(0.2, 1.5))
        z1, z2 = rng.uniform(-1.5, 1.5, size=2), rng.uniform(-1.5, 1.5, size=4)
        tasks.append(Task(f"frequency-{i}", {},
                          lambda a=(lam, lam3, t, z1, z2): _frequency_task(G, P, *a)))
    return tasks


TASK_LISTS = {"mc": mc_tasks, "grid": grid_tasks, "exact": exact_tasks}
