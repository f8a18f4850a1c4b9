"""Command-line interface: group description, exponent evaluation, spectra,

kernel tables, simulation, estimators, and the verification suite.

Outputs are machine-readable (JSON to stdout, CSV for tables/samples); every
verification run appends a manifest line to a JSON-lines file.  Exit codes:
0 success, 1 failed checks, 2 usage or validation errors.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import sys
import time
from importlib import resources

import click
import numpy as np

from . import __version__
from .errors import GroupValidationError, UnsupportedOperationError
from .groups import CarnotGroup
from .kernels import (
    heat_hat,
    heat_slice,
    invariant_hat,
    invariant_slice,
    invert_to_grid,
    perturbed_hat,
    perturbed_slice,
)
from .levy import LevyExponent
from .polynomials import generator_matrix
from .simulate import PathConfig, estimate_charfn, simulate_levy_ou, simulate_levy_on_group
from .spectral import frame_at, spectrum_of_generator
from .verify import CHECKS, QUICK, run_check


def _echo_json(data):
    click.echo(json.dumps(data, indent=1, sort_keys=True))


def _load_group(spec):
    try:
        if spec.startswith("builtin:"):
            name = spec.split(":", 1)[1]
            text = resources.files("carnot.specs").joinpath(f"{name}.json").read_text()
            return CarnotGroup.from_dict(json.loads(text)), text
        with open(spec) as fh:
            text = fh.read()
        return CarnotGroup.from_dict(json.loads(text)), text
    except (GroupValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"invalid group spec {spec!r}: {exc}")


def _load_psi(spec):
    if spec is None or spec == "none":
        return None, ""
    try:
        if spec.startswith("builtin:"):
            name = spec.split(":", 1)[1]
            text = resources.files("carnot.specs").joinpath(f"{name}.json").read_text()
        else:
            with open(spec) as fh:
                text = fh.read()
        psi = LevyExponent.from_dict(json.loads(text))
        return (None, text) if psi.is_trivial else (psi, text)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"invalid exponent spec {spec!r}: {exc}")


class FiniteFloat(click.ParamType):
    """A float that must be finite: nan and inf would reach the JSON output."""

    name = "float"

    def convert(self, value, param, ctx):
        try:
            x = float(value)
        except (TypeError, ValueError):
            self.fail(f"{value!r} is not a number", param, ctx)
        if not math.isfinite(x):
            self.fail(f"{value!r} is not finite", param, ctx)
        return x


FINITE = FiniteFloat()


def _parse_vector(text, name="vector"):
    try:
        vec = np.array([float(x) for x in text.replace(",", " ").split()])
    except ValueError:
        raise click.UsageError(f"cannot parse {name} from {text!r}")
    if not np.all(np.isfinite(vec)):
        raise click.UsageError(f"{name} must be finite, got {text!r}")
    return vec


def _parse_grid(text, G):
    axes = {}
    for part in text.split(","):
        key, lo, hi, count = part.split(":")
        axes[key.strip()] = np.linspace(FINITE.convert(lo, None, None),
                                        FINITE.convert(hi, None, None), int(count))
    if "h" not in axes or "v" not in axes:
        raise click.UsageError("grid must specify h:lo:hi:n,v:lo:hi:n")
    return [axes["h"]] * G.n + [axes["v"]] * G.m


@click.group()
@click.version_option(__version__)
def main():
    """Heat and Levy-Ornstein-Uhlenbeck semigroups on step-2 Carnot groups."""


# -- group -------------------------------------------------------------------

@main.group()
def group():
    """Group structure commands."""


@group.command("describe")
@click.option("--spec", default="builtin:h1", help="group spec JSON or builtin:NAME")
def group_describe(spec):
    """Print dimensions, rank data, and sample symplectic spectra."""
    G, _ = _load_group(spec)
    rng = np.random.default_rng(1)
    samples = []
    for _ in range(3):
        lam = rng.normal(size=G.m)
        fr = frame_at(G, lam)
        samples.append({"lambda": lam.tolist(), "eta": fr.eta.tolist(),
                        "pfaffian": fr.pf, "degenerate": fr.degenerate})
    _echo_json({
        "label": G.label, "n": G.n, "m": G.m, "d": G.d, "k": G.k,
        "generic_rank": G.generic_rank, "eta_samples": samples,
    })


# -- psi ---------------------------------------------------------------------

@main.group()
def psi():
    """Levy-Khintchine exponent commands."""


def _psi_common(fn):
    fn = click.option("--lam", required=True, help="frequency, comma separated")(fn)
    fn = click.option("--psi", "psi_spec", default="builtin:psi_gaussian",
                      help="exponent spec JSON or builtin:NAME")(fn)
    return fn


@psi.command("eval")
@_psi_common
def psi_eval(psi_spec, lam):
    """Evaluate the exponent at a frequency."""
    p, _ = _load_psi(psi_spec)
    if p is None:
        raise click.UsageError("exponent spec is trivial")
    val = complex(p.psi(_parse_vector(lam, "lam")))
    _echo_json({"psi": [val.real, val.imag], "real_valued": p.is_real_valued})


@psi.command("psit")
@_psi_common
@click.option("--t", type=FINITE, required=True)
def psi_psit(psi_spec, lam, t):
    """Evaluate the time-deformed exponent."""
    p, _ = _load_psi(psi_spec)
    if p is None:
        raise click.UsageError("exponent spec is trivial")
    val = complex(p.psi_t(t, _parse_vector(lam, "lam")))
    _echo_json({"psi_t": [val.real, val.imag], "t": t})


@psi.command("limit")
@_psi_common
def psi_limit_cmd(psi_spec, lam):
    """Evaluate the stationary exponent."""
    p, _ = _load_psi(psi_spec)
    if p is None:
        raise click.UsageError("exponent spec is trivial")
    try:
        val = complex(p.psi_limit(_parse_vector(lam, "lam")))
    except UnsupportedOperationError as exc:
        raise click.UsageError(str(exc))
    _echo_json({"psi_limit": [val.real, val.imag]})


# -- spectrum ----------------------------------------------------------------

@main.group()
def spectrum():
    """Spectra of the generators."""


@spectrum.command("delta")
@click.option("--spec", default="builtin:h1")
@click.option("--psi", "psi_spec", default="none")
def spectrum_delta(spec, psi_spec):
    """Describe the spectrum of the (perturbed) sub-Laplacian."""
    G, _ = _load_group(spec)
    p, _ = _load_psi(psi_spec)
    desc = spectrum_of_generator(G, p)
    _echo_json(desc.describe())


@spectrum.command("ou")
@click.option("--spec", default="builtin:h1")
@click.option("--psi", "psi_spec", default="none")
@click.option("--degree", type=int, default=3)
def spectrum_ou(spec, psi_spec, degree):
    """Eigenvalues with multiplicities and eigenfunction coefficients."""
    G, _ = _load_group(spec)
    p, _ = _load_psi(psi_spec)
    try:
        gm = generator_matrix(G, p, degree)
    except UnsupportedOperationError as exc:
        raise click.UsageError(str(exc))
    out = []
    for k in range(degree + 1):
        vecs = gm.eigenvectors_for(-float(k))
        out.append({
            "eigenvalue": -k,
            "algebraic_multiplicity": sum(
                1 for e in gm.eigenvalues() if abs(e + k) < 1e-8
            ),
            "geometric_multiplicity": gm.geometric_multiplicity(-float(k)),
            "eigenfunctions": [
                {"".join(f"h{i+1}^{a}" for i, a in enumerate(key[0]) if a)
                 + "".join(f"v{j+1}^{g}" for j, g in enumerate(key[1]) if g)
                 or "1": round(float(c), 12)
                 for key, c in p_.terms.items()}
                for p_ in vecs
            ],
        })
    _echo_json({"degree_cap": degree, "levels": out})


# -- kernel ------------------------------------------------------------------

@main.group()
def kernel():
    """Kernel evaluation and inversion."""


@kernel.command("hat")
@click.option("--spec", default="builtin:h1")
@click.option("--psi", "psi_spec", default="none")
@click.option("--kind", type=click.Choice(["heat", "perturbed", "invariant"]),
              default="heat")
@click.option("--t", type=FINITE, default=0.5)
@click.option("--z", default=None, help="plane coordinates, comma separated")
@click.option("--lam", required=True)
@click.option("--nu", default="", help="radical frequency")
def kernel_hat(spec, psi_spec, kind, t, z, lam, nu):
    """Evaluate the partial-Fourier kernel at one frequency."""
    G, _ = _load_group(spec)
    p, _ = _load_psi(psi_spec)
    lam_v = _parse_vector(lam, "lam")
    z_v = _parse_vector(z, "z") if z else np.zeros(2 * G.d)
    nu_v = _parse_vector(nu, "nu") if nu else np.zeros(G.k)
    try:
        if kind == "heat":
            val = complex(heat_hat(G, t, z_v, lam_v, nu_v))
        elif kind == "perturbed":
            val = complex(perturbed_hat(G, p, t, z_v, lam_v, nu_v))
        else:
            val = complex(invariant_hat(G, p, z_v, lam_v, nu_v))
    except (UnsupportedOperationError, ValueError) as exc:
        raise click.UsageError(str(exc))
    _echo_json({"kind": kind, "value": [val.real, val.imag]})


@kernel.command("invert")
@click.option("--spec", default="builtin:h1")
@click.option("--psi", "psi_spec", default="none")
@click.option("--kind", type=click.Choice(["heat", "perturbed", "invariant"]),
              default="heat")
@click.option("--t", type=FINITE, default=0.5)
@click.option("--grid", default="h:-3:3:31,v:-4:4:41")
@click.option("--out", type=click.Path(), required=True)
@click.option("--gnuplot", is_flag=True, help="also write a plain .dat table")
def kernel_invert(spec, psi_spec, kind, t, grid, out, gnuplot):
    """Invert the kernel onto a grid and write CSV (coordinates, density)."""
    G, _ = _load_group(spec)
    p, _ = _load_psi(psi_spec)
    if kind != "heat" and p is None:
        raise click.UsageError(f"--kind {kind} needs a non-trivial --psi exponent")
    try:
        if kind == "heat":
            sl = heat_slice(G, t)
        elif kind == "perturbed":
            sl = perturbed_slice(G, p, t)
        else:
            sl = invariant_slice(G, p)
        axes = _parse_grid(grid, G)
        dens = invert_to_grid(sl, axes)
    except (UnsupportedOperationError, ValueError) as exc:
        raise click.UsageError(str(exc))
    mesh = np.meshgrid(*axes, indexing="ij")
    cols = [m.ravel() for m in mesh] + [dens.values.ravel()]
    header = [f"h{i+1}" for i in range(G.n)] + [f"v{j+1}" for j in range(G.m)] + ["density"]
    _write_csv(out, header, np.column_stack(cols))
    if gnuplot:
        np.savetxt(str(out) + ".dat", np.column_stack(cols), fmt="%.10g")
    _echo_json({"written": out, "nodes": int(dens.values.size),
                "mass": dens.mass(), "c_norm": dens.meta.get("c_norm", 1.0)})


# -- simulate ----------------------------------------------------------------

@main.group()
def simulate():
    """Monte Carlo simulation."""


def _sim_common(fn):
    for opt in (
        click.option("--spec", default="builtin:h1"),
        click.option("--psi", "psi_spec", default="none"),
        click.option("--t", type=FINITE, default=1.0),
        click.option("--paths", type=int, default=10_000),
        click.option("--seed", type=int, default=0),
        click.option("--steps", type=int, default=4096),
        click.option("--out", type=click.Path(), required=True),
    ):
        fn = opt(fn)
    return fn


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, rows, delimiter=",", fmt="%.12g")


def _run_sim(kind, spec, psi_spec, t, paths, seed, steps, out):
    G, _ = _load_group(spec)
    p, _ = _load_psi(psi_spec)
    try:
        cfg = PathConfig(horizon=t, steps_per_unit=steps, paths=paths, seed=seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    sim = simulate_levy_on_group if kind == "levy" else simulate_levy_ou
    H, V = sim(G, p, cfg)
    header = [f"h{i+1}" for i in range(G.n)] + [f"v{j+1}" for j in range(G.m)]
    _write_csv(out, header, np.column_stack([H, V]))
    _echo_json({"written": out, "paths": paths, "seed": seed, "horizon": t})


@simulate.command("levy")
@_sim_common
def simulate_levy(**kw):
    """Simulate the group-valued Levy process (terminal samples)."""
    _run_sim("levy", **kw)


@simulate.command("ou")
@_sim_common
def simulate_ou(**kw):
    """Simulate the group Ornstein-Uhlenbeck process (terminal samples)."""
    _run_sim("ou", **kw)


# -- estimate ----------------------------------------------------------------

@main.group()
def estimate():
    """Estimators over sample files."""


@estimate.command("charfn")
@click.option("--samples", type=click.Path(exists=True), required=True)
@click.option("--lam", required=True, help="panel, semicolon separated frequencies")
@click.option("--columns", default="v", help="'v' for vertical columns, 'h' horizontal")
def estimate_charfn_cmd(samples, lam, columns):
    """Empirical characteristic function of sampled coordinates."""
    with open(samples) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    cols = [i for i, name in enumerate(header) if name.startswith(columns)]
    if not cols:
        raise click.UsageError(f"no columns starting with {columns!r}")
    panel = [_parse_vector(part, "lam") for part in lam.split(";")]
    est = estimate_charfn(data[:, cols], panel)
    _echo_json({
        "lam": [row.tolist() for row in est.lam],
        "values": [[v.real, v.imag] for v in est.values],
        "stderr": est.stderr.tolist(),
        "paths": est.paths,
        "modulus_ok": est.check_modulus(),
    })


# -- verify ------------------------------------------------------------------

@main.command("verify")
@click.argument("checks", nargs=-1)
@click.option("--spec", default="builtin:h1")
@click.option("--psi", "psi_spec", default=None,
              help="override exponent; checks without the needed capability are skipped")
@click.option("--quick", is_flag=True, help="fast subset of the suite")
@click.option("--manifest", type=click.Path(), default="carnot-runs.jsonl")
@click.option("--seed", type=int, default=None,
              help="seed for every check that draws random numbers (default: its own)")
@click.option("--pair", type=click.Choice(["pi", "lambda", "gamma", "tbk", "mbeta", "lp"]),
              default=None, help="single intertwining pair, reported as JSON")
@click.option("--beta", type=int, default=None, help="single co-eigen order, JSON report")
@click.option("--t", "t_opt", type=FINITE, default=0.5)
@click.option("--json", "as_json", is_flag=True, help="emit results as JSON")
def verify_cmd(checks, spec, psi_spec, quick, manifest, seed, pair, beta, t_opt, as_json):
    """Run verification checks (named, or 'all').

    Available: eigen isospectral marginal semigroup mc-kernel intertwine
    coeigen weyl plancherel stationary spectrum nonnormal all.  With
    ``--pair`` (or ``--beta``) a single intertwining (or co-eigen) relation
    runs and its report is printed as JSON.
    """
    from .semigroups import coeigen_residual, intertwine_residual

    G, spec_text = _load_group(spec)
    p, _ = _load_psi(psi_spec) if psi_spec else (None, "")

    if pair is not None or beta is not None:
        try:
            if pair is not None:
                rep = intertwine_residual(pair, G, p, t_opt)
            else:
                rep = coeigen_residual(G, p, [beta], t_opt, test="bump")
        except (UnsupportedOperationError, ValueError) as exc:
            raise click.UsageError(str(exc))
        _echo_json(rep.as_dict())
        if not rep.passed:
            sys.exit(1)
        return

    if not checks or "all" in checks:
        names = QUICK if quick else tuple(CHECKS)
    else:
        unknown = [c for c in checks if c not in CHECKS]
        if unknown:
            raise click.UsageError(f"unknown checks: {unknown}")
        names = checks
    override = {"none": None, "user": p} if psi_spec else None
    t0 = time.time()
    results = []
    for name in names:
        kw = {}
        if name in ("mc-kernel", "stationary") and quick:
            kw["paths"] = 20_000
        if override is not None and name in (
            "isospectral", "marginal", "mc-kernel", "stationary", "intertwine"
        ):
            kw["exponents"] = override if name != "stationary" else {"user": p}
        if seed is not None and "seed" in inspect.signature(CHECKS[name]).parameters:
            kw["seed"] = seed
        results.append(run_check(name, G=G, **kw))
    record = {
        "command": "verify",
        "argv": sys.argv[1:],
        "version": __version__,
        "spec_sha256": hashlib.sha256(spec_text.encode()).hexdigest()[:16],
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "wall_time_s": round(time.time() - t0, 3),
        "results": [r.as_dict() for r in results],
    }
    with open(manifest, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if as_json:
        _echo_json(record["results"])
    else:
        for r in results:
            status = "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL")
            click.echo(f"{status:4s} {r.name} ({r.elapsed:.1f}s)")
    failed = [r.name for r in results if not r.passed]
    if failed:
        click.echo(f"failed checks: {', '.join(failed)}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
