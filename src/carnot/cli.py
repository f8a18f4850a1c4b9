"""Command-line interface: group description, exponent evaluation, spectra,

kernel tables, simulation, estimators, and the verification suite.

Outputs are machine-readable (JSON to stdout, CSV for tables/samples); every
verification run appends a manifest line to a JSON-lines file.  Exit codes:
0 an answer, 1 a failed or crashed check, 2 a usage error: malformed input, a
dimension mismatch, or an operation the group or exponent does not support.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import sys
import time
from importlib import metadata, resources

import click
import numpy as np

from . import __version__
from .errors import AccuracyError, DegenerateFrameError, UnsupportedOperationError
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
from .semigroups import coeigen_residual, eigen_decomposition, intertwine_residual
from .simulate import (
    PathConfig,
    estimate_charfn,
    simulate_levy_on_group,
    simulate_levy_ou,
    worker_count,
)
from .spectral import frame_at, spectrum_of_generator
from .verify import CHECKS, QUICK, run_check


def _echo_json(data):
    click.echo(json.dumps(data, indent=1, sort_keys=True))


def _read_spec(spec):
    """JSON text of a spec given as ``builtin:NAME`` or as a file path."""
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        return resources.files("carnot.specs").joinpath(f"{name}.json").read_text()
    with open(spec) as fh:
        return fh.read()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _load_group(spec):
    text = _read_spec(spec)
    return CarnotGroup.from_dict(json.loads(text)), text


def _load_psi(spec, m=None, required=False):
    """The exponent of ``spec``, or None when it is trivial (rejected when

    ``required``).  A non-trivial one must have vertical dimension ``m``.
    """
    psi = None if spec in (None, "none") else LevyExponent.from_dict(json.loads(_read_spec(spec)))
    if psi is None or psi.is_trivial:
        if required:
            raise click.UsageError("this command needs a non-trivial --psi exponent")
        return None
    if m is not None and psi.m != m:
        raise click.UsageError(f"--psi has m = {psi.m}, the group has m = {m}")
    return psi


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


def _parse_vector(text, name, length):
    """``length`` finite numbers, comma or space separated, given to ``--name``."""
    vec = [FINITE.convert(x, None, None) for x in text.replace(",", " ").split()]
    if len(vec) != length:
        raise click.BadParameter(f"needs a vector of length {length}, got {text!r}",
                                 param_hint=f"'--{name}'")
    return np.array(vec)


def _parse_grid(text, G):
    """Axes from ``h:lo:hi:n,v:lo:hi:n``: one h and one v axis, each with

    finite bounds lo < hi and n >= 2 nodes.
    """
    axes = {}
    for part in text.split(","):
        fields = part.strip().split(":")
        if len(fields) != 4 or fields[0] not in ("h", "v") or fields[0] in axes:
            raise click.BadParameter(f"{part!r} is not one h:lo:hi:n or v:lo:hi:n axis",
                                     param_hint="'--grid'")
        lo, hi = FINITE.convert(fields[1], None, None), FINITE.convert(fields[2], None, None)
        count = click.INT.convert(fields[3], None, None)
        if not (lo < hi and count >= 2):
            raise click.BadParameter(f"axis {part!r} needs lo < hi and at least 2 nodes",
                                     param_hint="'--grid'")
        axes[fields[0]] = np.linspace(lo, hi, count)
    if len(axes) != 2:
        raise click.BadParameter("needs an h axis and a v axis", param_hint="'--grid'")
    return [axes["h"]] * G.n + [axes["v"]] * G.m


class _Boundary(click.Group):
    """The command group.  It reports the package's input errors as usage

    errors (exit 2): malformed or mismatched specs, files and vectors
    (ValueError, with GroupValidationError and JSONDecodeError), files that
    cannot be read or written, unsupported operations and input the numerics
    cannot resolve (AccuracyError).  Any other exception is a defect and
    keeps its traceback.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError, UnsupportedOperationError, DegenerateFrameError,
                AccuracyError) as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Boundary)
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
    p = _load_psi(psi_spec, required=True)
    val = complex(p.psi(_parse_vector(lam, "lam", p.m)))
    _echo_json({"psi": [val.real, val.imag], "real_valued": p.is_real_valued})


@psi.command("psit")
@_psi_common
@click.option("--t", type=FINITE, required=True)
def psi_psit(psi_spec, lam, t):
    """Evaluate the time-deformed exponent."""
    p = _load_psi(psi_spec, required=True)
    val = complex(p.psi_t(t, _parse_vector(lam, "lam", p.m)))
    _echo_json({"psi_t": [val.real, val.imag], "t": t})


@psi.command("limit")
@_psi_common
def psi_limit_cmd(psi_spec, lam):
    """Evaluate the stationary exponent."""
    p = _load_psi(psi_spec, required=True)
    val = complex(p.psi_limit(_parse_vector(lam, "lam", p.m)))
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
    p = _load_psi(psi_spec, G.m)
    desc = spectrum_of_generator(G, p)
    _echo_json(desc.describe())


@spectrum.command("ou")
@click.option("--spec", default="builtin:h1")
@click.option("--psi", "psi_spec", default="none")
@click.option("--degree", type=click.IntRange(min=0), default=3)
def spectrum_ou(spec, psi_spec, degree):
    """Eigenvalues with multiplicities and explicit eigenfunctions."""
    G, _ = _load_group(spec)
    p = _load_psi(psi_spec, G.m)
    gm = generator_matrix(G, p, degree)
    out = []
    for k, (_, polys) in enumerate(eigen_decomposition(G, p, degree)):
        out.append({
            "eigenvalue": -k,
            "algebraic_multiplicity": gm.algebraic_multiplicity(-float(k)),
            "geometric_multiplicity": gm.geometric_multiplicity(-float(k)),
            "eigenfunctions": [
                {"".join(f"h{i+1}^{a}" for i, a in enumerate(key[0]) if a)
                 + "".join(f"v{j+1}^{g}" for j, g in enumerate(key[1]) if g)
                 or "1": round(c, 12)
                 for key, c in q.terms.items()}
                for q in polys
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
    p = _load_psi(psi_spec, G.m)
    lam_v = _parse_vector(lam, "lam", G.m)
    z_v = _parse_vector(z, "z", 2 * G.d) if z else np.zeros(2 * G.d)
    nu_v = _parse_vector(nu, "nu", G.k) if nu else np.zeros(G.k)
    if kind == "heat":
        val = complex(heat_hat(G, t, z_v, lam_v, nu_v))
    elif kind == "perturbed":
        val = complex(perturbed_hat(G, p, t, z_v, lam_v, nu_v))
    else:
        val = complex(invariant_hat(G, p, z_v, lam_v, nu_v))
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
    """Invert the kernel onto a grid and write CSV (coordinates, density).

    The density is scaled to unit mass on the grid; ``grid_mass`` is the mass
    before, the share of the law the grid holds.
    """
    G, _ = _load_group(spec)
    p = _load_psi(psi_spec, G.m, required=kind != "heat")
    axes = _parse_grid(grid, G)
    if kind == "heat":
        sl = heat_slice(G, t)
    elif kind == "perturbed":
        sl = perturbed_slice(G, p, t)
    else:
        sl = invariant_slice(G, p)
    dens = invert_to_grid(sl, axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    cols = [m.ravel() for m in mesh] + [dens.values.ravel()]
    header = [f"h{i+1}" for i in range(G.n)] + [f"v{j+1}" for j in range(G.m)] + ["density"]
    _write_csv(out, header, np.column_stack(cols))
    if gnuplot:
        np.savetxt(str(out) + ".dat", np.column_stack(cols), fmt="%.10g")
    _echo_json({"written": out, "nodes": int(dens.values.size),
                "mass": dens.mass(), "grid_mass": dens.meta["grid_mass"],
                "c_norm": dens.meta["c_norm"]})


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
    p = _load_psi(psi_spec, G.m)
    cfg = PathConfig(horizon=t, steps_per_unit=steps, paths=paths, seed=seed)
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
        rows = [line for line in fh if line.strip()]
    data = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, 0))
    if not len(data) or data.shape[1] != len(header):
        raise click.UsageError(f"{samples} needs rows of {len(header)} numbers under its header")
    cols = [i for i, name in enumerate(header) if name.startswith(columns)]
    if not cols:
        raise click.UsageError(f"no columns starting with {columns!r}")
    panel = [_parse_vector(part, "lam", len(cols)) for part in lam.split(";")]
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
              help="exponent for isospectral, marginal, mc-kernel, stationary and "
                   "intertwine; the other checks run their own")
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
    G, spec_text = _load_group(spec)
    p = _load_psi(psi_spec, G.m)

    if pair is not None or beta is not None:
        rep = (intertwine_residual(pair, G, p, t_opt) if pair is not None
               else coeigen_residual(G, p, [beta], t_opt, test="bump"))
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
    t0 = time.time()
    results = []
    for name in names:
        kw = {}
        if name in ("mc-kernel", "stationary") and quick:
            kw["paths"] = 20_000
        if psi_spec and name in (
            "isospectral", "marginal", "mc-kernel", "stationary", "intertwine"
        ):
            kw["exponents"] = {"user": p} if name == "stationary" else {"none": None, "user": p}
        if seed is not None and "seed" in inspect.signature(CHECKS[name]).parameters:
            kw["seed"] = seed
        results.append(run_check(name, G=G, **kw))
    record = {
        "command": "verify",
        "argv": sys.argv[1:],
        "version": __version__,
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "threads": worker_count(),
        "spec_sha256": _sha256(spec_text),
        "psi_sha256": None if psi_spec in (None, "none") else _sha256(_read_spec(psi_spec)),
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
            error = f": {r.detail['error']}" if "error" in r.detail else ""
            click.echo(f"{status:4s} {r.name} ({r.elapsed:.1f}s){error}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        click.echo(f"failed checks: {', '.join(failed)}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
