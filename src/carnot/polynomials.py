"""Exact calculus of polynomials graded by the dilation (deg h_i = 1,

deg v_j = 2), together with the differential operators that drive the
eigenstructure: the horizontal fields Z_i, the horizontal Laplacian,
the dilation generator, and the vertical jump generator acting through
moments.  Coefficients stay exact (Fractions) whenever the inputs are
rational; structure-matrix entries are lifted to Fractions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import UnsupportedOperationError
from .groups import CarnotGroup

HALF = Fraction(1, 2)


def _exactify(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # floats are dyadic rationals, conversion is exact
    return x


class GradedPolynomial:
    """Polynomial in (h_1..h_nh, v_1..v_mv) stored as {(alpha, gamma): coeff}."""

    __slots__ = ("nh", "mv", "terms")

    def __init__(self, nh, mv, terms=None):
        self.nh = int(nh)
        self.mv = int(mv)
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c != 0:
                    self.terms[key] = c

    # constructors
    @classmethod
    def zero(cls, nh, mv):
        return cls(nh, mv)

    @classmethod
    def constant(cls, nh, mv, c=1):
        key = (tuple([0] * nh), tuple([0] * mv))
        return cls(nh, mv, {key: _exactify(c)})

    @classmethod
    def monomial(cls, nh, mv, alpha, gamma, c=1):
        return cls(nh, mv, {(tuple(alpha), tuple(gamma)): _exactify(c)})

    @classmethod
    def h_var(cls, nh, mv, i):
        alpha = [0] * nh
        alpha[i] = 1
        return cls.monomial(nh, mv, alpha, [0] * mv)

    @classmethod
    def v_var(cls, nh, mv, l):
        gamma = [0] * mv
        gamma[l] = 1
        return cls.monomial(nh, mv, [0] * nh, gamma)

    # basics
    def is_zero(self):
        return not self.terms

    def graded_degree(self):
        if not self.terms:
            return 0
        return max(sum(a) + 2 * sum(g) for a, g in self.terms)

    def copy(self):
        return GradedPolynomial(self.nh, self.mv, dict(self.terms))

    def __add__(self, other):
        if not isinstance(other, GradedPolynomial):
            other = GradedPolynomial.constant(self.nh, self.mv, other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return GradedPolynomial(self.nh, self.mv, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other if isinstance(other, GradedPolynomial)
                       else GradedPolynomial.constant(self.nh, self.mv, -_exactify(other)))

    def scale(self, c):
        c = _exactify(c)
        return GradedPolynomial(self.nh, self.mv, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, GradedPolynomial):
            return self.scale(other)
        out = {}
        for (a1, g1), c1 in self.terms.items():
            for (a2, g2), c2 in other.terms.items():
                key = (
                    tuple(x + y for x, y in zip(a1, a2)),
                    tuple(x + y for x, y in zip(g1, g2)),
                )
                out[key] = out.get(key, 0) + c1 * c2
        return GradedPolynomial(self.nh, self.mv, out)

    __rmul__ = __mul__

    def diff_h(self, i):
        out = {}
        for (a, g), c in self.terms.items():
            if a[i] == 0:
                continue
            na = list(a)
            na[i] -= 1
            out[(tuple(na), g)] = out.get((tuple(na), g), 0) + c * a[i]
        return GradedPolynomial(self.nh, self.mv, out)

    def diff_v(self, l):
        out = {}
        for (a, g), c in self.terms.items():
            if g[l] == 0:
                continue
            ng = list(g)
            ng[l] -= 1
            out[(a, tuple(ng))] = out.get((a, tuple(ng)), 0) + c * g[l]
        return GradedPolynomial(self.nh, self.mv, out)

    def mul_h(self, i, c=1):
        out = {}
        for (a, g), coeff in self.terms.items():
            na = list(a)
            na[i] += 1
            out[(tuple(na), g)] = out.get((tuple(na), g), 0) + _exactify(c) * coeff
        return GradedPolynomial(self.nh, self.mv, out)

    def dilate(self, c):
        """Pullback by the dilation: p(c h, c^2 v), term scaling c^degree."""
        out = {}
        for (a, g), coeff in self.terms.items():
            out[(a, g)] = coeff * _exactify(c) ** (sum(a) + 2 * sum(g))
        return GradedPolynomial(self.nh, self.mv, out)

    def shift_v_by_moments(self, moments):
        """``p(h, v) -> sum_gamma d^gamma_v p(h, v) M_gamma / gamma!``.

        The map ``p -> E[p(h, v + V)]`` for a random shift V with moments
        ``M_gamma`` (a dict keyed by vertical multi-index, including zero).
        """
        out = GradedPolynomial.zero(self.nh, self.mv)
        for gamma, mom in moments.items():
            if mom == 0:
                continue
            q = self
            fact = 1
            for l, power in enumerate(gamma):
                for r in range(power):
                    q = q.diff_v(l)
                    fact *= r + 1
                if q.is_zero():
                    break
            if not q.is_zero():
                out = out + q.scale(_exactify(mom) / fact if isinstance(mom, (int, Fraction))
                                    else mom / fact)
        return out

    def evaluate(self, h, v):
        h = np.asarray(h, dtype=float)
        v = np.asarray(v, dtype=float)
        shape = np.broadcast_shapes(h.shape[:-1], v.shape[:-1])
        total = np.zeros(shape)
        for (a, g), c in self.terms.items():
            term = float(c) * np.ones(shape)
            for i, p in enumerate(a):
                if p:
                    term = term * h[..., i] ** p
            for l, p in enumerate(g):
                if p:
                    term = term * v[..., l] ** p
            total = total + term
        return total if shape else float(total)

    def max_abs_coeff(self):
        return max((abs(float(c)) for c in self.terms.values()), default=0.0)

    def __repr__(self):
        def fmt(key, c):
            a, g = key
            parts = [str(c)]
            parts += [f"h{i+1}^{p}" if p > 1 else f"h{i+1}" for i, p in enumerate(a) if p]
            parts += [f"v{l+1}^{p}" if p > 1 else f"v{l+1}" for l, p in enumerate(g) if p]
            return "*".join(parts)

        if not self.terms:
            return "0"
        return " + ".join(fmt(k, c) for k, c in sorted(self.terms.items()))


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

def apply_Z(G: CarnotGroup, i, p: GradedPolynomial) -> GradedPolynomial:
    """Left-invariant horizontal field: ``Z_i = d/dh_i + (1/2) sum_l omega_l(h, e_i) d/dv_l``.

    With ``omega_l(h, h') = h . A_l h'`` the vertical coefficient is
    ``omega_l(h, e_i) = (A_l^T h)_i = -(A_l h)_i``.
    """
    if not 0 <= i < G.n:
        raise ValueError(f"field index {i} out of range for n = {G.n}")
    out = p.diff_h(i)
    for l in range(G.m):
        dv = p.diff_v(l)
        if dv.is_zero():
            continue
        for j in range(G.n):
            a = G.A[l][j, i]
            if a != 0.0:
                out = out + dv.mul_h(j, HALF * _exactify(a))
    return out


def sub_laplacian(G: CarnotGroup, p: GradedPolynomial) -> GradedPolynomial:
    """Horizontal Laplacian ``sum_i Z_i^2``; drops graded degree by two."""
    out = GradedPolynomial.zero(p.nh, p.mv)
    for i in range(G.n):
        out = out + apply_Z(G, i, apply_Z(G, i, p))
    return out


def dilation_generator(p: GradedPolynomial) -> GradedPolynomial:
    """Generator of ``t -> p(e^{-t} h, e^{-2t} v)``: multiplies a term of

    graded degree k by ``-k``.
    """
    out = {}
    for (a, g), c in p.terms.items():
        k = sum(a) + 2 * sum(g)
        if k:
            out[(a, g)] = -k * c
    return GradedPolynomial(p.nh, p.mv, out)


def vertical_generator(psi, p: GradedPolynomial) -> GradedPolynomial:
    """Vertical jump generator acting on a polynomial, as the exact finite sum

        tr(sigma Hess_v p) + <b + tail mean, grad_v p>
        + sum_{|gamma| >= 2} m_gamma(kappa) d^gamma_v p / gamma!.
    """
    mv = p.mv
    if psi is None or psi.is_trivial:
        return GradedPolynomial.zero(p.nh, mv)
    if psi.m != mv:
        raise ValueError("exponent dimension does not match the vertical layer")
    deg_v = max((sum(g) for (a, g) in p.terms), default=0)
    out = GradedPolynomial.zero(p.nh, mv)
    # diffusion part
    for j in range(mv):
        for k in range(mv):
            s = psi.sigma[j, k]
            if s != 0.0:
                out = out + p.diff_v(j).diff_v(k).scale(_exactify(s))
    # drift plus jump tail
    drift = psi.effective_drift()
    for j in range(mv):
        if drift[j] != 0.0:
            out = out + p.diff_v(j).scale(_exactify(float(drift[j])))
    # jump moments of order >= 2
    from .levy import _mi_factorial, _multi_indices

    for gamma in _multi_indices(mv, deg_v, min_total=2):
        mom = psi.levy_moment(gamma)
        if mom == 0.0:
            continue
        q = p
        for l, power in enumerate(gamma):
            for _ in range(power):
                q = q.diff_v(l)
            if q.is_zero():
                break
        if not q.is_zero():
            out = out + q.scale(_exactify(float(mom)) / _mi_factorial(gamma))
    return out


def ou_generator(G: CarnotGroup, psi, p: GradedPolynomial) -> GradedPolynomial:
    """Full generator: horizontal Laplacian + dilation generator + vertical part."""
    out = sub_laplacian(G, p) + dilation_generator(p)
    if psi is not None and not psi.is_trivial:
        out = out + vertical_generator(psi, p)
    return out


# ---------------------------------------------------------------------------
# finite-dimensional restriction
# ---------------------------------------------------------------------------

def monomial_basis(nh, mv, degree_cap):
    """Monomials with graded degree <= cap, ordered by degree then exponents."""
    from .levy import _multi_indices

    basis = []
    for alpha in _multi_indices(nh, degree_cap):
        for gamma in _multi_indices(mv, (degree_cap - sum(alpha)) // 2):
            if sum(alpha) + 2 * sum(gamma) <= degree_cap:
                basis.append((tuple(alpha), tuple(gamma)))
    basis.sort(key=lambda key: (sum(key[0]) + 2 * sum(key[1]), key))
    return basis


def homogeneous_dimension_counts(nh, mv, degree_cap):
    """dim of the homogeneous component for each graded degree 0..cap."""
    counts = [0] * (degree_cap + 1)
    for a, g in monomial_basis(nh, mv, degree_cap):
        counts[sum(a) + 2 * sum(g)] += 1
    return counts


@dataclass
class GeneratorMatrix:
    """Matrix of an operator on the monomial basis of bounded graded degree."""

    basis: list
    entries: np.ndarray
    degree_cap: int
    nh: int
    mv: int

    def eigenvalues(self):
        return np.linalg.eigvals(self.entries)

    def algebraic_multiplicities(self, tol=1e-8):
        eigs = np.sort_complex(self.eigenvalues())
        groups = {}
        for e in eigs:
            for key in groups:
                if abs(e - key) < tol:
                    groups[key] += 1
                    break
            else:
                groups[e] = 1
        return {complex(k): v for k, v in sorted(groups.items(), key=lambda kv: kv[0].real)}

    def geometric_multiplicity(self, eigenvalue, tol=None):
        mat = self.entries - eigenvalue * np.eye(len(self.basis))
        s = np.linalg.svd(mat, compute_uv=False)
        scale = max(np.max(s), 1.0)
        cut = (tol if tol is not None else 1e-10) * scale
        return int(np.sum(s < cut))

    def _vector_to_poly(self, vec):
        terms = {key: c for key, c in zip(self.basis, vec) if abs(c) > 1e-13}
        return GradedPolynomial(self.nh, self.mv, terms)

    def poly_to_vector(self, p, dtype=float):
        idx = {key: i for i, key in enumerate(self.basis)}
        vec = np.zeros(len(self.basis), dtype=dtype)
        for key, c in p.terms.items():
            if key not in idx:
                raise ValueError("polynomial exceeds the degree cap of the matrix")
            vec[idx[key]] = float(c)
        return vec


def operator_matrix(op, nh, mv, degree_cap):
    """Dense matrix of a polynomial operator on the graded monomial basis."""
    basis = monomial_basis(nh, mv, degree_cap)
    idx = {key: i for i, key in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)))
    for j, (alpha, gamma) in enumerate(basis):
        image = op(GradedPolynomial.monomial(nh, mv, alpha, gamma))
        for key, c in image.terms.items():
            if key not in idx:
                raise ValueError("operator leaves the truncated space")
            mat[idx[key], j] = float(c)
    return basis, mat


def generator_matrix(G: CarnotGroup, psi, degree_cap) -> GeneratorMatrix:
    """Matrix of the Ornstein-Uhlenbeck generator (with optional vertical

    perturbation) on polynomials of graded degree <= cap.

    Requires the jump measure to expose moments up to the cap; components
    without them (stable) raise ``UnsupportedOperationError``.
    """
    if psi is not None and not psi.is_trivial:
        try:
            psi.require_moments(degree_cap)
        except UnsupportedOperationError as exc:
            raise UnsupportedOperationError(
                f"generator matrix needs jump moments up to order {degree_cap}: {exc}"
            ) from exc
    basis, mat = operator_matrix(
        lambda p: ou_generator(G, psi, p), G.n, G.m, degree_cap
    )
    return GeneratorMatrix(basis=basis, entries=mat, degree_cap=degree_cap, nh=G.n, mv=G.m)
