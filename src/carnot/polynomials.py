"""Exact calculus of polynomials graded by the dilation (deg h_i = 1,

deg v_j = 2), together with the differential operators that drive the
eigenstructure: the horizontal fields Z_i, the horizontal Laplacian,
the dilation generator, and the vertical jump generator acting through
moments.  Coefficients stay exact (Fractions) whenever the inputs are
rational; structure-matrix entries are lifted to Fractions exactly.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=64)
def _laplacian_tables(n, m, raw):
    """Exact coefficient tables of ``sum_i Z_i^2`` for the structure

    matrices ``A`` (m x n x n, the bytes ``raw``).

    With ``Z_i = d_i + B_i`` and ``B_i = sum_{l,j} c_lji h_j d_{v_l}``,
    ``c_lji = A_l[j, i] / 2``, the square expands as

        sum_i Z_i^2 = sum_i d_i^2 + 2 sum_i B_i d_i + sum_i [d_i, B_i]
                      + sum_i B_i^2,

    with ``[d_i, B_i] = sum_l c_lii d_{v_l}`` and
    ``sum_i B_i^2 = sum S[(l, j), (l', j')] h_j h_j' d_{v_l} d_{v_l'}``,
    ``S = sum_i c_lji c_l'j'i``.  The quadratic table is summed over the
    orderings of ``{l, l'}`` and ``{j, j'}``, which give the same term.
    """
    A = np.frombuffer(raw, dtype=float).reshape(m, n, n)
    c = {(l, j, i): HALF * _exactify(float(A[l, j, i]))
         for l in range(m) for j in range(n) for i in range(n) if A[l, j, i] != 0.0}
    drift = [(i, l, j, 2 * coef) for (l, j, i), coef in c.items()]
    comm = {}
    for (l, j, i), coef in c.items():
        if j == i:
            comm[l] = comm.get(l, 0) + coef
    quad = {}
    for (l, j, i), c1 in c.items():
        for (l2, j2, i2), c2 in c.items():
            if i2 == i:
                key = (min(l, l2), max(l, l2), min(j, j2), max(j, j2))
                quad[key] = quad.get(key, 0) + c1 * c2
    return (
        tuple(drift),
        tuple((l, v) for l, v in comm.items() if v != 0),
        tuple((l, l2, j, j2, v) for (l, l2, j, j2), v in quad.items() if v != 0),
    )


def sub_laplacian(G: CarnotGroup, p: GradedPolynomial) -> GradedPolynomial:
    """Horizontal Laplacian ``sum_i Z_i^2``; drops graded degree by two.

    Applied term by term through the exact tables of
    :func:`_laplacian_tables`; equal, as Fractions, to
    ``sum_i apply_Z(G, i, apply_Z(G, i, p))``.
    """
    drift, comm, quad = _laplacian_tables(G.n, G.m, G.A.tobytes())
    out = {}

    def add(a, g, coef):
        key = (tuple(a), tuple(g))
        out[key] = out.get(key, 0) + coef

    for (a, g), coef in p.terms.items():
        for i, ai in enumerate(a):
            if ai >= 2:
                na = list(a)
                na[i] -= 2
                add(na, g, coef * (ai * (ai - 1)))
        if not any(g):
            continue
        for i, l, j, c2 in drift:
            if a[i] and g[l]:
                na, ng = list(a), list(g)
                na[i] -= 1
                na[j] += 1
                ng[l] -= 1
                add(na, ng, coef * (a[i] * g[l]) * c2)
        for l, cl in comm:
            if g[l]:
                ng = list(g)
                ng[l] -= 1
                add(a, ng, coef * g[l] * cl)
        for l, l2, j, j2, s in quad:
            ways = g[l] * (g[l2] - (l == l2))
            if ways > 0:
                na, ng = list(a), list(g)
                na[j] += 1
                na[j2] += 1
                ng[l] -= 1
                ng[l2] -= 1
                add(na, ng, coef * ways * s)
    return GradedPolynomial(p.nh, p.mv, out)


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


def vertical_operator(psi, mv, order):
    """Vertical jump generator on polynomials of vertical degree <= ``order``,

        tr(sigma Hess_v p) + <b + tail mean, grad_v p>
        + sum_{|gamma| >= 2} m_gamma(kappa) d^gamma_v p / gamma!,

    as a function of p: the exact coefficient of each ``d^gamma_v`` (the
    drift and the jump moments) is computed once, not per polynomial.
    """
    if psi is None or psi.is_trivial:
        return lambda p: GradedPolynomial.zero(p.nh, mv)
    if psi.m != mv:
        raise ValueError("exponent dimension does not match the vertical layer")
    from .levy import _mi_factorial, _multi_indices

    unit = [tuple(int(i == j) for i in range(mv)) for j in range(mv)]
    coefs = {}
    for j in range(mv):
        for k in range(mv):
            if psi.sigma[j, k] != 0.0:
                gamma = tuple(x + y for x, y in zip(unit[j], unit[k]))
                coefs[gamma] = coefs.get(gamma, 0) + _exactify(psi.sigma[j, k])
    drift = psi.effective_drift()
    for j in range(mv):
        if drift[j] != 0.0:
            coefs[unit[j]] = _exactify(float(drift[j]))
    for gamma in _multi_indices(mv, order, min_total=2):
        mom = psi.levy_moment(gamma)
        if mom != 0.0:
            coefs[gamma] = coefs.get(gamma, 0) + _exactify(float(mom)) / _mi_factorial(gamma)

    def apply(p):
        out = GradedPolynomial.zero(p.nh, mv)
        for gamma, c in coefs.items():
            q = p
            for l, power in enumerate(gamma):
                for _ in range(power):
                    q = q.diff_v(l)
            if not q.is_zero():
                out = out + q.scale(c)
        return out

    return apply


def vertical_generator(psi, p: GradedPolynomial) -> GradedPolynomial:
    """The vertical jump generator of :func:`vertical_operator` applied to p."""
    return vertical_operator(psi, p.mv, max((sum(g) for _, g in p.terms), default=0))(p)


def ou_generator(G: CarnotGroup, psi, p: GradedPolynomial) -> GradedPolynomial:
    """Full generator: horizontal Laplacian + dilation generator + vertical part."""
    return sub_laplacian(G, p) + dilation_generator(p) + vertical_generator(psi, p)


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

    @functools.cached_property
    def ladder(self):
        """Layer dimensions ``[dim_0, ..., dim_cap]``, read from the entries'

        exact ladder structure: every entry on or below the diagonal degree
        blocks is 0.0 off the diagonal, and the diagonal is exactly ``-deg``.
        Then the matrix is block upper triangular in the degree order, with
        diagonal blocks ``-k I`` for distinct k, so it is diagonalisable:
        ``-k`` is an eigenvalue whose algebraic and geometric multiplicities
        both equal the dimension of the degree-k layer.  Entries are float
        images of Fractions, so the exact ``==`` tests are sound.

        :func:`generator_matrix` always has the structure: it writes ``-deg``
        on the diagonal and every other term lowers the degree by at least 2.
        A matrix without it raises ``ArithmeticError``.
        """
        degs = np.array([sum(a) + 2 * sum(g) for a, g in self.basis])
        lower = degs[:, None] >= degs[None, :]
        np.fill_diagonal(lower, False)
        if np.any(self.entries[lower] != 0.0) or np.any(np.diag(self.entries) != -degs):
            raise ArithmeticError("the matrix lacks the exact ladder structure of a generator")
        return np.bincount(degs, minlength=self.degree_cap + 1).tolist()

    def eigenvalues(self):
        return np.repeat(-np.arange(len(self.ladder), dtype=float), self.ladder)

    def algebraic_multiplicity(self, eigenvalue):
        k = -complex(eigenvalue)
        if k.imag == 0 and k.real.is_integer() and 0 <= k.real < len(self.ladder):
            return self.ladder[int(k.real)]
        return 0

    # diagonalisable: both multiplicities are the layer dimension
    geometric_multiplicity = algebraic_multiplicity


def svd_nullity(entries, eigenvalue, tol=None):
    """Dimension of ``ker(entries - eigenvalue I)``: singular values below

    ``tol`` (default 1e-10) times the largest one (at least 1).
    """
    s = np.linalg.svd(entries - eigenvalue * np.eye(len(entries)), compute_uv=False)
    cut = (tol if tol is not None else 1e-10) * max(np.max(s), 1.0)
    return int(np.sum(s < cut))


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
    vertical = vertical_operator(psi, G.m, degree_cap // 2)
    basis, mat = operator_matrix(
        lambda p: sub_laplacian(G, p) + dilation_generator(p) + vertical(p), G.n, G.m, degree_cap
    )
    return GeneratorMatrix(basis=basis, entries=mat, degree_cap=degree_cap, nh=G.n, mv=G.m)
