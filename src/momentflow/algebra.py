"""Presentations of compact matrix Lie groups acting on V = C^n.

A group is presented by a basis of skew-Hermitian matrices spanning its Lie
algebra g inside u(n), together with a positive-definite Ad-invariant Gram
matrix fixing the inner product on g. Coordinates of a Lie algebra element
are always taken against this basis; pairings route through the Gram matrix,
so non-orthonormal bases are fine.

Conventions used everywhere downstream:

* complex inner product  <u, w> = sum_j u_j conj(w_j),
* real (Kahler) metric   g0(u, w) = Re<u, w>,
* symplectic form        Omega0(u, w) = Im<u, w> = Re<u, i w>.

With this choice the two standard formulas for the moment map of a unitary
representation agree exactly (see ``representation``).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import DomainError, StructuralError

TAU_ALG = 1e-10  # residual tolerance for presentation diagnostics

__all__ = [
    "TAU_ALG",
    "GroupPresentation",
    "WeightSystem",
    "DiagnosticsReport",
    "validate_presentation",
    "torus_presentation",
    "matrix_presentation",
    "trace_metric",
    "su2_presentation",
    "un_presentation",
    "sym_power_generator",
    "su2_sym_presentation",
    "direct_sum_presentation",
    "exp_group",
    "adjoint_coadjoint",
]


def trace_metric(basis):
    """Gram matrix of the invariant form <xi, eta> = -Re tr(xi eta)."""
    basis = np.asarray(basis)
    k = basis.shape[0]
    g = np.empty((k, k))
    for a in range(k):
        for b in range(a, k):
            g[a, b] = g[b, a] = -np.trace(basis[a] @ basis[b]).real
    return g


@dataclass(frozen=True)
class GroupPresentation:
    """A compact group acting on C^n through a Lie algebra basis.

    Attributes
    ----------
    dim_v : complex dimension n of the representation space.
    basis : array (k, n, n), skew-Hermitian generators xi_a.
    metric : array (k, k), Gram matrix of the invariant inner product on g.
    kind : 'torus' for diagonal weight actions, 'matrix_basis' otherwise.
    """

    dim_v: int
    basis: np.ndarray
    metric: np.ndarray
    kind: str = "matrix_basis"

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 3 or basis.shape[0] == 0:
            raise StructuralError("basis must be a non-empty list of matrices")
        if basis.shape[1] != basis.shape[2] or basis.shape[1] != self.dim_v:
            raise StructuralError(
                f"basis matrices must be {self.dim_v}x{self.dim_v}, "
                f"got {basis.shape[1]}x{basis.shape[2]}"
            )
        metric = np.asarray(self.metric, dtype=float)
        if metric.shape != (basis.shape[0], basis.shape[0]):
            raise StructuralError("metric shape must match the basis size")
        basis.setflags(write=False)
        metric.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "metric", metric)

    @property
    def dim_g(self):
        return self.basis.shape[0]

    # -- the Lie-algebra core, computed once per presentation ---------------
    # cached_property writes the instance __dict__ directly, so it works on
    # this frozen (unslotted) dataclass and leaves fields, eq and repr alone.

    @cached_property
    def flat_basis(self):
        """Basis as a (k, n*n) array: ``matrix(c) = c @ flat_basis``."""
        return self.basis.reshape(self.dim_g, -1)

    @cached_property
    def _pinv(self):
        """Real pseudo-inverse of the basis, as complex (k, n*n) rows with
        ``coords = Re(_pinv @ vec(xi))``.

        The basis is realified by stacking real and imaginary parts; the
        cutoff matches ``np.linalg.lstsq``'s, so a rank-deficient basis gets
        the same minimum-norm coordinates.
        """
        flat = self.flat_basis
        real = np.hstack([flat.real, flat.imag]).T
        pinv = np.linalg.pinv(real, rcond=np.finfo(float).eps * max(real.shape))
        half = flat.shape[1]
        return pinv[:, :half] - 1j * pinv[:, half:]

    @cached_property
    def _metric_inv(self):
        return np.linalg.inv(self.metric)

    @cached_property
    def structure(self):
        """Structure tensor: ``structure[a, b] = coords([xi_a, xi_b])``."""
        c, _ = self._expand(_brackets(self.basis))
        c.setflags(write=False)
        return c

    def _expand(self, xi):
        """Coordinates of matrices ``xi`` (..., n, n) and the Frobenius norms
        of their parts outside the span."""
        xi = np.asarray(xi)
        coords = (xi.reshape(xi.shape[:-2] + (-1,)) @ self._pinv.T).real
        residual = np.linalg.norm(xi - self.matrix(coords), axis=(-2, -1))
        return coords, residual

    # -- coordinate plumbing ------------------------------------------------

    def sharp(self, lowered):
        """Contravariant coordinates from metric-lowered ones."""
        return self._metric_inv @ lowered

    def lower(self, coords):
        return self.metric @ coords

    def norm_lowered(self, lowered):
        return float(np.sqrt(max(lowered @ self.sharp(lowered), 0.0)))

    def matrix(self, coords):
        """The g-element(s) with the given contravariant coordinates."""
        coords = np.asarray(coords)
        n = self.dim_v
        return (coords @ self.flat_basis).reshape(coords.shape[:-1] + (n, n))

    def coords_of(self, xi, tol=None):
        """Expand a matrix in the basis; raise if it is not in the span."""
        coords, residual = self._expand(xi)
        if tol is not None and residual > tol * max(1.0, np.linalg.norm(xi)):
            raise DomainError(f"matrix is not in the Lie algebra span (residual {residual:.2e})")
        return coords


def _brackets(basis):
    """All commutators [xi_a, xi_b] as a (k, k, n, n) array."""
    prod = np.einsum("aij,bjk->abik", basis, basis)
    return prod - prod.transpose(1, 0, 2, 3)


@dataclass(frozen=True)
class WeightSystem:
    """Integer weights of a torus T^k acting diagonally on C^n."""

    rank: int
    weights: np.ndarray  # (n, k) integer

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.weights, dtype=float))
        if w.shape[0] == 0:
            raise StructuralError("weight list must be non-empty")
        if w.shape[1] != self.rank:
            raise StructuralError(f"weights must have {self.rank} components")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim_v(self):
        return self.weights.shape[0]


@dataclass
class DiagnosticsReport:
    """Residuals of the defining properties of a presentation."""

    ok: bool
    skewness: float
    bracket_closure: float
    ad_invariance: float
    tolerance: float = TAU_ALG

    def __str__(self):
        status = "ok" if self.ok else "FAILED"
        return (
            f"presentation {status}: skewness={self.skewness:.3e} "
            f"bracket={self.bracket_closure:.3e} ad_invariance={self.ad_invariance:.3e} "
            f"(tol {self.tolerance:.1e})"
        )


def validate_presentation(p, tol=TAU_ALG):
    """Check skew-Hermitianity, bracket closure and Ad-invariance of the metric.

    Returns a :class:`DiagnosticsReport`; ``ok`` is true iff every residual is
    within ``tol``. Structural problems (shape mismatches) raise instead.
    """
    basis = p.basis
    skewness = np.linalg.norm(basis + basis.conj().transpose(0, 2, 1), axis=(1, 2)).max()
    bracket = np.linalg.norm(_brackets(basis) - p.matrix(p.structure), axis=(2, 3)).max()

    # <[zeta, xi], eta> + <xi, [zeta, eta]> over basis triples (zeta, xi, eta)
    s = p.structure
    ad_res = np.abs(s @ p.metric + (s @ p.metric.T).transpose(0, 2, 1)).max()

    ok = skewness <= tol and bracket <= tol and ad_res <= tol
    return DiagnosticsReport(ok=ok, skewness=float(skewness),
                             bracket_closure=float(bracket),
                             ad_invariance=float(ad_res), tolerance=tol)


def torus_presentation(w):
    """Diagonal presentation of T^k from a weight system.

    Generator j is ``i * diag(w_1[j], ..., w_n[j])``; the metric is the
    standard Euclidean form on R^k.
    """
    if not isinstance(w, WeightSystem):
        w = WeightSystem(rank=np.atleast_2d(w).shape[1], weights=w)
    n, k = w.dim_v, w.rank
    basis = np.zeros((k, n, n), dtype=complex)
    for j in range(k):
        basis[j] = 1j * np.diag(w.weights[:, j])
    return GroupPresentation(dim_v=n, basis=basis, metric=np.eye(k), kind="torus")


def matrix_presentation(basis, metric=None):
    """Presentation from explicit generators; defaults to the trace metric."""
    basis = np.asarray(basis, dtype=complex)
    if metric is None:
        metric = trace_metric(basis)
    return GroupPresentation(dim_v=basis.shape[1], basis=basis, metric=metric,
                             kind="matrix_basis")


def su2_presentation():
    """su(2) on C^2 with generators i*sigma_a/2 and the trace metric."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    basis = 0.5j * np.stack([sx, sy, sz])
    return matrix_presentation(basis)


def un_presentation(n):
    """Full u(n) on C^n: all skew-Hermitian matrices, trace metric."""
    mats = []
    for a in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[a, a] = 1j
        mats.append(m)
    for a in range(n):
        for b in range(a + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[a, b] = 1.0
            m[b, a] = -1.0
            mats.append(m / np.sqrt(2))
            m = np.zeros((n, n), dtype=complex)
            m[a, b] = 1j
            m[b, a] = 1j
            mats.append(m / np.sqrt(2))
    return matrix_presentation(np.stack(mats))


def sym_power_generator(a, d):
    """Generator induced on Sym^d(C^2) by a 2x2 generator ``a``.

    Acts as a derivation on monomials x^(d-j) y^j; the basis is normalized by
    sqrt(binomial(d, j)) so unitary 2x2 matrices induce unitary action.
    """
    from math import comb

    a = np.asarray(a, dtype=complex)
    dim = d + 1
    out = np.zeros((dim, dim), dtype=complex)
    # x -> a00 x + a10 y,  y -> a01 x + a11 y  (column action on (x, y))
    for j in range(dim):
        # derivative of x^(d-j) y^j
        if d - j > 0:
            out[j, j] += (d - j) * a[0, 0]
            out[j + 1, j] += (d - j) * a[1, 0]
        if j > 0:
            out[j, j] += j * a[1, 1]
            out[j - 1, j] += j * a[0, 1]
    scale = np.array([np.sqrt(comb(d, j)) for j in range(dim)])
    return (out * scale[None, :]) / scale[:, None]


def su2_sym_presentation(degree):
    """su(2) acting on Sym^degree(C^2), trace metric."""
    if degree < 1:
        raise StructuralError("symmetric power degree must be >= 1")
    base = su2_presentation()
    basis = np.stack([sym_power_generator(xi, degree) for xi in base.basis])
    return matrix_presentation(basis)


def direct_sum_presentation(presentations):
    """Diagonal action of one group on a direct sum of representations.

    All presentations must share the same Lie algebra dimension and be
    compatible generator-by-generator (same abstract group). The metric is
    recomputed as the trace metric of the summed generators.
    """
    ks = {p.dim_g for p in presentations}
    if len(ks) != 1:
        raise StructuralError("summands must present the same Lie algebra")
    k = ks.pop()
    blocks = []
    for a in range(k):
        blocks.append(scipy.linalg.block_diag(*[p.basis[a] for p in presentations]))
    basis = np.stack(blocks)
    return matrix_presentation(basis)


def exp_group(xi):
    """Matrix exponential (scaling-and-squaring via scipy)."""
    xi = np.asarray(xi, dtype=complex)
    if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
        raise StructuralError("exp_group expects a square matrix")
    return scipy.linalg.expm(xi)


def adjoint_coadjoint(p, g, coords, tol=TAU_ALG):
    """Adjoint action Ad_g on g-coordinates: g (sum_a c_a xi_a) g^{-1}.

    For elements of the compact group and an Ad-invariant metric this equals
    the coadjoint action, hence the name. ``g`` and ``coords`` may carry
    leading axes. The result is re-expanded in the basis; an expansion
    residual above ``tol`` * max(1, |g xi g^-1|) at any point means that g
    does not normalize the algebra and raises :class:`DomainError`.
    """
    conjugated = g @ p.matrix(np.asarray(coords, dtype=float)) @ np.linalg.inv(g)
    out, residual = p._expand(conjugated)
    scale = np.maximum(1.0, np.linalg.norm(conjugated, axis=(-2, -1)))
    if np.any(residual > tol * scale):
        raise DomainError(
            f"Ad_g leaves the presented algebra (expansion residual {np.max(residual):.2e})"
        )
    return out

