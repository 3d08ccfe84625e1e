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

from .errors import DomainError, StructuralError

TAU_ALG = 1e-10  # residual tolerance for presentation diagnostics

__all__ = [
    "TAU_ALG",
    "GroupPresentation",
    "DiagnosticsReport",
    "validate_presentation",
    "torus_presentation",
    "matrix_presentation",
    "trace_metric",
    "bracket",
    "su2_presentation",
    "un_presentation",
    "sym_power_generator",
    "su2_sym_presentation",
    "direct_sum_presentation",
]


def trace_metric(basis):
    """Gram matrix of the invariant form <xi, eta> = -Re tr(xi eta), its
    upper triangle mirrored so that it is exactly symmetric."""
    g = -np.einsum("aij,bji->ab", basis, basis).real
    return np.triu(g) + np.triu(g, 1).T


@dataclass(frozen=True)
class GroupPresentation:
    """A compact group acting on C^n through a Lie algebra basis.

    Attributes
    ----------
    basis : array (k, n, n), skew-Hermitian generators xi_a; the complex
        dimension ``dim_v`` = n of the representation space is read off it.
    metric : array (k, k), Gram matrix of the invariant inner product on g;
        symmetric positive-definite, else :class:`DomainError`.
    kind : 'torus' for diagonal weight actions, 'matrix_basis' otherwise.
    """

    basis: np.ndarray
    metric: np.ndarray
    kind: str = "matrix_basis"

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 3 or basis.shape[0] == 0:
            raise StructuralError("basis must be a non-empty list of matrices")
        if basis.shape[1] != basis.shape[2]:
            raise StructuralError(
                f"basis matrices must be square, got {basis.shape[1]}x{basis.shape[2]}")
        metric = np.asarray(self.metric, dtype=float)
        if metric.shape != (basis.shape[0], basis.shape[0]):
            raise StructuralError("metric shape must match the basis size")
        if not (np.all(np.isfinite(metric))
                and np.abs(metric - metric.T).max() <= TAU_ALG * np.abs(metric).max()
                and np.linalg.eigvalsh(metric)[0] > 0):
            raise DomainError("metric must be symmetric positive-definite")
        basis.setflags(write=False)
        metric.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "metric", metric)

    @property
    def dim_v(self):
        return self.basis.shape[1]

    @property
    def dim_g(self):
        return self.basis.shape[0]

    # -- the Lie-algebra core and its validation, once per presentation -----
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
    def _real_form(self):
        """The moment map as a real quadratic form, for the energy kernel: on
        the interleaved layout x = v.view(float), P_a = R(H_a) / 2 with H_a =
        -i xi_a and R the realification, so mu_a = x^T P_a x. Returns the P_a
        over the identity (x^T I x = |v|^2) as ((k + 1) 2n, 2n), and the
        inverse metric padded with a zero last row and column."""
        k, n = self.dim_g, self.dim_v
        h = -1j * self.basis
        real = np.empty((k + 1, n, 2, n, 2))
        real[:k, :, 0, :, 0] = real[:k, :, 1, :, 1] = 0.5 * h.real
        real[:k, :, 1, :, 0] = 0.5 * h.imag
        real[:k, :, 0, :, 1] = -0.5 * h.imag
        real[k] = np.eye(2 * n).reshape(n, 2, n, 2)
        metric_inv = np.zeros((k + 1, k + 1))
        metric_inv[:k, :k] = self._metric_inv
        return real.reshape(-1, 2 * n), metric_inv

    @cached_property
    def _bracket_expansion(self):
        """The k^2 commutators, formed once (overflow silent) and expanded in the
        basis: the structure tensor s and the bracket closure, the largest
        |[xi_a, xi_b] - matrix(s[a, b])|_F."""
        with np.errstate(over="ignore", invalid="ignore"):
            prod = np.einsum("aij,bjk->abik", self.basis, self.basis)
            brackets = prod - prod.transpose(1, 0, 2, 3)
        s = self.coords_of(brackets)
        s.setflags(write=False)
        return s, np.linalg.norm(brackets - self.matrix(s), axis=(2, 3)).max()

    @cached_property
    def structure(self):
        """Structure tensor, read-only: ``structure[a, b] = coords([xi_a, xi_b])``."""
        return self._bracket_expansion[0]

    @cached_property
    def _diagnostics(self):
        """The :func:`validate_presentation` report."""
        basis, (s, bracket) = self.basis, self._bracket_expansion
        skewness = np.linalg.norm(basis + basis.conj().transpose(0, 2, 1), axis=(1, 2)).max()
        # <[zeta, xi], eta> + <xi, [zeta, eta]> over basis triples (zeta, xi, eta)
        ad_res = np.abs(s @ self.metric + (s @ self.metric.T).transpose(0, 2, 1)).max()
        ok = skewness <= TAU_ALG and bracket <= TAU_ALG and ad_res <= TAU_ALG
        return DiagnosticsReport(ok=ok, skewness=float(skewness),
                                 bracket_closure=float(bracket),
                                 ad_invariance=float(ad_res))

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
        """Coordinates of a matrix or a stack ``xi`` (..., n, n); with ``tol``, raise
        :class:`DomainError` unless each is within ``tol * max(1, |xi|_F)`` of the span."""
        xi = np.asarray(xi)
        coords = (xi.reshape(xi.shape[:-2] + (xi.shape[-2] * xi.shape[-1],))
                  @ self._pinv.T).real
        if tol is not None:
            res = np.linalg.norm(xi - self.matrix(coords), axis=(-2, -1))
            if np.any(res > tol * np.maximum(1.0, np.linalg.norm(xi, axis=(-2, -1)))):
                raise DomainError(
                    f"matrix is not in the Lie algebra span (residual {np.max(res):.2e})")
        return coords


def bracket(p, x_coords, y_coords):
    """Coordinates of [x, y] through ``p.structure``, from the antisymmetrized
    products x_a y_b - x_b y_a, so that [y, x] = -[x, y] and [x, x] = 0
    exactly; leading axes of the coordinates broadcast."""
    xy = np.asarray(x_coords)[..., :, None] * np.asarray(y_coords)[..., None, :]
    w = xy - np.swapaxes(xy, -1, -2)
    return 0.5 * (w.reshape(w.shape[:-2] + (-1,)) @ p.structure.reshape(-1, p.dim_g))


@dataclass(frozen=True)
class DiagnosticsReport:
    """Residuals of the defining properties of a presentation."""

    ok: bool
    skewness: float
    bracket_closure: float
    ad_invariance: float

    def __str__(self):
        status = "ok" if self.ok else "FAILED"
        return (
            f"presentation {status}: skewness={self.skewness:.3e} "
            f"bracket={self.bracket_closure:.3e} ad_invariance={self.ad_invariance:.3e} "
            f"(tol {TAU_ALG:.1e})"
        )


def validate_presentation(p):
    """Check skew-Hermitianity, bracket closure and Ad-invariance of the metric.

    Returns the presentation's :class:`DiagnosticsReport`, computed once;
    ``ok`` is true iff every residual is within TAU_ALG. Structural problems
    (shape mismatches) raise when the presentation is built.
    """
    return p._diagnostics


def torus_presentation(w):
    """Diagonal presentation of T^k from weights ``w``, an (n, k) array.

    Generator j is ``i * diag(w_1[j], ..., w_n[j])``; the metric is the
    standard Euclidean form on R^k.
    """
    w = np.atleast_2d(np.asarray(w, dtype=float))
    n, k = w.shape
    if n == 0:
        raise StructuralError("weight list must be non-empty")
    basis = np.zeros((k, n, n), dtype=complex)
    for j in range(k):
        basis[j] = 1j * np.diag(w[:, j])
    return GroupPresentation(basis=basis, metric=np.eye(k), kind="torus")


def matrix_presentation(basis, metric=None):
    """Presentation from explicit generators; defaults to the trace metric."""
    basis = np.asarray(basis, dtype=complex)
    if metric is None:
        metric = trace_metric(basis)
    return GroupPresentation(basis=basis, metric=metric, kind="matrix_basis")


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

    Acts as a derivation on monomials x^(d-j) y^j, with x -> a00 x + a10 y
    and y -> a01 x + a11 y; the basis is normalized by sqrt(binomial(d, j))
    so unitary 2x2 matrices induce unitary action. In that basis the
    binomials cancel to sqrt((j+1)(d-j)) on the off-diagonals.
    """
    a = np.asarray(a, dtype=complex)
    j = np.arange(d + 1)
    off = np.sqrt((j[:-1] + 1.0) * (d - j[:-1]))
    return (np.diag((d - j) * a[0, 0] + j * a[1, 1])
            + np.diag(a[1, 0] * off, -1) + np.diag(a[0, 1] * off, 1))


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
    n = sum(p.dim_v for p in presentations)
    basis = np.zeros((ks.pop(), n, n), dtype=complex)
    i = 0
    for p in presentations:
        basis[:, i:i + p.dim_v, i:i + p.dim_v] = p.basis
        i += p.dim_v
    return matrix_presentation(basis)

