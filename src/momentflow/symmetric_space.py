"""Geometry of G^C/G realized as positive-definite Hermitian matrices.

A coset [g] is held by one representative g, its factor; the point is
H = g* g, which removes the compact gauge exactly. ``from_matrix(H)`` stores
the Hermitian square root of H as the factor. The metric is the
affine-invariant one with the trace norm; on the tangent space at the
identity it matches the default trace inner product on the Lie algebra.

Every log and distance goes through the SVD of a product of factors, never
through H = g* g: small singular values, and thus their logarithms, stay
accurate where H is numerically singular, and far-out points do not overflow.
H, H^{1/2} and H^{-1/2} are formed lazily, only for points used as a base.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NotAsymptoticError, RayDivergenceError
from .linalg import eigh_fun, hermitian_part, row_norms
from .rational import rationalize_direction

THETA_RAY = 1e-3      # Cauchy threshold for successive chord directions

__all__ = [
    "THETA_RAY",
    "SymmetricSpacePoint",
    "GeodesicRay",
    "RayDiagnostics",
    "distance",
    "geodesic",
    "geodesic_path",
    "extract_asymptotic_ray",
]


def _square_finite(a, what):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"{what} must be a square matrix")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{what} must be finite")
    return a


@dataclass(frozen=True)
class SymmetricSpacePoint:
    """The point H = g* g of G^C/G, held by its factor g."""

    factor: np.ndarray

    def __post_init__(self):
        g = _square_finite(self.factor, "group factor")
        g.setflags(write=False)
        object.__setattr__(self, "factor", g)

    @classmethod
    def from_matrix(cls, h):
        """The point H = h, for finite Hermitian positive-definite h."""
        h = _square_finite(h, "H")
        # both sides over max|H_ij| (>= 1): the same test, and the Frobenius
        # norms cannot overflow for far-out points
        scale = max(1.0, np.abs(h).max())
        if (np.linalg.norm((h - h.conj().T) / scale)
                > 1e-12 * max(1.0 / scale, np.linalg.norm(h / scale))):
            raise DomainError("H must be Hermitian")
        w, u = np.linalg.eigh(h)
        if w[0] <= 0:
            raise DomainError("H must be positive-definite")
        return cls(hermitian_part((u * np.sqrt(w)) @ u.conj().T))

    @classmethod
    def from_group(cls, g):
        """The coset [g], H = g* g."""
        return cls(g)

    @cached_property
    def H(self):
        return hermitian_part(self.factor.conj().T @ self.factor)

    @cached_property
    def sqrt(self):
        """H^{1/2}."""
        return eigh_fun(self.H, np.sqrt)

    @cached_property
    def inv_sqrt(self):
        """H^{-1/2}."""
        return eigh_fun(self.H, lambda w: 1.0 / np.sqrt(w))


def _as_point(x):
    if isinstance(x, SymmetricSpacePoint):
        return x
    return SymmetricSpacePoint.from_matrix(x)


def _whitened_log(p0, p1):
    """M with log_{H0}(H1) = H0^{1/2} M H0^{1/2}; |M|_F is the distance."""
    p0, p1 = _as_point(p0), _as_point(p1)
    _, sigma, wh = np.linalg.svd(p1.factor @ p0.inv_sqrt)
    w = wh.conj().T
    return hermitian_part((w * (2.0 * np.log(sigma))) @ w.conj().T)


def _along(p0, m, s):
    """The point H0^{1/2} exp(s M) H0^{1/2}, by its factor exp(s M/2) H0^{1/2};
    M is Hermitian, so its exponential goes through its spectrum."""
    return SymmetricSpacePoint(eigh_fun(0.5 * s * m, np.exp) @ p0.sqrt)


def distance(p0, p1):
    """Affine-invariant distance |log(H0^{-1/2} H1 H0^{-1/2})| in trace norm."""
    p0, p1 = _as_point(p0), _as_point(p1)
    # the singular values of g1 g0^{-1} are those of H1^{1/2} H0^{-1/2}
    sigma = np.linalg.svd(p1.factor @ np.linalg.inv(p0.factor), compute_uv=False)
    return float(np.linalg.norm(2.0 * np.log(sigma)))


def geodesic(p0, p1, u):
    """Point at parameter u on the geodesic from H0 to H1."""
    p0 = _as_point(p0)
    return _along(p0, _whitened_log(p0, p1), u)


def geodesic_path(p0, p1, num):
    """The geodesic sampled on a uniform grid of ``num`` parameters in [0, 1]."""
    p0 = _as_point(p0)
    m = _whitened_log(p0, p1)
    return [_along(p0, m, u) for u in np.linspace(0.0, 1.0, num)]


@dataclass(frozen=True)
class GeodesicRay:
    """Unit-speed geodesic ray from the identity: exp(s M) for the Hermitian
    ``direction`` M of unit Frobenius norm."""

    direction: np.ndarray
    rational_approx: tuple | None = None


@dataclass
class RayDiagnostics:
    distances: np.ndarray
    angles: np.ndarray       # successive chord-direction angles on the tail
    residuals: np.ndarray    # the probe residuals at arclength 1 for the last samples
    spectrum: np.ndarray


def extract_asymptotic_ray(factors):
    """Asymptotic geodesic ray from the identity of an escaping path, with
    Cauchy diagnostics.

    ``factors`` (m, n, n) holds a factor g of each sample H = g* g, as a
    flow's group lift (g(0) = id) gives it; one stacked SVD g = U S W* gives
    every log H = 2 W log(S) W*. The tail is the samples past distance 5;
    the path must end at distance 10 or more and have at least 20 tail
    samples. Each tail log, normalized, is the unit initial direction of the
    geodesic from the identity to the sample; the ray uses the final one.
    Diagnostics: the sequence of angles between successive directions (which
    must settle below THETA_RAY), and the distance between the geodesic
    toward each of the last samples and the ray itself at arclength 1.
    Raises :class:`DomainError` for a non-finite factor,
    :class:`NotAsymptoticError` if the path is empty or stays bounded and
    :class:`RayDivergenceError` if the directions fail to settle.
    """
    g = np.asarray(factors, dtype=complex)
    if g.ndim != 3 or g.shape[1] != g.shape[2] or not np.isfinite(g).all():
        raise DomainError("group factors must be a finite stack of square matrices")
    if len(g) == 0:
        raise NotAsymptoticError("path has no samples")
    _, sigma, wh = np.linalg.svd(g)
    w = np.swapaxes(wh.conj(), -1, -2)
    ms = hermitian_part((w * (2.0 * np.log(sigma))[:, None, :]) @ wh)
    dists = row_norms(ms.reshape(len(ms), -1))

    if dists[-1] < 10.0:
        raise NotAsymptoticError(f"path reaches distance {dists[-1]:.3f} < 10.0; not escaping")
    tail = np.flatnonzero(dists > 5.0)
    if len(tail) < 20:
        raise NotAsymptoticError(f"only {len(tail)} samples past distance 5.0; need 20")
    # beyond the threshold the path must keep moving outward
    if np.any(np.diff(dists[tail]) < -0.5):
        raise NotAsymptoticError("path distance is not increasing on the tail")

    dirs = ms[tail] / dists[tail, None, None]
    # the chord angles arccos Re tr(M_i M_{i+1}) of successive unit directions
    angles = np.arccos(np.clip(np.trace(dirs[:-1] @ dirs[1:], axis1=1, axis2=2).real,
                               -1.0, 1.0))

    m_hat = dirs[-1]
    spectrum = np.linalg.eigvalsh(m_hat)

    # exp(M) of the last six directions, by the factors exp(M/2); the last is on the ray
    ends = [SymmetricSpacePoint(eigh_fun(0.5 * m, np.exp)) for m in dirs[-6:]]
    resid = [distance(q, ends[-1]) for q in ends[:-1]]
    diagnostics = RayDiagnostics(distances=dists[tail], angles=angles,
                                 residuals=np.array(resid), spectrum=spectrum)

    if angles[-1] > THETA_RAY:    # the tail holds 20 or more samples
        raise RayDivergenceError(f"chord directions not Cauchy: last angle {angles[-1]:.3e} "
                                 f"> {THETA_RAY:.1e}", diagnostics=diagnostics)

    ray = GeodesicRay(direction=m_hat, rational_approx=rationalize_direction(spectrum))
    return ray, diagnostics
