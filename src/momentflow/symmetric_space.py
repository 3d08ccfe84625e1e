"""Geometry of G^C/G realized as positive-definite Hermitian matrices.

A coset [g] is represented by H = g* g, which removes the compact gauge
exactly. The metric is the affine-invariant one with the trace norm; on the
tangent space at the identity it matches the default trace inner product on
the Lie algebra. Matrix functions go through Hermitian eigendecompositions
with re-symmetrization.

Far-out points generated by group lifts carry their factor g. Logs and
distances then route through an SVD of the factor instead of an
eigendecomposition of H = g* g, which keeps small singular values (and thus
their logarithms) accurate even when H is numerically singular.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (ContractViolationError, DomainError, NotAsymptoticError,
                     RayDivergenceError)
from .linalg import hermitian_part, psd_inv_sqrt, psd_log, psd_power, psd_sqrt
from .rational import rationalize_direction

THETA_RAY = 1e-3      # Cauchy threshold for successive chord directions
TAU_CONVEX = 1e-8     # slack for second differences of convex quantities

__all__ = [
    "THETA_RAY",
    "TAU_CONVEX",
    "SymmetricSpacePoint",
    "GeodesicRay",
    "RayDiagnostics",
    "distance",
    "geodesic",
    "geodesic_path",
    "log_map",
    "exp_map",
    "extract_asymptotic_ray",
    "convexity_probe",
]


@dataclass(frozen=True)
class SymmetricSpacePoint:
    """Positive-definite Hermitian H = g* g, optionally with the factor g."""

    H: np.ndarray
    factor: np.ndarray | None = None

    def __post_init__(self):
        h = np.asarray(self.H, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DomainError("H must be a square matrix")
        # both sides over max|H_ij| (>= 1): the same test, and the Frobenius
        # norms cannot overflow for far-out points
        scale = max(1.0, np.abs(h).max())
        if (np.linalg.norm((h - h.conj().T) / scale)
                > 1e-12 * max(1.0 / scale, np.linalg.norm(h / scale))):
            raise DomainError("H must be Hermitian")
        if self.factor is None and np.linalg.eigvalsh(h)[0] <= 0:
            raise DomainError("H must be positive-definite")
        h.setflags(write=False)
        object.__setattr__(self, "H", h)

    @classmethod
    def from_matrix(cls, h):
        return cls(H=np.asarray(h, dtype=complex))

    @classmethod
    def from_group(cls, g):
        g = np.asarray(g, dtype=complex)
        if not np.all(np.isfinite(g.view(float))):
            raise DomainError("group factor must be finite")
        return cls(H=hermitian_part(g.conj().T @ g), factor=g)

    @property
    def n(self):
        return self.H.shape[0]


def _as_point(x):
    if isinstance(x, SymmetricSpacePoint):
        return x
    return SymmetricSpacePoint.from_matrix(x)


def _whitened_log(p0, p1):
    """M with log_map(p0, p1) = H0^{1/2} M H0^{1/2}; |M|_F is the distance."""
    p0, p1 = _as_point(p0), _as_point(p1)
    inv_sqrt0 = psd_inv_sqrt(p0.H)
    if p1.factor is not None:
        m0 = p1.factor @ inv_sqrt0
        _, sigma, wh = np.linalg.svd(m0)
        w = wh.conj().T
        return hermitian_part((w * (2.0 * np.log(sigma))) @ w.conj().T)
    c = hermitian_part(inv_sqrt0 @ p1.H @ inv_sqrt0)
    return psd_log(c)


def distance(p0, p1):
    """Affine-invariant distance |log(H0^{-1/2} H1 H0^{-1/2})| in trace norm."""
    p0, p1 = _as_point(p0), _as_point(p1)
    if p0.factor is not None and p1.factor is not None:
        # stable for two far-out points close to each other
        m = p1.factor @ np.linalg.inv(p0.factor)
        sigma = np.linalg.svd(m, compute_uv=False)
        return float(np.linalg.norm(2.0 * np.log(sigma)))
    return float(np.linalg.norm(_whitened_log(p0, p1)))


def geodesic(p0, p1, u):
    """Point at parameter u on the geodesic from H0 to H1."""
    p0, p1 = _as_point(p0), _as_point(p1)
    sqrt0 = psd_sqrt(p0.H)
    inv_sqrt0 = psd_inv_sqrt(p0.H)
    c = hermitian_part(inv_sqrt0 @ p1.H @ inv_sqrt0)
    return SymmetricSpacePoint(H=hermitian_part(sqrt0 @ psd_power(c, u) @ sqrt0))


def geodesic_path(p0, p1, num):
    """The geodesic sampled on a uniform grid of ``num`` parameters in [0, 1]."""
    grid = np.linspace(0.0, 1.0, num)
    return [geodesic(p0, p1, u) for u in grid]


def log_map(p0, p1):
    """Initial velocity A of the geodesic from H0 to H1; |A|_H0 = distance."""
    p0 = _as_point(p0)
    sqrt0 = psd_sqrt(p0.H)
    return hermitian_part(sqrt0 @ _whitened_log(p0, p1) @ sqrt0)


def exp_map(p0, direction, s=1.0):
    """Geodesic from H0 with initial velocity ``direction`` at time s."""
    p0 = _as_point(p0)
    sqrt0 = psd_sqrt(p0.H)
    inv_sqrt0 = psd_inv_sqrt(p0.H)
    m = hermitian_part(inv_sqrt0 @ direction @ inv_sqrt0)
    return SymmetricSpacePoint(H=hermitian_part(sqrt0 @ scipy.linalg.expm(s * m) @ sqrt0))


def base_inner(p0, a, b):
    """Inner product of tangent vectors at H0: Re tr(H0^-1 A H0^-1 B)."""
    p0 = _as_point(p0)
    inv_sqrt0 = psd_inv_sqrt(p0.H)
    ma = inv_sqrt0 @ a @ inv_sqrt0
    mb = inv_sqrt0 @ b @ inv_sqrt0
    return float(np.trace(ma @ mb).real)


@dataclass(frozen=True)
class GeodesicRay:
    """Unit-speed geodesic ray: base point and base-metric-unit direction."""

    base: SymmetricSpacePoint
    direction: np.ndarray
    rational_approx: tuple | None = None

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=complex)
        if np.linalg.norm(d - d.conj().T) > 1e-10 * max(1.0, np.linalg.norm(d)):
            raise DomainError("ray direction must be Hermitian")
        norm = np.sqrt(base_inner(self.base, d, d))
        if abs(norm - 1.0) > 1e-10:
            raise DomainError(f"ray direction must be unit norm, got {norm}")
        d.setflags(write=False)
        object.__setattr__(self, "direction", d)

    def point(self, s):
        return exp_map(self.base, self.direction, s)

    @property
    def spectrum(self):
        """Sorted eigenvalues of the whitened direction (conjugacy invariant)."""
        inv_sqrt0 = psd_inv_sqrt(self.base.H)
        m = hermitian_part(inv_sqrt0 @ self.direction @ inv_sqrt0)
        return np.linalg.eigvalsh(m)


@dataclass
class RayDiagnostics:
    clocks: np.ndarray
    distances: np.ndarray
    angles: np.ndarray       # successive chord-direction angles on the tail
    residuals: np.ndarray    # the fixed-probe residuals for the last samples
    spectrum: np.ndarray
    probe: float
    escaped: bool


def _chord_angle(m1, m2):
    val = float(np.trace(m1 @ m2).real)
    return float(np.arccos(np.clip(val, -1.0, 1.0)))


def extract_asymptotic_ray(path, base, clocks=None, *, theta_ray=THETA_RAY,
                           probe=1.0, min_escape=10.0, dist_threshold=5.0,
                           min_tail=20):
    """Asymptotic geodesic ray of an escaping path, with Cauchy diagnostics.

    For each tail sample the unit initial direction of the geodesic from
    ``base`` to the sample is computed; the ray uses the final direction.
    Diagnostics: the sequence of angles between successive directions (which
    must settle below ``theta_ray``), and the distance between the geodesic
    toward each of the last samples and the ray itself at arclength
    ``probe``. Raises :class:`NotAsymptoticError` if the path is empty or
    stays bounded and :class:`RayDivergenceError` if the directions fail to
    settle.
    """
    base = _as_point(base)
    points = [_as_point(q) for q in path]
    if clocks is None:
        clocks = np.arange(len(points), dtype=float)
    clocks = np.asarray(clocks, dtype=float)

    ms = [_whitened_log(base, q) for q in points]
    dists = np.array([float(np.linalg.norm(m)) for m in ms])

    if len(dists) == 0:
        raise NotAsymptoticError("path has no samples")
    if dists[-1] < min_escape:
        raise NotAsymptoticError(
            f"path reaches distance {dists[-1]:.3f} < {min_escape}; not escaping"
        )
    tail = np.flatnonzero(dists > dist_threshold)
    if len(tail) < min_tail:
        raise NotAsymptoticError(
            f"only {len(tail)} samples past distance {dist_threshold}; need {min_tail}"
        )
    # beyond the threshold the path must keep moving outward
    if np.any(np.diff(dists[tail]) < -0.5):
        raise NotAsymptoticError("path distance is not increasing on the tail")

    dirs = [ms[i] / dists[i] for i in tail]
    angles = np.array([_chord_angle(a, b) for a, b in zip(dirs[:-1], dirs[1:])])

    m_hat = dirs[-1]
    spectrum = np.linalg.eigvalsh(m_hat)

    sqrt0 = psd_sqrt(base.H)
    chi = SymmetricSpacePoint(
        H=hermitian_part(sqrt0 @ scipy.linalg.expm(probe * m_hat) @ sqrt0))
    resid = []
    for m in dirs[-6:-1]:
        gamma_t = SymmetricSpacePoint(
            H=hermitian_part(sqrt0 @ scipy.linalg.expm(probe * m) @ sqrt0))
        resid.append(distance(gamma_t, chi))
    diagnostics = RayDiagnostics(
        clocks=clocks[tail], distances=dists[tail], angles=angles,
        residuals=np.array(resid), spectrum=spectrum, probe=probe, escaped=True,
    )

    if len(angles) and angles[-1] > theta_ray:
        raise RayDivergenceError(
            f"chord directions not Cauchy: last angle {angles[-1]:.3e} > {theta_ray:.1e}",
            diagnostics=diagnostics,
        )

    direction = hermitian_part(sqrt0 @ m_hat @ sqrt0)
    direction /= np.sqrt(base_inner(base, direction, direction))
    ray = GeodesicRay(base=base, direction=direction,
                      rational_approx=rationalize_direction(spectrum))
    return ray, diagnostics


def convexity_probe(path_a, path_b, *, speed_tol=1e-8):
    """Minimum centered second difference of u -> d(path_a(u), path_b(u)).

    Both inputs must be geodesics sampled on a common uniform grid; constant
    speed is verified (relative variation above ``speed_tol`` raises
    :class:`ContractViolationError`). For true geodesics in this nonpositively
    curved space the result is bounded below by -TAU_CONVEX at machine scale.
    """
    pa = [_as_point(q) for q in path_a]
    pb = [_as_point(q) for q in path_b]
    if len(pa) != len(pb) or len(pa) < 3:
        raise ContractViolationError("paths must share a grid of at least 3 samples")

    for pts in (pa, pb):
        speeds = np.array([distance(x, y) for x, y in zip(pts[:-1], pts[1:])])
        if speeds.max() > 0:
            if (speeds.max() - speeds.min()) > speed_tol * max(1.0, speeds.max()):
                raise ContractViolationError("input path does not have constant speed")

    d = np.array([distance(x, y) for x, y in zip(pa, pb)])
    second = d[:-2] - 2.0 * d[1:-1] + d[2:]
    return float(second.min())
