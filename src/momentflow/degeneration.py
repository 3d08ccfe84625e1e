"""Optimal destabilizing directions and the brute-force torus oracle.

The projectivized flow of a vector destabilized by the origin converges to a
limit whose rescaled moment value is nonzero; its normalized direction is
the optimal degeneration direction. For torus actions the same direction is
the closest point to the origin of the convex hull of the supported weights,
which this module computes by exhaustive enumeration of all hull faces: an
oracle deliberately too simple to be wrong.

Sign convention: with Omega0 = Im<.,.> the flow limit direction equals
+beta/|beta| in torus coordinates; the comparison below asserts that sign.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, InconsistencyError, StructuralError
from .rational import rationalize_direction
from .representation import moment_map, projective_moment_map

ANGLE_TOL = 1e-3

__all__ = [
    "ANGLE_TOL",
    "DegenerationReport",
    "OracleResult",
    "limit_direction",
    "torus_oracle",
    "compare_with_oracle",
    "certify_rational",
    "hermitian_generator",
]


@dataclass
class DegenerationReport:
    """Limit data of a converged projectivized flow."""

    limit_direction: np.ndarray     # normalized, metric-lowered g-coordinates
    limit_point: np.ndarray         # unit representative of [v]_infinity
    spectrum: np.ndarray            # eigenvalues of the induced Hermitian matrix
    rational_approx: tuple | None = None
    oracle_direction: np.ndarray | None = None
    verdict: str = "no_oracle"


@dataclass
class OracleResult:
    beta: np.ndarray | None
    semistable: bool
    min_norm_sq: float
    support_face: tuple = ()


def hermitian_generator(p, lowered):
    """Unit-Frobenius Hermitian matrix i * (lowered coords)^sharp on V.

    This is the generator of the one-parameter degeneration the direction
    induces; its sorted spectrum is the conjugacy invariant compared across
    the flow, the ray and the oracle.
    """
    mat = 1j * p.matrix(p.sharp(np.asarray(lowered, dtype=float)))
    norm = np.linalg.norm(mat)
    if norm == 0:
        raise DomainError("zero direction has no generator")
    return mat / norm


def limit_direction(p, traj, destabilized=True, nonzero_factor=10.0):
    """Degeneration report from a converged projectivized trajectory.

    The rescaled moment value at the final sample is normalized in the
    g-metric. If the input was flagged as destabilized by the origin, a
    vanishing limit value contradicts the nonzero-limit property and raises
    :class:`InconsistencyError`.
    """
    if not traj.converged():
        raise DomainError(
            f"trajectory did not converge (terminated: {traj.terminated_reason})"
        )
    v_inf = traj.v[-1]
    v_inf = v_inf / np.linalg.norm(v_inf)
    mu_hat = projective_moment_map(p, v_inf)
    norm = p.norm_lowered(mu_hat)
    if destabilized and norm < nonzero_factor * traj.eps_grad:
        raise InconsistencyError(
            f"|mu^([v]_inf)| = {norm:.3e} vanishes on a destabilized input"
        )
    direction = mu_hat / norm
    spectrum = np.linalg.eigvalsh(hermitian_generator(p, direction))
    return DegenerationReport(
        limit_direction=direction,
        limit_point=v_inf,
        spectrum=spectrum,
        rational_approx=certify_rational(direction),
    )


def _face_minimum(points):
    """Min-norm point of the affine hull of ``points`` if it has nonnegative
    barycentric coordinates; None otherwise."""
    m = len(points)
    w = np.asarray(points, dtype=float)
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2.0 * (w @ w.T)
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    lam = sol[:m]
    if np.any(lam < -1e-12):
        return None
    lam = np.clip(lam, 0.0, None)
    lam = lam / lam.sum()
    return lam @ w


def torus_oracle(weights, support=None, max_support=10, zero_tol=1e-9):
    """Closest point of conv{w_j : j in support} to the origin, by brute force.

    Enumerates every subset of the supported weights, solves the
    equality-constrained quadratic minimum on its affine hull, keeps the
    candidates with nonnegative barycentric coordinates and returns the
    overall minimizer. If the minimum is (numerically) zero the origin lies
    in the hull and the semi-stable verdict is returned instead of a
    direction.
    """
    w = np.atleast_2d(np.asarray(getattr(weights, "weights", weights), dtype=float))
    n = w.shape[0]
    if support is None:
        support = tuple(range(n))
    support = tuple(sorted(set(support)))
    if len(support) == 0:
        raise StructuralError("oracle support must be non-empty")
    if len(support) > max_support:
        raise StructuralError(
            f"oracle supports at most {max_support} weights (got {len(support)})"
        )
    pts = w[list(support)]

    best = None
    best_face = ()
    for size in range(1, len(support) + 1):
        for face in combinations(range(len(support)), size):
            cand = _face_minimum(pts[list(face)])
            if cand is None:
                continue
            val = float(cand @ cand)
            if best is None or val < best[0] - 1e-15:
                best = (val, cand)
                best_face = tuple(support[i] for i in face)
    val, beta = best
    if val <= zero_tol:
        return OracleResult(beta=None, semistable=True, min_norm_sq=val)
    return OracleResult(beta=beta, semistable=False, min_norm_sq=val,
                        support_face=best_face)


def compare_with_oracle(report, beta, angle_tol=ANGLE_TOL):
    """Match the flow limit direction against the oracle direction.

    Torus scope: coordinates are Euclidean, and the fixed sign convention
    puts the flow limit on +beta/|beta|. Returns 'match' or 'mismatch'.
    """
    beta = np.asarray(beta, dtype=float)
    bn = np.linalg.norm(beta)
    if bn == 0:
        raise DomainError("oracle produced no destabilizing direction")
    d = np.asarray(report.limit_direction, dtype=float)
    cosang = float(d @ beta) / (np.linalg.norm(d) * bn)
    angle = float(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return "match" if angle <= angle_tol else "mismatch"


def certify_rational(direction, max_denominator=64, angle_tol=ANGLE_TOL):
    """Integer certificate for a unit direction, or None when honest failure."""
    return rationalize_direction(direction, max_denominator=max_denominator,
                                 angle_tol=angle_tol)

