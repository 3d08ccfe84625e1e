"""Optimal destabilizing directions and the brute-force torus oracle.

The projectivized flow of a vector destabilized by the origin converges to a
limit whose rescaled moment value is nonzero; its normalized direction is
the optimal degeneration direction. For torus actions the same direction is
the closest point to the origin of the convex hull of the supported weights,
which this module computes by enumerating faces: an oracle deliberately too
simple to be wrong. By Caratheodory's theorem the closest point of a hull in
R^r is a convex combination of at most r + 1 affinely independent weights,
so the faces of at most r + 1 weights hold it; a larger face is affinely
dependent and adds no candidate.

Sign convention: with Omega0 = Im<.,.> the flow limit direction equals
+beta/|beta| in torus coordinates; the comparison below asserts that sign.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, InconsistencyError, StructuralError
from .rational import rationalize_direction
from .representation import projective_moment_map

ANGLE_TOL = 1e-3
# Most supported weights the oracle takes, a config contract the CLI checks.
# The oracle solves the faces of at most r + 1 of them in R^r: 175 faces for
# 10 weights in R^2.
ORACLE_MAX_WEIGHTS = 10

__all__ = [
    "ANGLE_TOL",
    "ORACLE_MAX_WEIGHTS",
    "DegenerationReport",
    "OracleResult",
    "limit_direction",
    "diagonal_torus",
    "torus_oracle",
    "oracle_angle",
    "hermitian_generator",
]


@dataclass
class DegenerationReport:
    """Limit data of a converged projectivized flow."""

    limit_direction: np.ndarray     # normalized, metric-lowered g-coordinates
    limit_point: np.ndarray         # unit representative of [v]_infinity
    spectrum: np.ndarray            # eigenvalues of the induced Hermitian matrix
    mu_norm: float                  # |mu^([v]_infinity)| in the g-metric
    rational_approx: tuple | None = None
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


def limit_direction(p, traj):
    """Degeneration report from a converged projectivized trajectory.

    The rescaled moment value at the final sample is normalized in the
    g-metric. The input is taken to be destabilized by the origin, so a
    limit value below 10 * eps_grad contradicts the nonzero-limit property
    and raises :class:`InconsistencyError`.
    """
    if not traj.converged():
        raise DomainError(
            f"trajectory did not converge (terminated: {traj.terminated_reason})"
        )
    v_inf = traj.v[-1]
    v_inf = v_inf / np.linalg.norm(v_inf)
    mu_hat = projective_moment_map(p, v_inf)
    norm = p.norm_lowered(mu_hat)
    if norm < 10.0 * traj.eps_grad:
        raise InconsistencyError(
            f"|mu^([v]_inf)| = {norm:.3e} vanishes on a destabilized input"
        )
    direction = mu_hat / norm
    spectrum = np.linalg.eigvalsh(hermitian_generator(p, direction))
    return DegenerationReport(
        limit_direction=direction,
        limit_point=v_inf,
        spectrum=spectrum,
        mu_norm=norm,
        rational_approx=rationalize_direction(direction),
    )


def diagonal_torus(p, v0):
    """Weights (n, r), support and embedding (k, r) of the torus oracle: each
    diagonal basis element xi_a gives the weight column Im diag(xi_a) and the
    embedding column e_a; the support is the nonzero entries of ``v0``."""
    diag = [a for a, xi in enumerate(p.basis) if np.array_equal(xi, np.diag(np.diagonal(xi)))]
    if not diag:
        raise StructuralError("the oracle needs a diagonal basis element")
    return (np.diagonal(p.basis[diag], axis1=1, axis2=2).imag.T,
            tuple(int(j) for j in np.flatnonzero(v0)), np.eye(p.dim_g)[:, diag])


def torus_oracle(weights, support=None, max_support=ORACLE_MAX_WEIGHTS):
    """Closest point of conv{w_j : j in support} to the origin, by brute force.

    Enumerates the faces of at most r + 1 supported weights in R^r (enough,
    by Caratheodory's theorem), solves the equality-constrained quadratic
    minimum on each face's affine hull, keeps the candidates with
    nonnegative barycentric coordinates and returns the overall minimizer.
    Faces are scanned by size, then lexicographically, and a candidate
    replaces the best so far only when it undercuts it by more than 1e-15.
    If the squared minimum is at most 1e-9 the origin lies in the hull and
    the semi-stable verdict is returned instead of a direction. Weights must
    be finite and support indices must lie in ``range(len(weights))``.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    if not np.isfinite(w).all():
        raise DomainError("oracle weights must be finite")
    support = tuple(sorted(set(range(len(w)) if support is None else support)))
    if len(support) == 0:
        raise StructuralError("oracle support must be non-empty")
    if support[0] < 0 or support[-1] >= len(w):
        raise StructuralError(
            f"oracle support indices must lie in range({len(w)}) (got {list(support)})"
        )
    if len(support) > max_support:
        raise StructuralError(
            f"oracle supports at most {max_support} weights (got {len(support)})"
        )
    pts = w[list(support)]

    best_val, best, best_face = np.inf, None, ()
    for m in range(1, min(len(pts), pts.shape[1] + 1) + 1):
        faces = np.array(list(combinations(range(len(pts)), m)))
        fw = pts[faces]                                         # (F, m, r)
        kkt = np.zeros((len(faces), m + 1, m + 1))
        kkt[:, :m, :m] = 2.0 * (fw @ fw.transpose(0, 2, 1))
        kkt[:, :m, m] = 1.0
        kkt[:, m, :m] = 1.0
        # b as a stack of columns, as kkt is a stack: numpy 1 and 2 differ
        # on a 1-D b or a b with one axis fewer than kkt
        rhs = np.zeros((1, m + 1, 1))
        rhs[0, m] = 1.0
        # slogdet and solve share the LU factorization: a zero sign is an
        # exactly zero pivot, where solve would raise (det may underflow)
        ok = np.linalg.slogdet(kkt)[0] != 0.0
        lam = np.linalg.solve(kkt[ok], rhs)[:, :m, 0]
        keep = ~(lam < -1e-12).any(axis=1)
        lam = np.clip(lam[keep], 0.0, None)
        lam = lam / lam.sum(axis=1, keepdims=True)
        cands = (lam[:, None, :] @ fw[ok][keep])[:, 0]          # (F', r)
        vals = (cands[:, None, :] @ cands[:, :, None])[:, 0, 0]
        for val, cand, face in zip(vals.tolist(), cands, faces[ok][keep].tolist()):
            if best is None or val < best_val - 1e-15:
                best_val, best = val, cand
                best_face = tuple(support[i] for i in face)
    if best_val <= 1e-9:
        return OracleResult(beta=None, semistable=True, min_norm_sq=best_val)
    return OracleResult(beta=best, semistable=False, min_norm_sq=best_val,
                        support_face=best_face)


def oracle_angle(direction, beta):
    """Angle between a limit direction and the oracle direction beta.

    Torus scope: coordinates are Euclidean, and the fixed sign convention
    puts the flow limit on +beta/|beta|.
    """
    beta = np.asarray(beta, dtype=float)
    bn = np.linalg.norm(beta)
    if bn == 0:
        raise DomainError("oracle produced no destabilizing direction")
    d = np.asarray(direction, dtype=float)
    cosang = float(d @ beta) / (np.linalg.norm(d) * bn)
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)))

