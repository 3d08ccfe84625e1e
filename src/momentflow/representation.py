"""Moment maps, the energy |mu|^2 and the Kempf-Ness function.

Sign convention (fixed once, asserted in the tests): with the complex inner
product <u, w> = sum u_j conj(w_j), set

    Omega0(u, w) = Im<u, w>,        g0(u, w) = Re<u, w> = Omega0(J0 u, w),

where J0 is multiplication by i. Then the pairing definition

    <mu(v), xi> = 1/2 Omega0(xi.v, v)

and the adjoint formula mu(v) = 1/2 L_v^*(J0 v) coincide identically. The
gradient of f = |mu|^2 under g0 is -2 J0 L_v(mu(v)); the factor 2 is forced
by the 1/2 normalization of mu and is pinned by the finite-difference tests.

Moment values are stored metric-lowered: component a of the returned vector
is the pairing <mu(v), xi_a>. Contravariant coordinates are recovered with
``p.sharp``.
"""

import numpy as np
import scipy.linalg

from .errors import ContractViolationError, DegenerateInputError
from .linalg import hermitian_part

H_PATH = 1e-2  # maximal admissible sampling step for Kempf-Ness paths

__all__ = [
    "H_PATH",
    "infinitesimal_action",
    "moment_map",
    "moment_map_via_adjoint",
    "projective_moment_map",
    "energy_and_gradient",
    "flow_generator",
    "kempf_ness_value",
]


def infinitesimal_action(p, v):
    """Materialized map L_v from g-coordinates to V; column a is xi_a v."""
    return (p.basis @ np.asarray(v, dtype=complex)).T


def moment_map(p, v):
    """Metric-lowered moment map: component a is 1/2 Omega0(xi_a v, v)."""
    v = np.asarray(v, dtype=complex)
    lv = infinitesimal_action(p, v)
    # <xi_a v, v> = v^dagger (xi_a v); Im of it is the pairing numerator
    return 0.5 * (v.conj() @ lv).imag


def moment_map_via_adjoint(p, v):
    """Second defining route: 1/2 L_v^*(J0 v), lowered coordinates.

    Kept separate from :func:`moment_map` so tests can assert the two
    formulas agree under the fixed sign convention.
    """
    v = np.asarray(v, dtype=complex)
    lv = infinitesimal_action(p, v)
    u = 1j * v
    # (L_v^* u)_a = Re<u, xi_a v>
    return 0.5 * (lv.conj().T @ u).real


def projective_moment_map(p, v, min_norm=1e-150):
    """Moment map of the induced action on P(V): mu(v) / |v|^2."""
    v = np.asarray(v, dtype=complex)
    n2 = float(np.vdot(v, v).real)
    if n2 <= min_norm**2:
        raise DegenerateInputError("projective moment map is undefined near v = 0")
    return moment_map(p, v) / n2


def energy_and_gradient(p, v):
    """Energy f = |mu(v)|^2 in the g-metric and its exact g0-gradient."""
    v = np.asarray(v, dtype=complex)
    lowered = moment_map(p, v)
    sharp = p.sharp(lowered)
    f = float(lowered @ sharp)
    grad = -2j * (infinitesimal_action(p, v) @ sharp)
    return f, grad


def flow_generator(p, v):
    """Matrix 2i mu(v)^ on V; the flow is v' = flow_generator(p, v) @ v.

    This equals minus the gradient of f divided out of v, i.e. the downward
    gradient flow of f = |mu|^2 is the linear action of this g^C element, and
    the same matrix drives the group lift g' = flow_generator(p, g v0) g.
    """
    lowered = moment_map(p, v)
    return 2j * p.matrix(p.sharp(lowered))


def _j_component(p, x):
    """g-coordinates (contravariant) of eta in the splitting x = xi + J0 eta."""
    eta = -1j * hermitian_part(x)
    return p.coords_of(eta)


def kempf_ness_value(p, v0, path, projective=True, step_tol=H_PATH):
    """Integrate the Kempf-Ness one-form along a sampled path in G^C.

    Parameters
    ----------
    p : GroupPresentation
    v0 : base vector in V
    path : sequence of group matrices, path[0] must be the identity
    projective : integrate against the projectivized moment map (default);
        the result then equals log|g.v0|^2 - log|v0|^2 up to quadrature
        error. With ``projective=False`` the affine moment map is used and
        the value equals |g.v0|^2 - |v0|^2.
    step_tol : maximal admissible displacement per sample in operator norm.

    The quadrature is composite midpoint on the supplied samples. The
    normalization of the one-form is fixed so the projectivized value lands
    on the logarithmic scale above.
    """
    v0 = np.asarray(v0, dtype=complex)
    path = [np.asarray(g, dtype=complex) for g in path]
    n = p.dim_v
    if np.linalg.norm(path[0] - np.eye(n)) > 1e-12:
        raise ContractViolationError("Kempf-Ness paths must start at the identity")

    total = 0.0
    for g_prev, g_next in zip(path[:-1], path[1:]):
        x = scipy.linalg.logm(g_next @ np.linalg.inv(g_prev))
        if np.linalg.norm(x, 2) > step_tol * 1.5:
            raise ContractViolationError(
                f"path step {np.linalg.norm(x, 2):.3e} exceeds the sampling contract"
            )
        g_mid = scipy.linalg.expm(0.5 * x) @ g_prev
        w = g_mid @ v0
        if projective:
            mu = projective_moment_map(p, w)
        else:
            mu = moment_map(p, w)
        eta = _j_component(p, x)
        # increment of the anti-derivative along this segment
        total += -4.0 * float(mu @ eta)
    return total
