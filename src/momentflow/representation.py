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
``p.sharp``. Every moment value here, mu, mu^# and |v|^2, comes from one
product with the presentation's realified form ``p._real_form``; only
:func:`infinitesimal_action` reads the complex basis.
"""

import numpy as np

from .errors import ContractViolationError, DegenerateInputError
from .linalg import expm, hermitian_part

H_PATH = 1e-2  # maximal admissible sampling step for Kempf-Ness paths
MIN_NORM = 1e-150  # below this |v| the projective moment map is undefined

__all__ = [
    "H_PATH",
    "MIN_NORM",
    "infinitesimal_action",
    "moment_map",
    "projective_moment_map",
    "energy_kernel",
    "energy_and_gradient",
    "moment_coefficients",
    "kempf_ness_value",
]


def infinitesimal_action(p, v):
    """Materialized map L_v from g-coordinates to V; column a is xi_a v."""
    return (p.basis @ np.asarray(v, dtype=complex)).T


def _moments(p, v):
    """Rows (mu(v), |v|^2) of a state (n,) or a stack (..., n), flattened to
    (q, k + 1), and the leading shape: one product with the presentation's
    real form (``_real_form``), Y = (P_a x, x) on x = v.view(float) and m =
    Y x."""
    x = np.ascontiguousarray(v, dtype=complex).view(float)
    shape, x = x.shape[:-1], x.reshape(-1, x.shape[-1])
    y = (x @ p._real_form[0].T).reshape(len(x), p.dim_g + 1, x.shape[-1])
    return (y @ x[..., None])[..., 0], shape


def moment_map(p, v):
    """Metric-lowered moment map of a vector (n,) or a stack (..., n), shape
    (..., k): component a is 1/2 Omega0(xi_a v, v) = 1/2 Im v^dagger (xi_a v)."""
    m, shape = _moments(p, v)
    return m[:, :-1].reshape(shape + (p.dim_g,))


def projective_moment_map(p, v):
    """Moment map of the induced action on P(V): mu(v) / |v|^2, of a vector
    (n,) or, row by row, of a stack (..., n)."""
    with np.errstate(over="ignore", invalid="ignore"):  # the |v|^2 check catches both
        m, shape = _moments(p, v)
    n2 = m[:, -1:]
    if not ((MIN_NORM**2 < n2) & (n2 < np.inf)).all():
        raise DegenerateInputError("projective moment map needs a finite |v|^2 away from 0")
    return (m[:, :-1] / n2).reshape(shape + (p.dim_g,))


def energy_kernel(p, projective):
    """``energy(x, out) -> F`` bound to ``p``, of a real state x =
    v.view(float) (2n,) or, each row bit for bit the one-state result, of a
    stack (q, 2n): F is f = |mu(v)|^2 in the g-metric, or with
    ``projective`` f^ = f / |v|^4, and ``out`` takes the slope -grad F in
    the layout of x. One product with the presentation's real form
    (``_real_form``) gives Y = (P_a x, x); Y x gives mu and |v|^2, the
    inverse metric the coefficients c = mu^#, and one coefficient vector
    times Y the slope: grad f = 4 c Y and grad f^ = 4 c Y / |v|^4 - 4 f x /
    |v|^6. A one-state F is a Python float, a stacked one (q,).
    """
    form, metric_inv = p._real_form
    k = p.dim_g

    def energy(x, out):
        if x.ndim == 2:    # each product keeps a row's one-state shapes
            y = (form @ x[..., None]).reshape(len(x), k + 1, -1)
            m = (y @ x[..., None])[..., 0]
            c = (metric_inv @ m[..., None])[..., 0]
            f = (m[:, None] @ c[..., None])[:, 0, 0]
            if projective:
                n2 = m[:, k]
                c *= (-4.0 / (n2 * n2))[:, None]
                c[:, k] = 4.0 * f / (n2 * n2 * n2)
                f = f / (n2 * n2)
            else:
                c *= -4.0
            np.matmul(c[:, None], y, out=out[:, None])
            return f
        y = form.dot(x).reshape(k + 1, -1)
        m = y.dot(x)
        c = metric_inv.dot(m)
        f = float(m.dot(c))
        if projective:
            n2 = float(m[k])
            c *= -4.0 / (n2 * n2)
            c[k] = 4.0 * f / (n2 * n2 * n2)
            f = f / (n2 * n2)
        else:
            c *= -4.0
        c.dot(y, out=out)
        return f

    return energy


def energy_and_gradient(p, v):
    """Energy f = |mu(v)|^2 in the g-metric and its exact g0-gradient, of a
    state (n,) or a stack (q, n); see :func:`energy_kernel`."""
    v = np.ascontiguousarray(v, dtype=complex)
    slope = np.empty_like(v)
    f = energy_kernel(p, False)(v.view(float), slope.view(float))
    return f, -slope


def moment_coefficients(p, v):
    """The pair (mu^#(v), |v|^2) of a state (n,) or a stack (..., n), shapes
    (..., k) and (...): the inverse metric on the lowered mu of
    :func:`_moments`. The lift's generator on V is 2i p.matrix(mu^#(v))."""
    m, shape = _moments(p, v)
    mu = (m @ p._real_form[1].T)[:, :p.dim_g]
    return mu.reshape(shape + (p.dim_g,)), m[:, -1].reshape(shape)


def kempf_ness_value(p, v0, path):
    """Integrate the Kempf-Ness one-form along a sampled path in G^C.

    ``path`` is a nonempty sequence of finite group matrices from the
    identity whose steps x_k = log(g_{k+1} g_k^-1) are at most 1.5 H_PATH in
    operator norm; ``v0`` is finite. Paired with the projectivized moment
    map, the one-form gives log|g.v0|^2 - log|v0|^2 up to the error of the
    midpoint rule, applied to all steps at once with midpoints exp(x_k / 2) g_k.
    """
    n, v0 = p.dim_v, np.asarray(v0, dtype=complex)
    try:
        g = np.asarray(path, dtype=complex)
    except ValueError:  # matrices of different shapes fail the check below
        g = np.empty(0)
    if (g.shape[1:] != (n, n) or not len(g) or not np.isfinite(g).all()
            or not np.isfinite(v0).all() or np.linalg.norm(g[0] - np.eye(n)) > 1e-12):
        raise ContractViolationError("a Kempf-Ness path is a nonempty sequence of finite "
                                     f"{n} x {n} matrices from the identity, on a finite v0")
    x = _step_logs(np.swapaxes(np.linalg.solve(
        np.swapaxes(g[:-1], -1, -2), np.swapaxes(g[1:] - g[:-1], -1, -2)), -1, -2))
    m, _ = _moments(p, (expm(0.5 * x) @ (g[:-1] @ v0)[..., None])[..., 0])
    if (m[:, -1] <= MIN_NORM**2).any():
        raise DegenerateInputError("projective moment map is undefined near v = 0")
    eta = p.coords_of(-1j * hermitian_part(x))  # x = xi + J0 eta, in g-coordinates
    return -4.0 * float(np.sum(m[:, :-1] / m[:, -1:] * eta))


def _step_logs(e):
    """log(I + E_k) for path steps E_k = g_{k+1} g_k^-1 - I, by ten Mercator terms.

    As |log(I + E)| >= log(1 + |E|), |E| > expm1(1.5 H_PATH) breaks the
    contract |x| <= 1.5 H_PATH before the sum, whose error is then < 1e-19.
    """
    if (np.linalg.norm(e, 2, axis=(-2, -1)) > np.expm1(1.5 * H_PATH)).any():
        raise ContractViolationError("a path step exceeds the sampling contract")
    x = np.zeros_like(e)
    for j in range(10, 0, -1):  # sum_j (-1)^(j+1) E^j / j, Horner form
        x = e @ (x + (-1) ** (j + 1) / j * np.eye(e.shape[-1]))
    if (np.linalg.norm(x, 2, axis=(-2, -1)) > 1.5 * H_PATH).any():
        raise ContractViolationError("a path step exceeds the sampling contract")
    return x
