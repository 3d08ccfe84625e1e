"""Local model space around a zero of the moment map.

Given a presentation and a vector z0 with mu(z0) = 0, the model splits the
Lie algebra into the isotropy part g0 = {xi : xi.z0 = 0} and its metric
complement m, and V into the orbit directions g.z0 + J0 g.z0 and the slice
N (their real-orthogonal complement). The isotropy group acts linearly on N
with moment map mu_N. Points of the model near the identity coset are
charted as (xi_m, rho, v) with group part exp(xi_m).

The module evaluates the explicit model symplectic form

    Om((xi1, r1, v1), (xi2, r2, v2)) =
        <r2 + d mu_N(v)(v2), xi1> - <r1 + d mu_N(v)(v1), xi2>
        + <rho + mu_N(v), [xi1, xi2]>
        + Omega0(xi1.z0, xi2.z0) + Omega0(v1, v2)

with xi_i in m (the chart's tangent decomposition; recorded choice), the
model moment map Ad_g(mu_N(v) + rho), and runs purely finite-difference
verifications of the Hamiltonian identity and of closedness. No symbolic
differentiation anywhere: the point of this module is an independent
numerical confirmation.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .algebra import adjoint_coadjoint
from .errors import DomainError, StructuralError
from .representation import infinitesimal_action, moment_map

__all__ = [
    "NormalFormModel",
    "ModelPoint",
    "build_model",
    "model_symplectic_form",
    "infinitesimal_model_action",
    "model_moment_map",
    "verify_moment_identity",
    "verify_closedness",
    "rho_tilde",
]


def _omega0(a, b):
    """Omega0(a, b) = Im<a, b> with <a, b> = sum a_j conj(b_j), over the last
    axis. Formed from real products so that Omega0(a, a) is exactly 0."""
    return np.sum(b.real * a.imag - b.imag * a.real, axis=-1)


def _real_nullspace(a, cutoff=1e-8):
    """Orthonormal basis (rows) of the real nullspace of a real matrix."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.eye(a.shape[1])
    u, s, vt = np.linalg.svd(a)
    smax = s.max() if len(s) else 0.0
    tol = cutoff * max(smax, 1.0)
    gray = [x for x in s if tol * 1e-2 < x < tol * 1e2 and x > 0]
    if smax > 0 and gray:
        raise DomainError(
            f"rank decision is numerically degenerate (singular values {gray})"
        )
    rank = int(np.sum(s > tol))
    return vt[rank:]


def _g_orthonormalize(rows, metric):
    """Gram-Schmidt of coordinate rows against the g-metric."""
    out = []
    for r in rows:
        v = r.astype(float).copy()
        for q in out:
            v -= (v @ metric @ q) * q
        nrm = np.sqrt(max(v @ metric @ v, 0.0))
        if nrm > 1e-12:
            out.append(v / nrm)
    return np.array(out) if out else np.zeros((0, metric.shape[0]))


@dataclass(frozen=True)
class NormalFormModel:
    """Splitting data of the model space around z0.

    ``g0_basis`` and ``m_basis`` hold metric-orthonormal coordinate rows in
    the parent's Lie algebra; ``n_basis`` holds complex rows whose real
    parts are orthonormal for Re<.,.> and span the slice N.
    """

    parent: object
    z0: np.ndarray
    g0_basis: np.ndarray    # (d0, k)
    m_basis: np.ndarray     # (dm, k)
    n_basis: np.ndarray     # (dN, n) complex

    @property
    def dim_g0(self):
        return self.g0_basis.shape[0]

    @property
    def dim_m(self):
        return self.m_basis.shape[0]

    @property
    def dim_n(self):
        return self.n_basis.shape[0]

    @property
    def dim_chart(self):
        return 2 * self.dim_m + self.dim_n

    # -- embeddings ---------------------------------------------------------

    def g0_matrices(self):
        return self.parent.matrix(self.g0_basis)

    def embed_m(self, rho):
        """m-coordinates (..., dim_m) -> contravariant g-coordinates."""
        return np.asarray(rho, dtype=float) @ self.m_basis

    def embed_g0(self, c):
        return np.asarray(c, dtype=float) @ self.g0_basis

    def project_m(self, coords_g):
        return self.m_basis @ self.parent.metric @ np.asarray(coords_g, dtype=float)

    def slice_vector(self, v):
        """N-coordinates (real) -> vector in V."""
        return np.asarray(v, dtype=float) @ self.n_basis

    def slice_coords(self, u):
        """Re<.,.>-orthogonal projection of u (..., n) onto N, in N-coordinates."""
        return (np.asarray(u, dtype=complex) @ self.n_basis.conj().T).real

    # -- the linearized isotropy action on the slice -------------------------

    def mu_n(self, v):
        """Moment map of the G0-action on N, coordinates in g0_basis."""
        return 0.5 * self.d_mu_n(v, v)

    def d_mu_n(self, v, vdot):
        """Derivative of mu_N at v along vdot, coordinates in g0_basis."""
        gu = np.einsum("anm,...m->...an", self.g0_matrices(), self.slice_vector(v))
        return _omega0(gu, self.slice_vector(vdot)[..., None, :])


@dataclass(frozen=True)
class ModelPoint:
    """Chart point [exp(xi_m), rho, v]; valid for |xi_m| <= 1."""

    xi_m: np.ndarray
    rho: np.ndarray
    v: np.ndarray

    def shifted(self, tangent, h):
        xi, rdot, vdot = tangent
        return ModelPoint(xi_m=self.xi_m + h * np.asarray(xi, float),
                          rho=self.rho + h * np.asarray(rdot, float),
                          v=self.v + h * np.asarray(vdot, float))


def build_model(p, z0, mu_tol=1e-10):
    """Construct the splitting (g0, m, N) at a zero z0 of the moment map.

    Raises :class:`DomainError` when mu(z0) is not zero to ``mu_tol`` or z0
    vanishes, and on numerically ambiguous rank decisions in the splitting.
    """
    z0 = np.asarray(z0, dtype=complex)
    if np.linalg.norm(z0) == 0:
        raise DomainError("z0 must be nonzero")
    mu0 = moment_map(p, z0)
    if p.norm_lowered(mu0) > mu_tol:
        raise DomainError(
            f"|mu(z0)| = {p.norm_lowered(mu0):.3e} exceeds {mu_tol:.1e}; not a zero"
        )

    lv = infinitesimal_action(p, z0)                     # (n, k)
    a_real = np.vstack([lv.real, lv.imag])               # (2n, k)
    kernel = _real_nullspace(a_real.T @ a_real)          # rows: g0 coords
    g0_basis = _g_orthonormalize(kernel, p.metric)

    if g0_basis.shape[0]:
        m_rows = _real_nullspace(g0_basis @ p.metric)
    else:
        m_rows = np.eye(p.dim_g)
    m_basis = _g_orthonormalize(m_rows, p.metric)

    if g0_basis.shape[0] + m_basis.shape[0] != p.dim_g:
        raise DomainError("isotropy splitting failed to decompose g")

    # orbit directions and their J0 rotation, realified
    tangents = [lv @ row for row in m_basis]
    tangents += [1j * t for t in tangents]
    if tangents:
        t_real = np.stack([np.concatenate([t.real, t.imag]) for t in tangents])
        n_rows_real = _real_nullspace(t_real)
    else:
        n_rows_real = np.eye(2 * p.dim_v)
    n = p.dim_v
    n_basis = np.array([row[:n] + 1j * row[n:] for row in n_rows_real]) \
        if len(n_rows_real) else np.zeros((0, n), complex)

    if 2 * m_basis.shape[0] + n_basis.shape[0] != 2 * n:
        raise DomainError("slice dimension does not complete the splitting")

    model = NormalFormModel(parent=p, z0=z0, g0_basis=g0_basis,
                            m_basis=m_basis, n_basis=n_basis)
    _check_invariants(model)
    return model


def _check_invariants(model, tol_kill=1e-10, tol_perp=1e-12, tol_j=1e-10):
    p, z0 = model.parent, model.z0
    kill = np.linalg.norm(model.g0_matrices() @ z0, axis=-1)
    if np.any(kill > tol_kill * max(1, np.linalg.norm(z0))):
        raise DomainError("an isotropy direction fails to annihilate z0")
    if np.any(np.abs(model.g0_basis @ p.metric @ model.m_basis.T) > tol_perp):
        raise DomainError("m is not metric-orthogonal to g0")
    orbit = model.m_basis @ infinitesimal_action(p, z0).T
    orbit = np.vstack([orbit, 1j * orbit])
    scale = np.maximum(1.0, np.linalg.norm(orbit, axis=-1))[:, None]
    if np.any(np.abs((orbit.conj() @ model.n_basis.T).real) > tol_perp * scale):
        raise DomainError("slice is not orthogonal to the orbit directions")
    # J0-invariance: i*b must stay in the slice span
    jb = 1j * model.n_basis
    if np.any(np.linalg.norm(jb - model.slice_coords(jb) @ model.n_basis, axis=-1) > tol_j):
        raise DomainError("slice is not J0-invariant")


def _ad_matrix(p, x_coords):
    """Matrix of ad_x on g-coordinates: column b is coords([x, xi_b])."""
    return np.einsum("...a,abc->...cb", x_coords, p.structure)


def _bracket(p, x_coords, y_coords):
    """Coordinates of [x, y] from the antisymmetrized products
    x_a y_b - x_b y_a, so that [y, x] = -[x, y] and [x, x] = 0 exactly."""
    xy = np.asarray(x_coords)[..., :, None] * np.asarray(y_coords)[..., None, :]
    w = xy - np.swapaxes(xy, -1, -2)
    return 0.5 * (w.reshape(w.shape[:-2] + (-1,)) @ p.structure.reshape(-1, p.dim_g))


def _dexp_left(p, x_coords):
    """Left-trivialized differential of exp at x: (1 - e^{-ad_x}) / ad_x.

    Exact through Van Loan's block-triangular exponential: the upper-right
    block of expm([[M, I], [0, 0]]) is (e^M - 1) / M, here with M = -ad_x.
    """
    k = p.dim_g
    block = np.zeros(np.shape(x_coords)[:-1] + (2 * k, 2 * k))
    block[..., :k, :k] = -_ad_matrix(p, x_coords)
    block[..., :k, k:] = np.eye(k)
    return scipy.linalg.expm(block)[..., :k, k:]


def _omega_display(model, at, t1, t2, include_bracket=True):
    """The explicit two-form on intrinsic representatives (zeta, rho_dot, v_dot).

    zeta ranges over all of g (left-trivialized group velocity); the fiber
    components live in m- and N-coordinates. The display is basic for the
    isotropy equivalence, so any representative of a model tangent gives the
    same value.
    """
    p = model.parent
    z1, r1, v1 = t1
    z2, r2, v2 = t2

    def pairing(x, y):
        return np.sum((x @ p.metric) * y, axis=-1)

    pair1 = model.embed_m(r2) + model.embed_g0(model.d_mu_n(at.v, v2))
    pair2 = model.embed_m(r1) + model.embed_g0(model.d_mu_n(at.v, v1))
    total = pairing(pair1, z1) - pairing(pair2, z2)

    if include_bracket:
        lam = model.embed_m(at.rho) + model.embed_g0(model.mu_n(at.v))
        total = total + pairing(lam, _bracket(p, z1, z2))

    total = total + _omega0(p.matrix(z1) @ model.z0, p.matrix(z2) @ model.z0)
    return total + _omega0(model.slice_vector(v1), model.slice_vector(v2))


def _intrinsic(model, dexp, x):
    """Intrinsic representative of a chart tangent (xi_m dot, rho dot, v dot).

    Chart coordinate velocities at exp(xi_m) left-translate through the
    differential ``dexp`` of exp there; the fiber components pass through
    unchanged.
    """
    xi, rdot, vdot = (np.asarray(a, dtype=float) for a in x)
    return ((dexp @ model.embed_m(xi)[..., None])[..., 0], rdot, vdot)


def model_symplectic_form(model, at, x1, x2, include_bracket=True):
    """Evaluate the model two-form on chart tangents (xi, rho_dot, v_dot).

    The group components of chart tangents are m-valued coordinate
    velocities; away from the chart center they are converted to intrinsic
    group velocities before the display is evaluated.

    ``include_bracket=False`` drops the <rho + mu_N(v), [xi1, xi2]> term;
    this deliberately corrupted variant exists as a negative control for the
    closedness harness.

    Point fields and tangent components may carry leading axes, which
    broadcast; the result has their shape, and is a float for one point.
    """
    dexp = _dexp_left(model.parent, model.embed_m(at.xi_m))
    total = _omega_display(model, at, _intrinsic(model, dexp, x1),
                           _intrinsic(model, dexp, x2),
                           include_bracket=include_bracket)
    return float(total) if np.ndim(total) == 0 else total


def infinitesimal_model_action(model, at, xi_g):
    """Chart tangent of the left G-action generated by xi (g-coordinates).

    At [g, rho, v] the velocity left-translates to Ad_{g^-1} xi. Its chart
    representative solves dexp(xi_m-dot) + zeta_0 = Ad_{g^-1} xi with
    xi_m-dot in m and zeta_0 in the isotropy algebra; the bundle equivalence
    turns zeta_0 into fiber motion.
    """
    p = model.parent
    g = scipy.linalg.expm(p.matrix(model.embed_m(at.xi_m)))
    zeta = adjoint_coadjoint(p, np.linalg.inv(g), np.asarray(xi_g, dtype=float))

    t = _dexp_left(p, model.embed_m(at.xi_m))
    sol = np.linalg.solve(np.vstack([model.m_basis @ t.T, model.g0_basis]).T, zeta)
    xi_dot = sol[:model.dim_m]
    zeta_0 = sol[model.dim_m:]

    z0_coords = model.embed_g0(zeta_0)
    rho_dot = model.project_m(_bracket(p, z0_coords, model.embed_m(at.rho)))
    v_dot = model.slice_coords(p.matrix(z0_coords) @ model.slice_vector(at.v))
    return (xi_dot, rho_dot, v_dot)


def model_moment_map(model, at):
    """Moment value Ad_g(mu_N(v) + rho) in metric-lowered g-coordinates, over
    the leading axes the point's fields share."""
    p = model.parent
    lam = model.embed_m(at.rho) + model.embed_g0(model.mu_n(at.v))
    g = scipy.linalg.expm(p.matrix(model.embed_m(at.xi_m)))
    return adjoint_coadjoint(p, g, lam) @ p.metric.T    # p.lower over leading axes


def _stack(parts):
    """Stack equally shaped tuples of arrays, component by component."""
    return tuple(np.stack(c) for c in zip(*parts))


def verify_moment_identity(model, samples, step=1e-4):
    """Max residual of d<mu~, xi>(Z) = Om(X_xi, Z) over samples and frame Z.

    ``samples`` is a list of (ModelPoint, xi) with xi in contravariant
    g-coordinates. The left side is a central finite difference of the
    pairing along each chart coordinate direction; the right side evaluates
    the model form on the infinitesimal action. Each sample's shifted points
    go through one batched moment-map call and its frame through one form
    call; samples are looped so the batched exponentials stay small.
    """
    dm = model.dim_m
    frame = np.eye(model.dim_chart)
    frame = (frame[:, :dm], frame[:, dm:2 * dm], frame[:, 2 * dm:])
    signed = np.array([step, -step])[:, None, None]
    worst = 0.0
    for at, xi in samples:
        xi = np.asarray(xi, dtype=float)
        x_xi = infinitesimal_model_action(model, at, xi)
        plus, minus = model_moment_map(model, at.shifted(frame, signed)) @ xi
        lhs = (plus - minus) / (2.0 * step)
        rhs = model_symplectic_form(model, at, x_xi, frame)
        worst = np.maximum(worst, np.max(np.abs(lhs - rhs)))    # NaN propagates
    return float(worst)


def verify_closedness(model, samples, step=1e-4, form=None):
    """Max residual of the cyclic finite-difference exterior derivative.

    ``samples`` is a list of (ModelPoint, X, Y, Z) with constant chart
    tangents. dOm(X, Y, Z) = D_X Om(Y, Z) - D_Y Om(X, Z) + D_Z Om(X, Y);
    each derivative is a central difference of ``form`` along the tangent.
    ``form`` is called once, on all shifted points stacked as (3, 2, samples)
    leading axes (term, sign, sample) and tangents broadcast against them.
    """
    if form is None:
        form = model_symplectic_form
    if not samples:
        return 0.0
    points, xs, ys, zs = zip(*samples)
    at = ModelPoint(*_stack((q.xi_m, q.rho, q.v) for q in points))
    x, y, z = (_stack(t) for t in (xs, ys, zs))
    along, a, b = (tuple(c[:, None] for c in _stack(t))
                   for t in ((x, y, z), (y, x, x), (z, z, y)))
    signed = np.array([step, -step])[:, None, None]
    vals = form(model, at.shifted(along, signed), a, b)
    d = (vals[:, 0] - vals[:, 1]) / (2.0 * step)
    return float(np.max(np.abs(d[0] - d[1] + d[2])))


def rho_tilde(model, rho):
    """Solve the identification <rho, eta> = Omega0(rho~, eta.z0) on J0(g.z0).

    Returns the vector rho~ in J0(g.z0) together with the conditioning of
    the defining linear system.
    """
    p = model.parent
    if model.dim_m == 0:
        raise StructuralError("identification needs a nontrivial m")
    orbit = p.matrix(model.m_basis) @ model.z0
    jbasis = 1j * orbit
    a = _omega0(jbasis[None, :, :], orbit[:, None, :])
    coeffs = np.linalg.solve(a, np.asarray(rho, dtype=float))
    return coeffs @ jbasis, float(np.linalg.cond(a))
