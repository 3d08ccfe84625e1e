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
    """Omega0(a, b) = Im<a, b> with <a, b> = sum a_j conj(b_j)."""
    return float(np.vdot(b, a).imag)


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
        """m-coordinates -> contravariant g-coordinates."""
        return self.m_basis.T @ np.asarray(rho, dtype=float)

    def embed_g0(self, c):
        return self.g0_basis.T @ np.asarray(c, dtype=float)

    def project_m(self, coords_g):
        return self.m_basis @ self.parent.metric @ np.asarray(coords_g, dtype=float)

    def project_g0(self, coords_g):
        return self.g0_basis @ self.parent.metric @ np.asarray(coords_g, dtype=float)

    def slice_vector(self, v):
        """N-coordinates (real) -> vector in V."""
        return np.asarray(v, dtype=float) @ self.n_basis

    def slice_coords(self, u):
        """Re<.,.>-orthogonal projection of u onto N, in N-coordinates."""
        return (self.n_basis.conj() @ np.asarray(u, dtype=complex)).real

    # -- the linearized isotropy action on the slice -------------------------

    def mu_n(self, v):
        """Moment map of the G0-action on N, coordinates in g0_basis."""
        u = self.slice_vector(v)
        return 0.5 * ((self.g0_matrices() @ u) @ u.conj()).imag

    def d_mu_n(self, v, vdot):
        """Derivative of mu_N at v along vdot, coordinates in g0_basis."""
        u = self.slice_vector(v)
        w = self.slice_vector(vdot)
        return ((self.g0_matrices() @ u) @ w.conj()).imag


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
    for row in model.g0_basis:
        if np.linalg.norm(p.matrix(row) @ z0) > tol_kill * max(1, np.linalg.norm(z0)):
            raise DomainError("an isotropy direction fails to annihilate z0")
    for r0 in model.g0_basis:
        for rm in model.m_basis:
            if abs(r0 @ p.metric @ rm) > tol_perp:
                raise DomainError("m is not metric-orthogonal to g0")
    lv = infinitesimal_action(p, z0)
    orbit = [lv @ row for row in model.m_basis]
    orbit += [1j * t for t in orbit]
    for b in model.n_basis:
        for t in orbit:
            if abs(np.vdot(t, b).real) > tol_perp * max(1.0, np.linalg.norm(t)):
                raise DomainError("slice is not orthogonal to the orbit directions")
        # J0-invariance: i*b must stay in the slice span
        resid = 1j * b - model.slice_coords(1j * b) @ model.n_basis
        if np.linalg.norm(resid) > tol_j:
            raise DomainError("slice is not J0-invariant")


def _ad_matrix(p, x_coords):
    """Matrix of ad_x on g-coordinates: column b is coords([x, xi_b])."""
    return np.einsum("a,abc->cb", x_coords, p.structure)


def _bracket(p, x_coords, y_coords):
    """Coordinates of [x, y]."""
    return np.einsum("a,b,abc->c", x_coords, y_coords, p.structure)


def _dexp_left(p, x_coords):
    """Left-trivialized differential of exp at x: (1 - e^{-ad_x}) / ad_x.

    Exact through Van Loan's block-triangular exponential: the upper-right
    block of expm([[M, I], [0, 0]]) is (e^M - 1) / M, here with M = -ad_x.
    """
    k = p.dim_g
    block = np.zeros((2 * k, 2 * k))
    block[:k, :k] = -_ad_matrix(p, x_coords)
    block[:k, k:] = np.eye(k)
    return scipy.linalg.expm(block)[:k, k:]


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

    pair1 = model.embed_m(r2) + model.embed_g0(model.d_mu_n(at.v, v2))
    pair2 = model.embed_m(r1) + model.embed_g0(model.d_mu_n(at.v, v1))
    total = float(pair1 @ p.metric @ z1) - float(pair2 @ p.metric @ z2)

    if include_bracket:
        lam = model.embed_m(at.rho) + model.embed_g0(model.mu_n(at.v))
        total += float(lam @ p.metric @ _bracket(p, z1, z2))

    a1 = p.matrix(z1) @ model.z0
    a2 = p.matrix(z2) @ model.z0
    total += _omega0(a1, a2)
    total += _omega0(model.slice_vector(v1), model.slice_vector(v2))
    return total


def _intrinsic(model, dexp, x):
    """Intrinsic representative of a chart tangent (xi_m dot, rho dot, v dot).

    Chart coordinate velocities at exp(xi_m) left-translate through the
    differential ``dexp`` of exp there; the fiber components pass through
    unchanged.
    """
    xi, rdot, vdot = (np.asarray(a, dtype=float) for a in x)
    return (dexp @ model.embed_m(xi), rdot, vdot)


def model_symplectic_form(model, at, x1, x2, include_bracket=True):
    """Evaluate the model two-form on chart tangents (xi, rho_dot, v_dot).

    The group components of chart tangents are m-valued coordinate
    velocities; away from the chart center they are converted to intrinsic
    group velocities before the display is evaluated.

    ``include_bracket=False`` drops the <rho + mu_N(v), [xi1, xi2]> term;
    this deliberately corrupted variant exists as a negative control for the
    closedness harness.
    """
    dexp = _dexp_left(model.parent, model.embed_m(at.xi_m))
    return _omega_display(model, at, _intrinsic(model, dexp, x1),
                          _intrinsic(model, dexp, x2),
                          include_bracket=include_bracket)


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
    cols = [t @ row for row in model.m_basis]
    cols += [row for row in model.g0_basis]
    sol = np.linalg.solve(np.array(cols).T, zeta)
    xi_dot = sol[:model.dim_m]
    zeta_0 = sol[model.dim_m:]

    z0_coords = model.embed_g0(zeta_0)
    rho_dot = model.project_m(_bracket(p, z0_coords, model.embed_m(at.rho)))
    v_dot = model.slice_coords(p.matrix(z0_coords) @ model.slice_vector(at.v))
    return (xi_dot, rho_dot, v_dot)


def model_moment_map(model, at):
    """Moment value Ad_g(mu_N(v) + rho) in metric-lowered g-coordinates."""
    p = model.parent
    lam = model.embed_m(at.rho) + model.embed_g0(model.mu_n(at.v))
    g = scipy.linalg.expm(p.matrix(model.embed_m(at.xi_m)))
    conjugated = adjoint_coadjoint(p, g, lam)
    return p.lower(conjugated)


def _coordinate_frame(model):
    dm, dn = model.dim_m, model.dim_n
    frame = []
    for i in range(dm):
        e = np.zeros(dm)
        e[i] = 1.0
        frame.append((e, np.zeros(dm), np.zeros(dn)))
    for i in range(dm):
        e = np.zeros(dm)
        e[i] = 1.0
        frame.append((np.zeros(dm), e, np.zeros(dn)))
    for i in range(dn):
        e = np.zeros(dn)
        e[i] = 1.0
        frame.append((np.zeros(dm), np.zeros(dm), e))
    return frame


def verify_moment_identity(model, samples, step=1e-4):
    """Max residual of d<mu~, xi>(Z) = Om(X_xi, Z) over samples and frame Z.

    ``samples`` is a list of (ModelPoint, xi) with xi in contravariant
    g-coordinates. The left side is a central finite difference of the
    pairing along each chart coordinate direction; the right side evaluates
    the model form on the infinitesimal action.
    """
    worst = 0.0
    for at, xi in samples:
        xi = np.asarray(xi, dtype=float)
        x_xi = infinitesimal_model_action(model, at, xi)
        for z in _coordinate_frame(model):
            plus = model_moment_map(model, at.shifted(z, step)) @ xi
            minus = model_moment_map(model, at.shifted(z, -step)) @ xi
            lhs = (plus - minus) / (2.0 * step)
            rhs = model_symplectic_form(model, at, x_xi, z)
            worst = max(worst, abs(lhs - rhs))
    return worst


def verify_closedness(model, samples, step=1e-4, form=None):
    """Max residual of the cyclic finite-difference exterior derivative.

    ``samples`` is a list of (ModelPoint, X, Y, Z) with constant chart
    tangents. dOm(X, Y, Z) = D_X Om(Y, Z) - D_Y Om(X, Z) + D_Z Om(X, Y);
    each derivative is a central difference of ``form`` along the tangent.
    """
    if form is None:
        form = model_symplectic_form

    def deriv(at, along, a, b):
        return (form(model, at.shifted(along, step), a, b)
                - form(model, at.shifted(along, -step), a, b)) / (2.0 * step)

    worst = 0.0
    for at, x, y, z in samples:
        val = deriv(at, x, y, z) - deriv(at, y, x, z) + deriv(at, z, x, y)
        worst = max(worst, abs(val))
    return worst


def rho_tilde(model, rho):
    """Solve the identification <rho, eta> = Omega0(rho~, eta.z0) on J0(g.z0).

    Returns the vector rho~ in J0(g.z0) together with the conditioning of
    the defining linear system.
    """
    p = model.parent
    if model.dim_m == 0:
        raise StructuralError("identification needs a nontrivial m")
    orbit = [p.matrix(row) @ model.z0 for row in model.m_basis]
    jbasis = [1j * t for t in orbit]
    a = np.array([[_omega0(jb, t) for jb in jbasis] for t in orbit])
    rhs = np.asarray(rho, dtype=float)
    coeffs = np.linalg.solve(a, rhs)
    vec = np.zeros(p.dim_v, dtype=complex)
    for c, jb in zip(coeffs, jbasis):
        vec += c * jb
    return vec, float(np.linalg.cond(a))
