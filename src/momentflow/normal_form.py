"""Local model space around a zero of the moment map.

Given a presentation and a vector z0 with mu(z0) = 0, the model splits the
Lie algebra into the isotropy part g0 = {xi : xi.z0 = 0} and its metric
complement m, and V into the orbit directions g.z0 + J0 g.z0 and the slice
N (their real-orthogonal complement). One SVD of the action map xi -> xi.z0
gives g0, m and the orbit directions, one more the slice; the rank cut is
relative to the largest singular value, so c z0 gets the model of z0. The
isotropy group acts linearly on N with moment map mu_N. Points of the model
near the identity coset are charted as [exp(xi_m), rho, v], valid for
|xi_m| <= 1; a chart point or tangent is one float array (..., dim_chart)
laid out [xi_m | rho | v].

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

The group enters only through its Lie algebra: Ad_g for g = exp(x) is the
real k x k matrix exp(ad_x); Ad_{g^-1} = exp(-ad_x) and dexp are the pair
(e^M, (e^M - 1) / M) at M = -ad_x from :func:`linalg.exp_phi1`, and Ad_g =
G^-1 Ad_{g^-1}^T G (G the metric), so no n x n group element is
exponentiated or inverted; :func:`build_model` checks once that the
presentation is valid, as both identities need. The fixed terms are forms
of the model, computed once: the orbit map L (rows xi_a.z0) and the slice
tensors Q_a[j, l] = Omega0(xi_a b_j, b_l) and R_a[j, l] = Re<xi_a b_j, b_l>.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import bracket, validate_presentation
from .errors import DomainError
from .linalg import exp_phi1
from .representation import infinitesimal_action, moment_map

__all__ = [
    "NormalFormModel",
    "build_model",
    "model_symplectic_form",
    "model_moment_map",
    "verify_moment_identity",
    "verify_closedness",
]

FD_STEP = 1e-4  # central-difference step of both verifications


def _omega0(a, b):
    """Omega0(a, b) = Im<a, b> with <a, b> = sum a_j conj(b_j), over the last
    axis. Formed from real products so that Omega0(a, a) is exactly 0."""
    return np.sum(b.real * a.imag - b.imag * a.real, axis=-1)


def _rank(s):
    """Numerical rank of the descending singular values ``s``: those above
    1e-4 s[0] count, so a scaled matrix keeps its rank, and the zero map has
    rank 0. A value in (1e-5, 1e-3) s[0] makes the decision ambiguous, a
    :class:`DomainError`."""
    gray = s[(s > 1e-5 * s[0]) & (s < 1e-3 * s[0])]
    if len(gray):
        raise DomainError("rank decision is numerically degenerate "
                          f"(singular values {gray.tolist()})")
    return int(np.sum(s > 1e-4 * s[0]))


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

    def split(self, x):
        """Views (xi_m, rho, v) of a chart array (..., dim_chart)."""
        x, dm = np.asarray(x, dtype=float), self.dim_m
        return x[..., :dm], x[..., dm:2 * dm], x[..., 2 * dm:]

    # -- embeddings ---------------------------------------------------------

    def embed_m(self, rho):
        """m-coordinates (..., dim_m) -> contravariant g-coordinates."""
        return np.asarray(rho, dtype=float) @ self.m_basis

    def embed_g0(self, c):
        return np.asarray(c, dtype=float) @ self.g0_basis

    def project_m(self, coords_g):
        return np.asarray(coords_g, dtype=float) @ (self.m_basis @ self.parent.metric).T

    def slice_vector(self, v):
        """N-coordinates (real) -> vector in V."""
        return np.asarray(v, dtype=float) @ self.n_basis

    def slice_coords(self, u):
        """Re<.,.>-orthogonal projection of u (..., n) onto N, in N-coordinates."""
        return (np.asarray(u, dtype=complex) @ self.n_basis.conj().T).real

    # -- fixed forms, once per model (cached_property as in GroupPresentation)

    @cached_property
    def _orbit_map(self):
        """The orbit map L, (k, n) complex with rows xi_a.z0: xi.z0 = xi @ L."""
        return self.parent.basis @ self.z0

    @cached_property
    def _slice_forms(self):
        """The slice tensors Q_a[j, l] = Omega0(xi_a b_j, b_l) and R_a[j, l] =
        Re<xi_a b_j, b_l>, both laid out (j, a, l): v Q vdot is d mu_N(v)(vdot),
        and c (v R) the action of c in g0-coordinates on v, in N-coordinates."""
        moved = np.moveaxis(self.parent.matrix(self.g0_basis) @ self.n_basis.T, -1, 0)
        return _omega0(moved[:, :, None], self.n_basis), (moved @ self.n_basis.conj().T).real

    # -- the linearized isotropy action on the slice -------------------------

    def mu_n(self, v):
        """Moment map of the G0-action on N, coordinates in g0_basis."""
        return 0.5 * self.d_mu_n(v, v)

    def d_mu_n(self, v, vdot):
        """Derivative v Q vdot of mu_N at v along vdot, coordinates in g0_basis."""
        vq = np.tensordot(np.asarray(v, dtype=float), self._slice_forms[0], 1)    # (..., d0, dN)
        return (vq @ np.asarray(vdot, dtype=float)[..., None])[..., 0]


def build_model(p, z0):
    """Construct the splitting (g0, m, N) at a zero z0 of the moment map.

    Raises :class:`DomainError` when the presentation fails
    :func:`validate_presentation` (Ad_g = exp(ad_x) needs a basis closed
    under brackets), when |mu(z0)| exceeds 1e-10 max(1, |z0|^2) or z0
    vanishes, and on numerically ambiguous rank decisions in the splitting.
    """
    report = validate_presentation(p)
    if not report.ok:
        raise DomainError(f"presentation fails validation: {report}")
    z0 = np.asarray(z0, dtype=complex)
    norm = np.linalg.norm(z0)
    if norm == 0:
        raise DomainError("z0 must be nonzero")
    mu0, bound = p.norm_lowered(moment_map(p, z0)), 1e-10 * max(1.0, norm ** 2)
    if mu0 > bound:
        raise DomainError(f"|mu(z0)| = {mu0:.3e} exceeds {bound:.1e}; not a zero")

    # one SVD of the realified action map xi -> xi.z0 in g-orthonormal
    # coordinates y = R xi, metric = R^T R: rows of V^T past the rank span
    # g0, the others m, both mapped back through R^-1; the matching columns
    # of U are the orbit directions
    n, lv = p.dim_v, infinitesimal_action(p, z0)        # (n, k)
    r_inv = np.linalg.inv(np.linalg.cholesky(p.metric)).T
    u, s, vt = np.linalg.svd(np.vstack([lv.real, lv.imag]) @ r_inv)
    rank = _rank(s)
    m_basis, g0_basis = vt[:rank] @ r_inv.T, vt[rank:] @ r_inv.T

    # the slice: real-orthogonal complement of the orbit directions and
    # their J0 rotations (x, y) -> (-y, x)
    if rank:
        orbit = u[:, :rank].T
        t_real = np.vstack([orbit, np.hstack([-orbit[:, n:], orbit[:, :n]])])
        _, s_t, vt_t = np.linalg.svd(t_real)
        n_rows_real = vt_t[_rank(s_t):]
    else:
        n_rows_real = np.eye(2 * n)
    n_basis = n_rows_real[:, :n] + 1j * n_rows_real[:, n:]

    if 2 * m_basis.shape[0] + n_basis.shape[0] != 2 * n:
        raise DomainError("slice dimension does not complete the splitting")

    model = NormalFormModel(parent=p, z0=z0, g0_basis=g0_basis,
                            m_basis=m_basis, n_basis=n_basis)
    _check_invariants(model)
    return model


def _check_invariants(model):
    p, z0 = model.parent, model.z0
    kill = np.linalg.norm(model.g0_basis @ model._orbit_map, axis=-1)
    if np.any(kill > 1e-10 * np.linalg.norm(z0)):
        raise DomainError("an isotropy direction fails to annihilate z0")
    if np.any(np.abs(model.g0_basis @ p.metric @ model.m_basis.T) > 1e-12):
        raise DomainError("m is not metric-orthogonal to g0")
    orbit = model.m_basis @ model._orbit_map
    orbit = np.vstack([orbit, 1j * orbit])
    scale = np.maximum(1.0, np.linalg.norm(orbit, axis=-1))[:, None]
    if np.any(np.abs((orbit.conj() @ model.n_basis.T).real) > 1e-12 * scale):
        raise DomainError("slice is not orthogonal to the orbit directions")
    # J0-invariance: i*b must stay in the slice span
    jb = 1j * model.n_basis
    if np.any(np.linalg.norm(jb - model.slice_coords(jb) @ model.n_basis, axis=-1) > 1e-10):
        raise DomainError("slice is not J0-invariant")


def _ad_matrix(p, x_coords):
    """Matrix of ad_x on g-coordinates: column b is coords([x, xi_b])."""
    return np.einsum("...a,abc->...cb", x_coords, p.structure)


def _dexp_left(p, x_coords):
    """The pair (Ad_{exp(-x)}, dexp) at x, dexp = (1 - e^{-ad_x}) / ad_x the
    left-trivialized differential of exp: :func:`exp_phi1` at M = -ad_x."""
    return exp_phi1(-_ad_matrix(p, x_coords))


def _omega_display(model, at, t1, t2):
    """The explicit two-form on intrinsic representatives (zeta, rho_dot, v_dot).

    zeta ranges over all of g (left-trivialized group velocity); the fiber
    components live in m- and N-coordinates. The display is basic for the
    isotropy equivalence, so any representative of a model tangent gives the
    same value.

    Returns the pair (form, form without the <rho + mu_N(v), [zeta1, zeta2]>
    term) from one evaluation; both add the Omega0 terms last, in the same
    order.
    """
    p = model.parent
    z1, r1, v1 = t1
    z2, r2, v2 = t2
    _, rho, v = model.split(at)

    def pairing(x, y):
        return np.sum((x @ p.metric) * y, axis=-1)

    pair1 = model.embed_m(r2) + model.embed_g0(model.d_mu_n(v, v2))
    pair2 = model.embed_m(r1) + model.embed_g0(model.d_mu_n(v, v1))
    total = pairing(pair1, z1) - pairing(pair2, z2)
    with_bracket = total + pairing(_fiber_moment(model, at), bracket(p, z1, z2))

    orbit = _omega0(z1 @ model._orbit_map, z2 @ model._orbit_map)
    slice_ = _omega0(model.slice_vector(v1), model.slice_vector(v2))
    return (with_bracket + orbit) + slice_, (total + orbit) + slice_


def _intrinsic(model, dexp, x):
    """Intrinsic representative (zeta, rho dot, v dot) of a chart tangent.

    Chart coordinate velocities at exp(xi_m) left-translate through the
    differential ``dexp`` of exp there to zeta in g; the fiber components
    pass through unchanged.
    """
    xi, rdot, vdot = model.split(x)
    return ((dexp @ model.embed_m(xi)[..., None])[..., 0], rdot, vdot)


def _chart_forms(model, at, x1, x2):
    """The pair of :func:`_omega_display` on chart tangents at chart points."""
    _, dexp = _dexp_left(model.parent, model.embed_m(model.split(at)[0]))
    return _omega_display(model, at, _intrinsic(model, dexp, x1),
                          _intrinsic(model, dexp, x2))


def model_symplectic_form(model, at, x1, x2, include_bracket=True):
    """Evaluate the model two-form at chart point ``at`` on chart tangents.

    The group components of chart tangents are m-valued coordinate
    velocities; away from the chart center they are converted to intrinsic
    group velocities before the display is evaluated.

    ``include_bracket=False`` drops the <rho + mu_N(v), [xi1, xi2]> term;
    this deliberately corrupted variant is the negative control that
    :func:`verify_closedness` reports beside the closedness residual.

    The point and the tangents may carry leading axes, which broadcast; the
    result has their shape, and is a float for one point.
    """
    total = _chart_forms(model, at, x1, x2)[0 if include_bracket else 1]
    return float(total) if np.ndim(total) == 0 else total


def _model_action(model, at, xi_g, ad_inv, dexp):
    """Chart tangent of the left G-action generated by xi (g-coordinates)
    at chart point ``at``, given the pair (``ad_inv``, ``dexp``) that
    :func:`_dexp_left` returns there, g = exp(xi_m) and ad_inv = Ad_{g^-1}.

    At [g, rho, v] the velocity left-translates to Ad_{g^-1} xi. Its chart
    representative solves dexp(xi_m-dot) + zeta_0 = Ad_{g^-1} xi with
    xi_m-dot in m and zeta_0 in the isotropy algebra; the bundle equivalence
    turns zeta_0 into fiber motion. The point and xi_g may carry leading
    axes, which broadcast.
    """
    p, (_, rho, v) = model.parent, model.split(at)
    zeta = (ad_inv @ np.asarray(xi_g, dtype=float)[..., None])[..., 0]
    # columns: dexp of each m basis direction, then the isotropy basis
    g0 = np.broadcast_to(model.g0_basis.T, dexp.shape[:-1] + (model.dim_g0,))
    system = np.concatenate([dexp @ model.m_basis.T, g0], axis=-1)
    sol = np.linalg.solve(system, zeta[..., None])[..., 0]
    c0 = sol[..., model.dim_m:]     # zeta_0 in g0-coordinates turns into fiber motion
    rho_dot = model.project_m(bracket(p, model.embed_g0(c0), model.embed_m(rho)))
    v_dot = c0[..., None, :] @ np.tensordot(v, model._slice_forms[1], 1)
    return np.concatenate([sol[..., :model.dim_m], rho_dot, v_dot[..., 0, :]], axis=-1)


def _fiber_moment(model, at):
    """rho + mu_N(v) in g-coordinates, the model moment before Ad_g."""
    _, rho, v = model.split(at)
    return model.embed_m(rho) + model.embed_g0(model.mu_n(v))


def model_moment_map(model, at):
    """Moment value Ad_g(mu_N(v) + rho) in metric-lowered g-coordinates, over
    the leading axes of the chart point ``at``; Ad_g = exp(ad_{xi_m})."""
    p = model.parent
    ad_g, _ = exp_phi1(_ad_matrix(p, model.embed_m(model.split(at)[0])))
    return (ad_g @ _fiber_moment(model, at)[..., None])[..., 0] @ p.metric.T


def verify_moment_identity(model, samples):
    """Max residual of d<mu~, xi>(Z) = Om(X_xi, Z) over samples and frame Z.

    ``samples`` is a list of (chart point, xi) with xi in contravariant
    g-coordinates. The left side is a central finite difference, step
    ``FD_STEP``, of the pairing along each chart coordinate direction; the
    right side evaluates the model form on the infinitesimal action. All
    samples go through one pass: one :func:`_dexp_left` pair per sample gives
    dexp and Ad_{g^-1}, which feed the right side; Ad_g = G^-1 Ad_{g^-1}^T G
    serves the points shifted along rho or v. Only the points shifted along
    xi_m get an exponential exp(ad) of their own.
    """
    if not samples:
        return 0.0
    at = np.array([q for q, _ in samples], dtype=float)
    xi = np.array([x for _, x in samples], dtype=float)
    p, dm, x = model.parent, model.dim_m, model.embed_m(model.split(at)[0])
    ad_inv, dexp = _dexp_left(p, x)
    frame = np.eye(model.dim_chart)[:, None]    # (chart direction, 1, chart)
    moved = at + np.array([FD_STEP, -FD_STEP])[:, None, None, None] * frame
    # lowered, G Ad_g lam = Ad_{g^-1}^T G lam
    lam = _fiber_moment(model, moved[:, dm:]) @ p.metric.T
    mu = np.einsum("...sa,sab->...sb", lam, ad_inv, optimize=True)
    mu = np.concatenate([model_moment_map(model, moved[:, :dm]), mu], axis=1)
    plus, minus = np.sum(mu * xi, axis=-1)
    x_xi = _intrinsic(model, dexp, _model_action(model, at, xi, ad_inv, dexp))
    rhs, _ = _omega_display(model, at, x_xi, _intrinsic(model, dexp, frame))
    return float(np.max(np.abs((plus - minus) / (2.0 * FD_STEP) - rhs)))    # NaN propagates


def verify_closedness(model, samples):
    """Max residuals of the cyclic finite-difference exterior derivative, as
    the pair (closedness, negative control).

    ``samples`` is a list of (chart point, X, Y, Z) with constant chart
    tangents. dOm(X, Y, Z) = D_X Om(Y, Z) - D_Y Om(X, Z) + D_Z Om(X, Y);
    each derivative is a central difference, step ``FD_STEP``, of the model
    form along the tangent. The form is evaluated once, on all shifted points
    stacked as (3, 2, samples) leading axes (term, sign, sample) and tangents
    broadcast against them. That one evaluation gives both residuals: the
    closedness of the model form, and the negative control, the same
    derivative of the form without its bracket term (see
    :func:`model_symplectic_form`), which is not closed on a nonabelian model.
    """
    if not samples:
        return 0.0, 0.0
    at, x, y, z = (np.array(c, dtype=float) for c in zip(*samples))
    along, a, b = (np.stack(t)[:, None] for t in ((x, y, z), (y, x, x), (z, z, y)))
    signed = np.array([FD_STEP, -FD_STEP])[:, None, None]
    forms = _chart_forms(model, at + signed * along, a, b)

    def residual(vals):
        d = (vals[:, 0] - vals[:, 1]) / (2.0 * FD_STEP)
        return float(np.max(np.abs(d[0] - d[1] + d[2])))    # NaN propagates

    return tuple(residual(vals) for vals in forms)
