import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conjugate_coords, random_presentation
from momentflow import normal_form, runner
from momentflow.algebra import (bracket, direct_sum_presentation, matrix_presentation,
                                su2_sym_presentation, torus_presentation)
from momentflow.builtins import get_builtin
from momentflow.cli import main
from momentflow.errors import DomainError, StructuralError
from momentflow.linalg import expm
from momentflow.normal_form import (FD_STEP, NormalFormModel, _ad_matrix,
                                    _check_invariants, _dexp_left,
                                    _model_action, _omega0, build_model,
                                    model_moment_map, model_symplectic_form,
                                    verify_closedness, verify_moment_identity)
from momentflow.representation import moment_map


def u1_model():
    p = torus_presentation([[1], [-1]])
    z0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    return p, build_model(p, z0)


def su2_model():
    p1 = su2_sym_presentation(2)
    p = direct_sum_presentation([p1, p1])
    z0 = np.zeros(6, dtype=complex)
    z0[1] = 1.0   # zero-weight vector of the first summand
    return p, build_model(p, z0)


def _chart(xi_m, rho, v):
    """The chart array [xi_m | rho | v]."""
    return np.concatenate([xi_m, rho, v])


def _rand_point(model, rng, scale=0.5):
    return _chart(0.3 * rng.standard_normal(model.dim_m),
                  scale * rng.standard_normal(model.dim_m),
                  scale * rng.standard_normal(model.dim_n))


def _rand_tangent(model, rng):
    return rng.standard_normal(model.dim_chart)


def test_build_trivial_action_slice_is_everything():
    p = torus_presentation([[0], [0]])   # weight-zero torus acts trivially
    z0 = np.array([1.0, 0.5j])
    model = build_model(p, z0)
    assert model.dim_g0 == 1 and model.dim_m == 0
    assert model.dim_n == 4   # all of V, as real dimensions


def test_build_u1_dimensions():
    p, model = u1_model()
    assert model.dim_g0 == 0
    assert model.dim_m == 1
    assert model.dim_n == 2
    assert 2 * model.dim_m + model.dim_n == 2 * p.dim_v


def test_build_su2_dimensions_and_isotropy():
    p, model = su2_model()
    assert model.dim_g0 == 1
    assert model.dim_m == 2
    assert model.dim_n == 8
    # the isotropy direction annihilates z0 and acts nontrivially on N
    zeta = p.matrix(model.embed_g0(np.array([1.0])))
    assert np.linalg.norm(zeta @ model.z0) <= 1e-12
    assert np.linalg.norm(model.mu_n(np.ones(model.dim_n))) > 1e-3


@pytest.mark.parametrize("make, dims", [(u1_model, (0, 1, 2)), (su2_model, (1, 2, 8))])
@pytest.mark.parametrize("c", [1e-100, 1e-6, 1e-4, 1e-2, 1.0, 1e3])
def test_scaled_zero_gets_the_same_splitting(make, dims, c):
    # mu is quadratic, so c z0 is a zero with the isotropy of z0; the rank
    # cut is relative to the largest singular value, so the dims hold
    p, model = make()
    scaled = build_model(p, c * model.z0)
    assert (scaled.dim_g0, scaled.dim_m, scaled.dim_n) == dims


@pytest.mark.parametrize("small, dims", [(1e-2, (0, 2, 4)), (1e-4, None), (1e-12, (1, 1, 6))])
def test_rank_cut_and_its_gray_zone(small, dims):
    # two balanced pairs on the axes of T^2; the second pair's modulus is
    # the ratio of the two singular values of the action map. At 1e-4 it
    # sits in the gray zone (1e-5, 1e-3) of the relative cut 1e-4 s_max
    p = torus_presentation([[1, 0], [-1, 0], [0, 1], [0, -1]])
    z0 = np.array([1.0, 1.0, small, small], dtype=complex)
    if dims is None:
        with pytest.raises(DomainError, match="numerically degenerate"):
            build_model(p, z0)
    else:
        model = build_model(p, z0)
        assert (model.dim_g0, model.dim_m, model.dim_n) == dims


def _known_zero(rng):
    """A zero z0 of mu whose isotropy is known without an SVD, with the
    expected (dim g0, dim m, dim N): a balanced torus, each weight w_j paired
    with -w_j at equal moduli, where xi.z0 = 0 iff xi is orthogonal to every
    supported weight; or a sum of even su2_sym powers at zero-weight vectors,
    fixed by the maximal torus alone."""
    scale = 10 ** rng.uniform(-100, 2)
    if rng.integers(0, 2):
        k, pairs = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        w = rng.integers(-3, 4, size=(pairs, k))
        moduli = rng.uniform(0.5, 2.0, size=pairs) * rng.integers(0, 2, size=pairs)
        moduli[rng.integers(0, pairs)] = 1.0    # at least one supported pair
        phases = np.exp(2j * np.pi * rng.uniform(size=(2, pairs)))
        p = torus_presentation(np.concatenate([w, -w]))
        z0 = scale * np.concatenate(moduli * phases)
        dim_m = int(np.linalg.matrix_rank(w[moduli > 0]))
        return p, z0, (k - dim_m, dim_m, 2 * (2 * pairs - dim_m))
    degrees = [int(d) for d in 2 * rng.integers(1, 4, size=rng.integers(1, 4))]
    p = direct_sum_presentation([su2_sym_presentation(d) for d in degrees])
    z0 = np.zeros(p.dim_v, dtype=complex)
    starts = np.cumsum([0] + [d + 1 for d in degrees[:-1]])
    moduli = rng.uniform(0.5, 2.0, len(degrees))
    phases = np.exp(2j * np.pi * rng.uniform(size=len(degrees)))
    z0[starts + np.array(degrees) // 2] = scale * moduli * phases
    return p, z0, (1, 2, 2 * p.dim_v - 4)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_splitting_of_zeros_with_known_isotropy(seed):
    p, z0, dims = _known_zero(np.random.default_rng(seed))
    model = build_model(p, z0)
    assert (model.dim_g0, model.dim_m, model.dim_n) == dims
    norm = np.linalg.norm(z0)
    assert np.all(np.linalg.norm(p.matrix(model.g0_basis) @ z0, axis=-1) <= 1e-12 * norm)
    # g0 and m together: a g-orthonormal basis of g, g0 orthogonal to m
    basis = np.vstack([model.g0_basis, model.m_basis])
    np.testing.assert_allclose(basis @ p.metric @ basis.T, np.eye(p.dim_g), rtol=0, atol=1e-12)
    # the slice: Re<.,.>-orthonormal, orthogonal to the orbit directions and
    # their J0 rotations, and J0-invariant
    n_basis = model.n_basis
    np.testing.assert_allclose((n_basis.conj() @ n_basis.T).real, np.eye(model.dim_n),
                               rtol=0, atol=1e-12)
    orbit = p.matrix(model.m_basis) @ z0 / norm
    for directions in (orbit, 1j * orbit):
        assert np.all(np.abs((directions.conj() @ n_basis.T).real) <= 1e-12)
    jn = 1j * n_basis
    np.testing.assert_allclose(model.slice_coords(jn) @ n_basis, jn, rtol=0, atol=1e-12)


def test_build_rejects_non_zero():
    p = torus_presentation([[1], [-1]])
    z0 = np.array([1.0, 0.5], dtype=complex)   # mu(z0) != 0
    assert np.linalg.norm(moment_map(p, z0)) > 1e-3
    with pytest.raises(DomainError):
        build_model(p, z0)
    with pytest.raises(DomainError):
        build_model(p, np.zeros(2, dtype=complex))


@pytest.mark.parametrize("scale", [1.0, 1e2, 1e3, 1e4, 1e6])
def test_zero_test_is_relative_to_the_norm(scale):
    # a balanced torus zero: mu(scale z0) is round-off of size eps scale^2,
    # which an absolute bound refused from scale 1e3 on; one modulus moved by
    # 1% is no zero at any scale
    p = torus_presentation([[1, 2], [-1, -2], [3, -1], [-3, 1]])
    phases = np.exp(2j * np.pi * np.random.default_rng(3).uniform(size=4))
    moduli = np.array([1.3, 1.3, 0.7, 0.7])
    model = build_model(p, scale * moduli * phases)
    assert (model.dim_g0, model.dim_m, model.dim_n) == (0, 2, 4)
    moduli[0] *= 1.01
    with pytest.raises(DomainError, match="not a zero"):
        build_model(p, scale * moduli * phases)


@pytest.mark.parametrize("c", [1e-100, 1e-12, 1e-6, 1.0])
def test_check_invariants_refuses_a_wrong_isotropy_at_any_scale(c):
    # all of su(2) as isotropy, m empty and N = V: the orbit directions are
    # missing, and only the test g0.z0 = 0, relative to |z0|, sees it
    p, model = su2_model()
    n = p.dim_v
    wrong = NormalFormModel(parent=p, z0=c * model.z0, g0_basis=np.eye(p.dim_g),
                            m_basis=np.zeros((0, p.dim_g)),
                            n_basis=np.vstack([np.eye(n), 1j * np.eye(n)]))
    with pytest.raises(DomainError, match="fails to annihilate"):
        _check_invariants(wrong)


def test_build_rejects_a_basis_not_closed_under_brackets():
    # i sigma_x and i sigma_y alone: their bracket is along i sigma_z, outside
    # the span, so Ad_g = exp(ad_x) would not hold on this basis
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    p = matrix_presentation(1j * np.stack([sx, sy]))
    z0 = np.array([1.0, 0.0], dtype=complex)
    assert moment_map(p, z0) == pytest.approx(0.0, abs=1e-15)    # a zero of mu
    with pytest.raises(DomainError, match="validation"):
        build_model(p, z0)


def test_form_antisymmetry_exact(rng):
    _, model = su2_model()
    at = _rand_point(model, rng)
    x = _rand_tangent(model, rng)
    y = _rand_tangent(model, rng)
    assert model_symplectic_form(model, at, x, x) == 0.0
    a = model_symplectic_form(model, at, x, y)
    b = model_symplectic_form(model, at, y, x)
    assert a == pytest.approx(-b, abs=1e-14)


def test_form_slice_block_at_origin(rng):
    _, model = u1_model()
    origin = np.zeros(model.dim_chart)
    v1 = rng.standard_normal(2)
    v2 = rng.standard_normal(2)
    x1 = _chart(np.zeros(1), np.zeros(1), v1)
    x2 = _chart(np.zeros(1), np.zeros(1), v2)
    got = model_symplectic_form(model, origin, x1, x2)
    u1v = model.slice_vector(v1)
    u2v = model.slice_vector(v2)
    want = np.vdot(u2v, u1v).imag
    assert got == pytest.approx(want, abs=1e-14)


def test_form_cotangent_pairing_at_origin():
    _, model = u1_model()
    origin = np.zeros(model.dim_chart)
    x1 = _chart(np.zeros(1), np.array([1.0]), np.zeros(2))   # rho_1 direction
    x2 = _chart(np.array([1.0]), np.zeros(1), np.zeros(2))   # xi_2 direction
    got = model_symplectic_form(model, origin, x1, x2)
    assert got == pytest.approx(-1.0, abs=1e-14)


def test_moment_map_origin_and_rho():
    p, model = su2_model()
    origin = np.zeros(model.dim_chart)
    np.testing.assert_allclose(model_moment_map(model, origin), 0.0, atol=1e-15)
    rho = np.array([0.7, -0.3])
    at = _chart(np.zeros(2), rho, np.zeros(8))
    got = model_moment_map(model, at)
    want = p.lower(model.embed_m(rho))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_moment_map_slice_matches_direct_pairing(rng):
    # mu~(e, 0, v) = mu_N(v): along isotropy directions it equals the full
    # moment pairing of the slice vector (the linearized isotropy action)
    p, model = su2_model()
    v = rng.standard_normal(model.dim_n)
    at = _chart(np.zeros(2), np.zeros(2), v)
    got = model_moment_map(model, at)
    u = model.slice_vector(v)
    direct = moment_map(p, u)
    for row in model.g0_basis:
        assert got @ row == pytest.approx(direct @ row, abs=1e-12)
    # and it has no m-component
    for row in model.m_basis:
        assert got @ row == pytest.approx(0.0, abs=1e-12)


def test_moment_identity_crafted_directions(rng):
    p, model = su2_model()
    v = 0.4 * rng.standard_normal(model.dim_n)
    at = _chart(np.zeros(2), np.zeros(2), v)
    # xi in the isotropy algebra, slice directions only
    xi0 = model.embed_g0(np.array([1.0]))
    resid = verify_moment_identity(model, [(at, xi0)])
    assert resid <= 1e-8
    # xi in m against a rho direction at the origin: both sides <rho_dot, xi>
    origin = np.zeros(model.dim_chart)
    xim = model.embed_m(np.array([1.0, 0.0]))
    resid = verify_moment_identity(model, [(origin, xim)])
    assert resid <= 1e-8


def test_moment_identity_random_samples_u1(rng):
    p, model = u1_model()
    samples = [(_rand_point(model, rng), rng.standard_normal(p.dim_g))
               for _ in range(100)]
    assert verify_moment_identity(model, samples) <= 1e-5


def test_moment_identity_random_samples_su2(rng):
    p, model = su2_model()
    samples = [(_rand_point(model, rng), rng.standard_normal(p.dim_g))
               for _ in range(100)]
    assert verify_moment_identity(model, samples) <= 1e-5


def test_verifiers_report_a_nan_residual(rng):
    p, model = su2_model()
    at = _rand_point(model, rng)
    samples = [(at, rng.standard_normal(p.dim_g)), (at, np.array([np.nan, 0.0, 0.0]))]
    assert np.isnan(verify_moment_identity(model, samples))
    x = _rand_tangent(model, rng)
    xi_m, rho, _ = model.split(x)
    nan_x = _chart(xi_m, rho, np.full(model.dim_n, np.nan))
    closedness, negative_control = verify_closedness(
        model, [(at, x, x, x), (at, nan_x, x, x)])
    assert np.isnan(closedness) and np.isnan(negative_control)


def test_closedness_constant_region(rng):
    _, model = u1_model()
    # abelian group, trivial isotropy: the form has constant coefficients
    samples = [(np.zeros(model.dim_chart),
                _rand_tangent(model, rng), _rand_tangent(model, rng),
                _rand_tangent(model, rng)) for _ in range(10)]
    assert verify_closedness(model, samples)[0] <= 1e-10


def test_closedness_random_samples(rng):
    _, model = su2_model()
    samples = [(_rand_point(model, rng), _rand_tangent(model, rng),
                _rand_tangent(model, rng), _rand_tangent(model, rng))
               for _ in range(60)]
    assert verify_closedness(model, samples)[0] <= 1e-4


def test_closedness_negative_control(rng):
    _, model = su2_model()
    samples = [(_rand_point(model, rng), _rand_tangent(model, rng),
                _rand_tangent(model, rng), _rand_tangent(model, rng))
               for _ in range(60)]
    _, negative_control = verify_closedness(model, samples)
    assert negative_control >= 1e-2


def test_form_nondegenerate_at_origin():
    for _, model in (u1_model(), su2_model()):
        d = model.dim_chart
        origin, frame = np.zeros(d), np.eye(d)
        gram = np.zeros((d, d))
        for i in range(d):
            for j in range(d):
                gram[i, j] = model_symplectic_form(model, origin, frame[i], frame[j])
        smin = np.linalg.svd(gram, compute_uv=False)[-1]
        assert smin >= 1e-6


def test_residual_isotropy_equivariance(rng):
    # mu~(g0 . point) = Ad_g0 mu~(point) for the isotropy action at the chart
    # origin (g = e), where g0 acts on (rho, v)
    p, model = su2_model()
    for _ in range(5):
        rho, v = 0.5 * rng.standard_normal(2), 0.5 * rng.standard_normal(8)
        at = _chart(np.zeros(2), rho, v)
        c0 = rng.standard_normal(1)
        g0 = expm(p.matrix(model.embed_g0(c0)))
        # push the fiber point through the isotropy action
        rho_mat = p.matrix(model.embed_m(rho))
        rho_new = model.project_m(p.coords_of(g0 @ rho_mat @ np.linalg.inv(g0)))
        v_new = model.slice_coords(g0 @ model.slice_vector(v))
        moved = _chart(np.zeros(2), rho_new, v_new)
        lhs = model_moment_map(model, moved)
        rhs = p.lower(conjugate_coords(p, g0, p.sharp(model_moment_map(model, at))))
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


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


def test_rho_tilde_identification(rng):
    p, model = su2_model()
    rho = rng.standard_normal(2)
    vec, cond = rho_tilde(model, rho)
    assert cond < 1e6
    # the defining pairing: <rho, eta> = Omega0(rho~, eta . z0) for eta in m
    for a in range(model.dim_m):
        eta = model.m_basis[a]
        x_eta = p.matrix(eta) @ model.z0
        omega = np.vdot(x_eta, vec).imag
        assert omega == pytest.approx(rho[a], abs=1e-10)
    # rho~ lies in J0 (g . z0)
    orbit = np.stack([p.matrix(r) @ model.z0 for r in model.m_basis])
    jbasis = 1j * orbit
    coeffs, *_ = np.linalg.lstsq(jbasis.T, vec, rcond=None)
    np.testing.assert_allclose(jbasis.T @ coeffs, vec, atol=1e-10)


def test_infinitesimal_action_consistency(rng):
    # moving the point along X_xi reproduces the group action to first order
    p, model = su2_model()
    at = _rand_point(model, rng)
    xi = rng.standard_normal(p.dim_g)
    x = model.embed_m(model.split(at)[0])
    tangent = _model_action(model, at, xi, *_dexp_left(p, x))
    h = 1e-6
    moved = at + h * tangent
    # compare moment values: d/dt mu~(e^{t xi} . at) = ad-type derivative
    lhs = (model_moment_map(model, moved) - model_moment_map(model, at)) / h
    g = expm(h * p.matrix(xi))
    pushed = p.lower(conjugate_coords(p, g, p.sharp(model_moment_map(model, at))))
    rhs = (pushed - model_moment_map(model, at)) / h
    np.testing.assert_allclose(lhs, rhs, atol=1e-4)


def _model_action_reference(model, at, xi_g, ad_inv, dexp):
    """:func:`_model_action` with the fiber motion as the n x n product
    slice_coords(matrix(zeta_0) slice_vector(v)), the reference for c0 (v R)."""
    p, (_, rho, v) = model.parent, model.split(at)
    zeta = (ad_inv @ np.asarray(xi_g, dtype=float)[..., None])[..., 0]
    g0 = np.broadcast_to(model.g0_basis.T, dexp.shape[:-1] + (model.dim_g0,))
    system = np.concatenate([dexp @ model.m_basis.T, g0], axis=-1)
    sol = np.linalg.solve(system, zeta[..., None])[..., 0]
    z0_coords = model.embed_g0(sol[..., model.dim_m:])
    rho_dot = model.project_m(bracket(p, z0_coords, model.embed_m(rho)))
    moved = p.matrix(z0_coords) @ model.slice_vector(v)[..., None]
    return np.concatenate([sol[..., :model.dim_m], rho_dot,
                           model.slice_coords(moved[..., 0])], axis=-1)


@pytest.mark.parametrize("name", ["su2", "mgs_su2"])
def test_model_action_matches_the_n_by_n_fiber_motion(rng, name):
    if name == "su2":
        p, model = su2_model()
    else:
        exp = get_builtin(name)
        p, model = exp.presentation, build_model(exp.presentation, exp.v0)
    assert model.dim_g0 > 0
    at = np.stack([_rand_point(model, rng, scale=2.0) for _ in range(20)])
    xi = 3.0 * rng.standard_normal((20, p.dim_g))
    pair = _dexp_left(p, model.embed_m(model.split(at)[0]))
    got = _model_action(model, at, xi, *pair)
    want = _model_action_reference(model, at, xi, *pair)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def _dexp_series(a, terms=30):
    """Truncated series sum_j (-a)^j / (j + 1)!, the reference for dexp."""
    out = term = np.eye(len(a))
    for j in range(1, terms):
        term = term @ (-a) / (j + 1)
        out = out + term
        if np.linalg.norm(term) < 1e-17:
            break
    return out


def test_dexp_closed_form_matches_series(rng):
    p, model = su2_model()
    for _ in range(20):
        x = rng.standard_normal(model.dim_m)
        x *= rng.uniform(0.0, 1.0) / np.linalg.norm(x)
        xg = model.embed_m(x)
        ad_inv, dexp = _dexp_left(p, xg)
        np.testing.assert_allclose(dexp, _dexp_series(_ad_matrix(p, xg)), atol=1e-12)
        np.testing.assert_allclose(ad_inv, expm(-_ad_matrix(p, xg)), rtol=0, atol=1e-14)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ad_exp_matches_conjugation_on_random_presentations(seed):
    # exp(ad_x) c is g matrix(c) g^-1 in coordinates, g = exp(x); the first
    # block of _dexp_left is its inverse. A torus basis may have more
    # generators than its span has dimensions, so the coordinates are
    # compared as the matrices they present.
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    x = rng.standard_normal(p.dim_g)
    x *= rng.uniform(0.0, 2.0) / max(np.linalg.norm(x), 1e-300)
    c = rng.standard_normal(p.dim_g) * rng.uniform(0.1, 10.0)
    ad = expm(_ad_matrix(p, x))
    got = p.matrix(ad @ c)
    want = p.matrix(conjugate_coords(p, expm(p.matrix(x)), c))
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    ad_inv, _ = _dexp_left(p, x)
    prod = ad_inv @ ad
    assert np.all(np.abs(prod - np.eye(p.dim_g)) <= 1e-12)


def test_batched_adjoint_rejects_one_non_normalizing_point(rng):
    p, model = su2_model()
    xs = rng.standard_normal((3, p.dim_g))
    gs = expm(p.matrix(xs))   # in G
    coords = rng.standard_normal((3, p.dim_g))
    # the batched exp(ad_x) agrees with the conjugation at every point of G
    got = (expm(_ad_matrix(p, xs)) @ coords[..., None])[..., 0]
    for g, c, row in zip(gs, coords, got):
        np.testing.assert_allclose(row, conjugate_coords(p, g, c), atol=1e-12)
    # a unitary that mixes the two summands leaves the presented algebra
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    gs[1] = q
    conjugate_coords(p, gs[0], coords[0])
    conjugate_coords(p, gs[2], coords[2])
    with pytest.raises(DomainError):
        conjugate_coords(p, gs[1], coords[1])


def test_batched_model_maps_match_per_point_calls(rng):
    p, model = su2_model()
    points = [_rand_point(model, rng) for _ in range(7)]
    xs = [_rand_tangent(model, rng) for _ in range(7)]
    ys = [_rand_tangent(model, rng) for _ in range(7)]
    at, x, y = np.stack(points), np.stack(xs), np.stack(ys)

    np.testing.assert_allclose(model_moment_map(model, at),
                               [model_moment_map(model, q) for q in points],
                               rtol=0, atol=1e-14)
    for bracket in (True, False):
        want = [model_symplectic_form(model, q, a, b, include_bracket=bracket)
                for q, a, b in zip(points, xs, ys)]
        assert all(type(w) is float for w in want)
        got = model_symplectic_form(model, at, x, y, include_bracket=bracket)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        # one point against a stack of tangents broadcasts
        got = model_symplectic_form(model, points[0], xs[0], y, include_bracket=bracket)
        want = [model_symplectic_form(model, points[0], xs[0], b, include_bracket=bracket)
                for b in ys]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    xg = model.embed_m(model.split(at)[0])
    for got, want in zip(_dexp_left(p, xg), zip(*[_dexp_left(p, row) for row in xg])):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_verifiers_bound_dexp_calls_per_sample(monkeypatch, rng):
    p, model = su2_model()
    calls, exponentials = [], []

    def counted(*args, _fn=normal_form._dexp_left):
        calls.append(1)
        return _fn(*args)

    def counted_pair(a, _fn=normal_form.exp_phi1):
        exponentials.append(int(np.prod(np.shape(a)[:-2])))
        return _fn(a)

    monkeypatch.setattr(normal_form, "_dexp_left", counted)
    monkeypatch.setattr(normal_form, "exp_phi1", counted_pair)
    for n_samples in (1, 5):
        samples = [(_rand_point(model, rng), rng.standard_normal(p.dim_g))
                   for _ in range(n_samples)]
        calls.clear()
        exponentials.clear()
        verify_moment_identity(model, samples)
        # one dexp per verification; one (exp, phi1) pair per sample for
        # dexp and Ad_{g^-1}, one per point shifted along xi_m
        assert len(calls) <= 1
        assert 0 < sum(exponentials) <= n_samples * (1 + 2 * model.dim_m)
    calls.clear()
    triples = [(_rand_point(model, rng), _rand_tangent(model, rng),
                _rand_tangent(model, rng), _rand_tangent(model, rng))
               for _ in range(5)]
    verify_closedness(model, triples)
    assert len(calls) <= len(triples)


def _two_pass_closedness(model, samples, include_bracket):
    """The reference closedness residual: the public form, with or without
    its bracket term, on the stacked shifted points."""
    at, x, y, z = (np.array(c, dtype=float) for c in zip(*samples))
    along, a, b = (np.stack(t)[:, None] for t in ((x, y, z), (y, x, x), (z, z, y)))
    signed = np.array([FD_STEP, -FD_STEP])[:, None, None]
    vals = model_symplectic_form(model, at + signed * along, a, b,
                                 include_bracket=include_bracket)
    d = (vals[:, 0] - vals[:, 1]) / (2.0 * FD_STEP)
    return float(np.max(np.abs(d[0] - d[1] + d[2])))


@pytest.mark.parametrize("seed", [3, 11])
def test_one_pass_closedness_equals_the_model_form(seed):
    _, model = su2_model()
    rng = np.random.default_rng(seed)
    triples = [(_rand_point(model, rng), _rand_tangent(model, rng),
                _rand_tangent(model, rng), _rand_tangent(model, rng))
               for _ in range(30)]
    closedness, negative_control = verify_closedness(model, triples)
    assert closedness == _two_pass_closedness(model, triples, True)
    assert negative_control == _two_pass_closedness(model, triples, False)


def test_mgs_su2_run_forms_dexp_twice(tmp_path, monkeypatch):
    # one dexp for the moment identity, one for closedness and its control;
    # every exponential is an (exp, phi1) pair of real k x k matrices, never
    # an n x n group element
    k = get_builtin("mgs_su2").presentation.dim_g
    calls, shapes = [], []

    def counted(*args, _fn=normal_form._dexp_left):
        calls.append(1)
        return _fn(*args)

    def counted_pair(a, _fn=normal_form.exp_phi1):
        shapes.append((np.asarray(a).dtype, np.shape(a)[-2:]))
        return _fn(a)

    monkeypatch.setattr(normal_form, "_dexp_left", counted)
    monkeypatch.setattr(normal_form, "exp_phi1", counted_pair)
    assert main(["--builtin", "mgs_su2", "--out-dir", str(tmp_path), "--quiet"]) == 0
    assert len(calls) == 2
    assert shapes and all(dtype == np.float64 for dtype, _ in shapes)
    assert {shape for _, shape in shapes} == {(k, k)}


def _per_sample_draws(model, dim_g, seed, n_samples=100):
    """The verification samples drawn one small array at a time."""
    rng = np.random.default_rng(seed)
    samples = [(_rand_point(model, rng), rng.standard_normal(dim_g))
               for _ in range(n_samples)]
    triples = [(_rand_point(model, rng), _rand_tangent(model, rng),
                _rand_tangent(model, rng), _rand_tangent(model, rng))
               for _ in range(n_samples)]
    return samples, triples


@pytest.mark.parametrize("name", ["mgs_u1", "mgs_su2"])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_runner_draws_the_per_sample_sequence(name, seed, tmp_path, monkeypatch):
    seen = {}
    for verify in ("verify_moment_identity", "verify_closedness"):
        def captured(model, samples, _fn=getattr(runner, verify), _key=verify):
            seen[_key] = (model, samples)
            return _fn(model, samples)
        monkeypatch.setattr(runner, verify, captured)
    exp = get_builtin(name)
    status, _ = runner.run_experiment(exp, tmp_path, seed=seed, quiet=True)
    assert status == 0
    model = seen["verify_moment_identity"][0]
    wants = _per_sample_draws(model, exp.presentation.dim_g, seed)
    for verify, want in zip(("verify_moment_identity", "verify_closedness"), wants):
        got = seen[verify][1]
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for g, w in zip(got, want) for a, b in zip(g, w))


def _loop_moment_identity(model, samples):
    """The per-sample reference: every shifted point through the public
    moment map, the frame through the public form, one sample at a time."""
    frame = np.eye(model.dim_chart)
    signed = np.array([FD_STEP, -FD_STEP])[:, None, None]
    worst = 0.0
    p = model.parent
    for at, xi in samples:
        xi = np.asarray(xi, dtype=float)
        x = model.embed_m(model.split(at)[0])
        x_xi = _model_action(model, at, xi, *_dexp_left(p, x))
        plus, minus = model_moment_map(model, at + signed * frame) @ xi
        lhs = (plus - minus) / (2.0 * FD_STEP)
        rhs = model_symplectic_form(model, at, x_xi, frame)
        worst = np.maximum(worst, np.max(np.abs(lhs - rhs)))
    return float(worst)


@pytest.mark.parametrize("make", [u1_model, su2_model])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_batched_moment_identity_matches_per_sample_loop(make, seed):
    p, model = make()
    rng = np.random.default_rng(seed)
    samples = [(_rand_point(model, rng), rng.standard_normal(p.dim_g))
               for _ in range(40)]
    got = verify_moment_identity(model, samples)
    want = _loop_moment_identity(model, samples)
    assert want <= 1e-5    # both are finite-difference noise
    assert got == pytest.approx(want, rel=0, abs=1e-10)


@pytest.mark.parametrize("make", [u1_model, su2_model])
def test_stacked_model_action_matches_per_point_calls(make, rng):
    p, model = make()
    points = [_rand_point(model, rng) for _ in range(6)]
    xis = rng.standard_normal((6, p.dim_g))
    at = np.stack(points)
    x = model.embed_m(model.split(at)[0])
    got = _model_action(model, at, xis, *_dexp_left(p, x))
    want = []
    for q, xi in zip(points, xis):
        y = model.embed_m(model.split(q)[0])
        want.append(_model_action(model, q, xi, *_dexp_left(p, y)))
    assert got.shape == (6, model.dim_chart)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_moment_identity_without_samples_is_zero():
    _, model = su2_model()
    assert verify_moment_identity(model, []) == 0.0
    assert verify_closedness(model, []) == (0.0, 0.0)


def test_moment_identity_on_a_model_without_m(rng):
    # the weight-zero circle fixes every vector: g = g0, no orbit directions
    p = torus_presentation([[0]])
    model = build_model(p, np.array([1.0 + 0j]))
    assert model.dim_m == 0 and model.dim_n == 2
    samples = [(_rand_point(model, rng), rng.standard_normal(p.dim_g))
               for _ in range(4)]
    assert verify_moment_identity(model, samples) == 0.0
