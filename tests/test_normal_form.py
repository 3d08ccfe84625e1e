import numpy as np
import pytest
import scipy.linalg

from momentflow import normal_form
from momentflow.algebra import (adjoint_coadjoint, direct_sum_presentation,
                                exp_group, su2_sym_presentation,
                                torus_presentation)
from momentflow.errors import DomainError
from momentflow.normal_form import (ModelPoint, _ad_matrix, _dexp_left,
                                    build_model,
                                    infinitesimal_model_action,
                                    model_moment_map, model_symplectic_form,
                                    rho_tilde, verify_closedness,
                                    verify_moment_identity)
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


def _rand_point(model, rng, scale=0.5):
    return ModelPoint(xi_m=0.3 * rng.standard_normal(model.dim_m),
                      rho=scale * rng.standard_normal(model.dim_m),
                      v=scale * rng.standard_normal(model.dim_n))


def _rand_tangent(model, rng):
    return (rng.standard_normal(model.dim_m),
            rng.standard_normal(model.dim_m),
            rng.standard_normal(model.dim_n))


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


def test_build_rejects_non_zero():
    p = torus_presentation([[1], [-1]])
    z0 = np.array([1.0, 0.5], dtype=complex)   # mu(z0) != 0
    assert np.linalg.norm(moment_map(p, z0)) > 1e-3
    with pytest.raises(DomainError):
        build_model(p, z0)
    with pytest.raises(DomainError):
        build_model(p, np.zeros(2, dtype=complex))


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
    origin = ModelPoint(xi_m=np.zeros(1), rho=np.zeros(1), v=np.zeros(2))
    v1 = rng.standard_normal(2)
    v2 = rng.standard_normal(2)
    x1 = (np.zeros(1), np.zeros(1), v1)
    x2 = (np.zeros(1), np.zeros(1), v2)
    got = model_symplectic_form(model, origin, x1, x2)
    u1v = model.slice_vector(v1)
    u2v = model.slice_vector(v2)
    want = np.vdot(u2v, u1v).imag
    assert got == pytest.approx(want, abs=1e-14)


def test_form_cotangent_pairing_at_origin():
    _, model = u1_model()
    origin = ModelPoint(xi_m=np.zeros(1), rho=np.zeros(1), v=np.zeros(2))
    x1 = (np.zeros(1), np.array([1.0]), np.zeros(2))   # rho_1 direction
    x2 = (np.array([1.0]), np.zeros(1), np.zeros(2))   # xi_2 direction
    got = model_symplectic_form(model, origin, x1, x2)
    assert got == pytest.approx(-1.0, abs=1e-14)


def test_moment_map_origin_and_rho():
    p, model = su2_model()
    origin = ModelPoint(xi_m=np.zeros(2), rho=np.zeros(2), v=np.zeros(8))
    np.testing.assert_allclose(model_moment_map(model, origin), 0.0, atol=1e-15)
    rho = np.array([0.7, -0.3])
    at = ModelPoint(xi_m=np.zeros(2), rho=rho, v=np.zeros(8))
    got = model_moment_map(model, at)
    want = p.lower(model.embed_m(rho))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_moment_map_slice_matches_direct_pairing(rng):
    # mu~(e, 0, v) = mu_N(v): along isotropy directions it equals the full
    # moment pairing of the slice vector (the linearized isotropy action)
    p, model = su2_model()
    v = rng.standard_normal(model.dim_n)
    at = ModelPoint(xi_m=np.zeros(2), rho=np.zeros(2), v=v)
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
    at = ModelPoint(xi_m=np.zeros(2), rho=np.zeros(2), v=v)
    # xi in the isotropy algebra, slice directions only
    xi0 = model.embed_g0(np.array([1.0]))
    resid = verify_moment_identity(model, [(at, xi0)], step=1e-4)
    assert resid <= 1e-8
    # xi in m against a rho direction at the origin: both sides <rho_dot, xi>
    origin = ModelPoint(xi_m=np.zeros(2), rho=np.zeros(2), v=np.zeros(8))
    xim = model.embed_m(np.array([1.0, 0.0]))
    resid = verify_moment_identity(model, [(origin, xim)], step=1e-4)
    assert resid <= 1e-8


def test_moment_identity_random_samples_u1(rng):
    p, model = u1_model()
    samples = [(_rand_point(model, rng), rng.standard_normal(p.dim_g))
               for _ in range(100)]
    assert verify_moment_identity(model, samples, step=1e-4) <= 1e-5


def test_moment_identity_random_samples_su2(rng):
    p, model = su2_model()
    samples = [(_rand_point(model, rng), rng.standard_normal(p.dim_g))
               for _ in range(100)]
    assert verify_moment_identity(model, samples, step=1e-4) <= 1e-5


def test_verifiers_report_a_nan_residual(rng):
    p, model = su2_model()
    at = _rand_point(model, rng)
    samples = [(at, rng.standard_normal(p.dim_g)), (at, np.array([np.nan, 0.0, 0.0]))]
    assert np.isnan(verify_moment_identity(model, samples))
    x = _rand_tangent(model, rng)
    nan_x = (x[0], x[1], np.full(model.dim_n, np.nan))
    assert np.isnan(verify_closedness(model, [(at, x, x, x), (at, nan_x, x, x)]))


def test_closedness_constant_region(rng):
    _, model = u1_model()
    # abelian group, trivial isotropy: the form has constant coefficients
    samples = [(ModelPoint(xi_m=np.zeros(1), rho=np.zeros(1), v=np.zeros(2)),
                _rand_tangent(model, rng), _rand_tangent(model, rng),
                _rand_tangent(model, rng)) for _ in range(10)]
    assert verify_closedness(model, samples, step=1e-4) <= 1e-10


def test_closedness_random_samples(rng):
    _, model = su2_model()
    samples = [(_rand_point(model, rng), _rand_tangent(model, rng),
                _rand_tangent(model, rng), _rand_tangent(model, rng))
               for _ in range(60)]
    assert verify_closedness(model, samples, step=1e-4) <= 1e-4


def test_closedness_negative_control(rng):
    _, model = su2_model()
    samples = [(_rand_point(model, rng), _rand_tangent(model, rng),
                _rand_tangent(model, rng), _rand_tangent(model, rng))
               for _ in range(60)]

    def corrupted(m, at, x1, x2):
        return model_symplectic_form(m, at, x1, x2, include_bracket=False)

    assert verify_closedness(model, samples, form=corrupted) >= 1e-2


def test_form_nondegenerate_at_origin():
    for _, model in (u1_model(), su2_model()):
        origin = ModelPoint(xi_m=np.zeros(model.dim_m),
                            rho=np.zeros(model.dim_m),
                            v=np.zeros(model.dim_n))
        d = model.dim_chart
        gram = np.zeros((d, d))
        frame = []
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            frame.append((e[:model.dim_m],
                          e[model.dim_m:2 * model.dim_m],
                          e[2 * model.dim_m:]))
        for i in range(d):
            for j in range(d):
                gram[i, j] = model_symplectic_form(model, origin, frame[i], frame[j])
        smin = np.linalg.svd(gram, compute_uv=False)[-1]
        assert smin >= 1e-6


def test_residual_isotropy_equivariance(rng):
    # mu~(g0 . point) = Ad_g0 mu~(point) for the isotropy action at the chart
    # origin (g = e), where g0 acts on (rho, v)
    p, model = su2_model()
    from momentflow.algebra import adjoint_coadjoint
    for _ in range(5):
        at = ModelPoint(xi_m=np.zeros(2), rho=0.5 * rng.standard_normal(2),
                        v=0.5 * rng.standard_normal(8))
        c0 = rng.standard_normal(1)
        g0 = exp_group(p.matrix(model.embed_g0(c0)))
        # push the fiber point through the isotropy action
        rho_mat = p.matrix(model.embed_m(at.rho))
        rho_new = model.project_m(p.coords_of(g0 @ rho_mat @ np.linalg.inv(g0)))
        v_new = model.slice_coords(g0 @ model.slice_vector(at.v))
        moved = ModelPoint(xi_m=at.xi_m, rho=rho_new, v=v_new)
        lhs = model_moment_map(model, moved)
        rhs = p.lower(adjoint_coadjoint(p, g0, p.sharp(model_moment_map(model, at))))
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


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
    tangent = infinitesimal_model_action(model, at, xi)
    h = 1e-6
    moved = at.shifted(tangent, h)
    # compare moment values: d/dt mu~(e^{t xi} . at) = ad-type derivative
    lhs = (model_moment_map(model, moved) - model_moment_map(model, at)) / h
    g = exp_group(h * p.matrix(xi))
    from momentflow.algebra import adjoint_coadjoint
    pushed = p.lower(adjoint_coadjoint(p, g, p.sharp(model_moment_map(model, at))))
    rhs = (pushed - model_moment_map(model, at)) / h
    np.testing.assert_allclose(lhs, rhs, atol=1e-4)


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
        np.testing.assert_allclose(_dexp_left(p, xg),
                                   _dexp_series(_ad_matrix(p, xg)), atol=1e-12)


def test_batched_model_maps_match_per_point_calls(rng):
    p, model = su2_model()
    points = [_rand_point(model, rng) for _ in range(7)]
    xs = [_rand_tangent(model, rng) for _ in range(7)]
    ys = [_rand_tangent(model, rng) for _ in range(7)]
    at = ModelPoint(*normal_form._stack((q.xi_m, q.rho, q.v) for q in points))
    x, y = normal_form._stack(xs), normal_form._stack(ys)

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
    xg = model.embed_m(at.xi_m)
    np.testing.assert_allclose(_dexp_left(p, xg), [_dexp_left(p, row) for row in xg],
                               rtol=0, atol=1e-14)


def test_batched_adjoint_rejects_one_non_normalizing_point(rng):
    p, model = su2_model()
    gs = scipy.linalg.expm(p.matrix(rng.standard_normal((3, p.dim_g))))  # in G
    coords = rng.standard_normal((3, p.dim_g))
    adjoint_coadjoint(p, gs, coords)
    # a unitary that mixes the two summands leaves the presented algebra
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    gs[1] = q
    with pytest.raises(DomainError):
        adjoint_coadjoint(p, gs, coords)


def test_verifiers_bound_dexp_calls_per_sample(monkeypatch, rng):
    p, model = su2_model()
    calls = []

    def counted(*args, _fn=normal_form._dexp_left):
        calls.append(1)
        return _fn(*args)

    monkeypatch.setattr(normal_form, "_dexp_left", counted)
    samples = [(_rand_point(model, rng), rng.standard_normal(p.dim_g))
               for _ in range(5)]
    verify_moment_identity(model, samples)
    assert len(calls) <= 2 * len(samples)
    calls.clear()
    triples = [(_rand_point(model, rng), _rand_tangent(model, rng),
                _rand_tangent(model, rng), _rand_tangent(model, rng))
               for _ in range(5)]
    verify_closedness(model, triples)
    assert len(calls) <= len(triples)
