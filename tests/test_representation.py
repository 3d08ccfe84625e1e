import numpy as np
import pytest
import scipy.linalg

from conftest import conjugate_coords, fd_gradient, random_presentation, random_vector
from momentflow.algebra import su2_presentation, torus_presentation
from momentflow.errors import ContractViolationError, DegenerateInputError
from momentflow.linalg import expm
from momentflow.representation import (H_PATH, MIN_NORM, _step_logs,
                                       energy_and_gradient, infinitesimal_action,
                                       kempf_ness_value, moment_coefficients,
                                       moment_map, projective_moment_map)


def test_infinitesimal_action_zero_vector():
    p = torus_presentation([[1], [2]])
    lv = infinitesimal_action(p, np.zeros(2, dtype=complex))
    assert np.all(lv == 0)


def test_infinitesimal_action_torus_columns():
    p = torus_presentation([[1], [2]])
    lv = infinitesimal_action(p, np.array([1.0, 1.0], dtype=complex))
    np.testing.assert_allclose(lv[:, 0], [1j, 2j])


def test_infinitesimal_action_su2_columns():
    p = su2_presentation()
    v = np.array([1.0, 0.0], dtype=complex)
    lv = infinitesimal_action(p, v)
    for a in range(3):
        np.testing.assert_allclose(lv[:, a], p.basis[a] @ v)


def test_moment_map_zero():
    p = torus_presentation([[1]])
    np.testing.assert_allclose(moment_map(p, np.zeros(1, dtype=complex)), [0.0])


def test_moment_map_u1_half_norm_squared():
    # scalar pairing: mu = |v|^2 / 2 under the fixed convention
    p = torus_presentation([[1]])
    v = np.array([np.sqrt(2) * np.exp(0.3j)])
    np.testing.assert_allclose(moment_map(p, v), [1.0], atol=1e-14)


def test_moment_map_torus_coordinate_masses():
    p = torus_presentation([[1, 0], [0, 1], [1, 1]])
    v = np.array([1.0, 1.0, 1.0], dtype=complex)
    np.testing.assert_allclose(moment_map(p, v), [1.0, 1.0], atol=1e-14)


def moment_map_via_adjoint(p, v):
    """Second defining route: 1/2 L_v^*(J0 v), lowered coordinates, kept
    apart from :func:`moment_map` so the two formulas can be compared."""
    v = np.asarray(v, dtype=complex)
    lv = infinitesimal_action(p, v)
    u = 1j * v
    # (L_v^* u)_a = Re<u, xi_a v>
    return 0.5 * (lv.conj().T @ u).real


def test_moment_map_two_defining_formulas_agree(rng):
    for _ in range(50):
        p = random_presentation(rng)
        v = random_vector(rng, p.dim_v)
        a = moment_map(p, v)
        b = moment_map_via_adjoint(p, v)
        np.testing.assert_allclose(a, b, atol=1e-12 * max(1.0, np.linalg.norm(a)))


def test_moment_map_equivariance(rng):
    for _ in range(30):
        p = random_presentation(rng)
        v = random_vector(rng, p.dim_v)
        xi = rng.standard_normal(p.dim_g)
        g = expm(p.matrix(xi))
        lhs = moment_map(p, g @ v)
        # Ad* = Ad for compact elements with the invariant metric
        rhs = p.lower(conjugate_coords(p, g, p.sharp(moment_map(p, v))))
        np.testing.assert_allclose(lhs, rhs, atol=1e-8 * max(1.0, np.linalg.norm(lhs)))


def test_moment_map_homogeneity(rng):
    p = torus_presentation([[1, 0], [0, 1], [1, 1]])
    v = random_vector(rng, 3)
    for c in (0.5, 2.0, -3.0):
        np.testing.assert_allclose(moment_map(p, c * v), c**2 * moment_map(p, v),
                                   rtol=0, atol=1e-13 * np.linalg.norm(v)**2)


def test_projective_moment_map_scale_invariance(rng):
    p = torus_presentation([[1], [2]])
    v = random_vector(rng, 2)
    a = projective_moment_map(p, v)
    b = projective_moment_map(p, 2.0 * v)
    np.testing.assert_allclose(a, b, atol=1e-14)
    # weight-1 vertex
    np.testing.assert_allclose(projective_moment_map(p, np.array([1.0, 0.0])),
                               [0.5], atol=1e-14)


def test_projective_moment_map_stack_divides_each_row_by_its_own_norm():
    p = torus_presentation([[1], [2]])
    rows = np.array([[1.0, 0.0], [0.0, 3.0]], dtype=complex)
    np.testing.assert_allclose(projective_moment_map(p, rows), [[0.5], [1.0]], rtol=1e-15)
    for bad in (0.0, np.inf):    # the |v|^2 check covers every row
        with pytest.raises(DegenerateInputError):
            projective_moment_map(p, np.array([[1.0, 0.0], [bad, 0.0]]))


def test_moment_stacks_match_one_state_rows(rng):
    # kempf_ness_value relies on this stack contract, the empty stack included
    for _ in range(20):
        p = random_presentation(rng)
        n, k = p.dim_v, p.dim_g
        vs = random_vector(rng, 6 * n).reshape(2, 3, n)
        mu, coeffs, n2 = moment_map(p, vs), *moment_coefficients(p, vs)
        assert mu.shape == coeffs.shape == (2, 3, k) and n2.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            one_mu, (one_c, one_n2) = moment_map(p, vs[i, j]), moment_coefficients(p, vs[i, j])
            assert np.linalg.norm(mu[i, j] - one_mu) <= 1e-15 * np.linalg.norm(one_mu)
            assert np.linalg.norm(coeffs[i, j] - one_c) <= 1e-15 * np.linalg.norm(one_c)
            assert abs(n2[i, j] - one_n2) <= 1e-15 * one_n2
        empty = np.empty((0, n), dtype=complex)
        assert moment_map(p, empty).shape == (0, k)
        c, n2 = moment_coefficients(p, empty)
        assert c.shape == (0, k) and n2.shape == (0,)


def test_projective_moment_map_degenerate_input():
    p = torus_presentation([[1]])
    with pytest.raises(DegenerateInputError):
        projective_moment_map(p, np.array([0.0 + 0j]))
    assert MIN_NORM == 1e-150
    with pytest.raises(DegenerateInputError):
        projective_moment_map(p, np.array([1e-151 + 0j]))


def test_projective_moment_map_nonfinite_input():
    p = torus_presentation([[1]])
    for x in (np.nan, np.inf, 1e200):    # the last one overflows |v|^2
        with pytest.raises(DegenerateInputError):
            projective_moment_map(p, np.array([x + 0j]))


def test_energy_gradient_closed_form_u1():
    p = torus_presentation([[1]])
    v = np.array([1.3 * np.exp(0.7j)])
    f, grad = energy_and_gradient(p, v)
    assert f == pytest.approx(0.25 * abs(v[0]) ** 4, rel=1e-14)
    assert np.linalg.norm(grad) == pytest.approx(abs(v[0]) ** 3, rel=1e-13)


def test_energy_gradient_zero_and_critical():
    p = torus_presentation([[1], [-1]])
    f, grad = energy_and_gradient(p, np.zeros(2, dtype=complex))
    assert f == 0.0 and np.all(grad == 0)
    # mu = 0 on the balanced vector: critical point
    v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    f, grad = energy_and_gradient(p, v)
    assert f <= 1e-30
    assert np.linalg.norm(grad) <= 1e-15


def test_gradient_matches_finite_differences(rng):
    for _ in range(40):
        p = random_presentation(rng)
        v = random_vector(rng, p.dim_v)
        _, grad = energy_and_gradient(p, v)
        ref = fd_gradient(p, v)
        denom = max(np.linalg.norm(ref), 1e-12)
        assert np.linalg.norm(grad - ref) / denom <= 1e-6


# -- Kempf-Ness quadrature ----------------------------------------------------

def _exp_path(generator, taus):
    return [scipy.linalg.expm(t * generator) for t in taus]


def test_kempf_ness_constant_path_is_zero():
    p = torus_presentation([[1]])
    path = [np.eye(1, dtype=complex)] * 5
    assert kempf_ness_value(p, np.array([1.0 + 0j]), path) == 0.0


def test_kempf_ness_projectivized_scalar_value():
    # path e^t on the weight-1 line: log|e v|^2 - log|v|^2 = 2
    p = torus_presentation([[1]])
    v0 = np.array([1.5 - 0.5j])
    path = _exp_path(np.array([[1.0 + 0j]]), np.linspace(0, 1, 201))
    assert kempf_ness_value(p, v0, path) == pytest.approx(2.0, abs=1e-9)


def test_kempf_ness_roundtrip_closedness():
    p = torus_presentation([[1], [2]])
    gen = np.diag([0.7 + 0.2j, -0.4 + 0.5j])
    taus = np.linspace(0, 1, 301)
    path = _exp_path(gen, taus)
    closed = path + path[-2::-1]
    v0 = np.array([1.0, 1.0 - 0.3j])
    assert abs(kempf_ness_value(p, v0, closed)) <= 1e-9


def test_kempf_ness_path_independence(rng):
    # two homotopic sampled paths with equal endpoints agree
    p = su2_presentation()
    a = p.matrix(rng.standard_normal(3)) + 0.5j * p.matrix(rng.standard_normal(3))
    v0 = random_vector(rng, 2)
    taus = np.linspace(0, 1, 701)
    direct = _exp_path(a, taus)
    # same endpoint reached with a different speed profile
    crooked = _exp_path(a, taus**2)
    va = kempf_ness_value(p, v0, direct)
    vb = kempf_ness_value(p, v0, crooked)
    assert va == pytest.approx(vb, abs=2e-6)


def test_kempf_ness_matches_log_norm_nonabelian(rng):
    p = su2_presentation()
    herm = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    herm = 0.25 * (herm + herm.conj().T)
    herm -= np.trace(herm) / 2 * np.eye(2)
    v0 = random_vector(rng, 2)
    path = _exp_path(herm, np.linspace(0, 1, 1001))
    got = kempf_ness_value(p, v0, path)
    w = path[-1] @ v0
    want = np.log(np.vdot(w, w).real) - np.log(np.vdot(v0, v0).real)
    assert got == pytest.approx(want, abs=1e-6)


def test_kempf_ness_contract_violations():
    p = torus_presentation([[1]])
    v0 = np.array([1.0 + 0j])
    with pytest.raises(ContractViolationError):
        kempf_ness_value(p, v0, _exp_path(np.array([[1.0 + 0j]]), [0.5, 1.0]))
    with pytest.raises(ContractViolationError):
        # two coarse samples: displacement far above the sampling contract
        kempf_ness_value(p, v0, _exp_path(np.array([[1.0 + 0j]]), [0.0, 1.0]))


def test_kempf_ness_empty_and_nonfinite_paths():
    p = torus_presentation([[1]])
    v0 = np.array([1.0 + 0j])
    with pytest.raises(ContractViolationError):
        kempf_ness_value(p, v0, [])
    path = _exp_path(np.array([[1.0 + 0j]]), np.linspace(0, 1, 201))
    path[100] = np.array([[np.nan + 0j]])
    with pytest.raises(ContractViolationError):
        kempf_ness_value(p, v0, path)


def test_kempf_ness_nonfinite_start_vector():
    p = torus_presentation([[1]])
    with pytest.raises(ContractViolationError):
        kempf_ness_value(p, np.array([np.nan + 0j]), [np.eye(1), 1.001 * np.eye(1)])


def test_kempf_ness_path_of_mismatched_shapes():
    p = torus_presentation([[1]])
    with pytest.raises(ContractViolationError):
        kempf_ness_value(p, np.array([1.0 + 0j]), [np.eye(1), np.eye(2)])


def test_kempf_ness_single_sample_is_zero():
    p = torus_presentation([[1]])
    assert kempf_ness_value(p, np.array([1.0 + 0j]), [np.eye(1, dtype=complex)]) == 0.0


def test_step_logs_match_scipy_logm(rng):
    # the series for log(I + E) against scipy's logm on steps meeting the contract
    for n in range(1, 9):
        xs = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
        xs *= (1.5 * H_PATH * rng.uniform(0.0, 1.0, 6)
               / np.linalg.norm(xs, 2, axis=(1, 2)))[:, None, None]
        es = np.stack([scipy.linalg.expm(x) for x in xs]) - np.eye(n)
        got = _step_logs(es)
        for e, x in zip(es, got):
            np.testing.assert_allclose(x, scipy.linalg.logm(np.eye(n) + e), rtol=0, atol=1e-14)


def test_kempf_ness_step_bound_before_the_log():
    # |E| above expm1(1.5 H_PATH) is refused; just below it, the step passes
    p = torus_presentation([[1]])
    v0 = np.array([1.0 + 0j])
    bound = np.expm1(1.5 * H_PATH)
    with pytest.raises(ContractViolationError):
        kempf_ness_value(p, v0, [np.eye(1), np.array([[1.0 + bound * (1 + 1e-9)]])])
    e = bound * (1 - 1e-9)
    # log|(1 + e) v0|^2 - log|v0|^2, which the midpoint rule gets exactly here
    assert kempf_ness_value(p, v0, [np.eye(1), np.array([[1.0 + e]])]) == pytest.approx(
        2 * np.log1p(e), rel=1e-12)
    # at E = 1.3149..., ten terms of the series sum to 0: only the bound on E sees it
    roots = np.roots([(-1) ** (j + 1) / j for j in range(10, 0, -1)] + [0.0])
    e = max(r.real for r in roots if abs(r.imag) < 1e-12)
    with pytest.raises(ContractViolationError):
        kempf_ness_value(p, v0, [np.eye(1), np.array([[1.0 + e]])])
    # a nilpotent E has log(I + E) = E: under the E bound, over the step bound
    p2 = torus_presentation([[1], [2]])
    step = np.eye(2, dtype=complex) + [[0.0, 0.0151], [0.0, 0.0]]
    with pytest.raises(ContractViolationError):
        kempf_ness_value(p2, np.array([1.0, 1.0 + 0j]), [np.eye(2), step])
