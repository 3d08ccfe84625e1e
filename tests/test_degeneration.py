import numpy as np
import pytest

from momentflow.algebra import (matrix_presentation, su2_presentation,
                                su2_sym_presentation, torus_presentation)
from momentflow.builtins import get_builtin
from momentflow.degeneration import (ANGLE_TOL, diagonal_torus,
                                     hermitian_generator, limit_direction,
                                     oracle_angle, torus_oracle)
from momentflow.errors import DomainError, StructuralError
from momentflow.flow import FlowOptions, integrate_projective
from momentflow.rational import rationalize_direction


def test_oracle_single_weight():
    res = torus_oracle([[1]])
    assert not res.semistable
    np.testing.assert_allclose(res.beta, [1.0])
    assert res.support_face == (0,)


def test_oracle_c3_closest_point():
    res = torus_oracle([[1, 0], [0, 1], [1, 1]])
    assert not res.semistable
    np.testing.assert_allclose(res.beta, [0.5, 0.5], atol=1e-12)
    assert res.support_face == (0, 1)
    # brute force sanity: the value is the min over a dense hull sample
    rng = np.random.default_rng(0)
    w = np.array([[1, 0], [0, 1], [1, 1.0]])
    lams = rng.dirichlet([1, 1, 1], size=20000)
    dense = np.min(np.einsum("ij,ij->i", lams @ w, lams @ w))
    assert res.min_norm_sq <= dense + 1e-12


def test_oracle_semistable_symmetric_weights():
    res = torus_oracle([[1, 0], [-1, 0]])
    assert res.semistable
    assert res.beta is None


def test_oracle_interval_interior_vertex():
    res = torus_oracle([[1], [2]])
    np.testing.assert_allclose(res.beta, [1.0])


def test_oracle_support_restriction():
    res = torus_oracle([[2], [1], [0], [-1], [-2]], support=(0, 1))
    np.testing.assert_allclose(res.beta, [1.0])
    # full support is semistable
    assert torus_oracle([[2], [1], [0], [-1], [-2]]).semistable


def test_diagonal_torus_of_sym_power_is_the_sym_power_weights():
    # the maximal torus of su(2) on Sym^4, restricted to the support of the
    # su2_symd start vector
    weights, support, embedding = diagonal_torus(su2_sym_presentation(4),
                                                 get_builtin("su2_symd").v0)
    np.testing.assert_array_equal(weights, [[2], [1], [0], [-1], [-2]])
    assert support == (0, 1) and all(type(j) is int for j in support)
    np.testing.assert_array_equal(embedding, [[0], [0], [1]])


def test_diagonal_torus_of_a_torus_presentation_is_its_weights():
    w = [[1, 0], [0.5, -2], [1, 1]]
    weights, support, embedding = diagonal_torus(torus_presentation(w),
                                                 np.array([1.0, 0.0, 1j]))
    np.testing.assert_array_equal(weights, w)
    assert support == (0, 2)
    np.testing.assert_array_equal(embedding, np.eye(2))


def test_diagonal_torus_needs_a_diagonal_basis_element():
    # i sigma_x / 2 and i sigma_y / 2 alone: no basis element is diagonal
    p = matrix_presentation(su2_presentation().basis[:2])
    with pytest.raises(StructuralError):
        diagonal_torus(p, np.ones(2))


def test_oracle_size_limit():
    weights = [[i] for i in range(1, 13)]
    with pytest.raises(StructuralError):
        torus_oracle(weights)
    with pytest.raises(StructuralError):
        torus_oracle([[1]], support=())


def test_oracle_refinement_consistency():
    # adding hull-interior points (pairwise midpoints) cannot change beta
    w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    base = torus_oracle(w)
    mids = [(w[i] + w[j]) / 2 for i in range(3) for j in range(i + 1, 3)]
    refined = torus_oracle(np.vstack([w, mids]))
    np.testing.assert_allclose(base.beta, refined.beta, atol=1e-12)
    assert base.min_norm_sq == pytest.approx(refined.min_norm_sq, abs=1e-14)


def _converged_projective(weights, v0, **kw):
    p = torus_presentation(weights)
    v0 = np.asarray(v0, dtype=complex)
    traj = integrate_projective(p, v0, FlowOptions(t_max=1e6, **kw))
    return p, traj


def test_limit_direction_single_weight_line():
    p, traj = _converged_projective([[1], [2]], [1.0, 0.0])
    rep = limit_direction(p, traj)
    np.testing.assert_allclose(rep.limit_direction, [1.0], atol=1e-12)
    assert rep.verdict == "no_oracle"
    ints, den = rep.rational_approx
    assert tuple(ints) == (1,)


def test_limit_direction_requires_convergence():
    p = torus_presentation([[1], [2]])
    traj = integrate_projective(p, np.array([1.0, 1.0]) / np.sqrt(2),
                                FlowOptions(t_max=0.5))
    with pytest.raises(DomainError):
        limit_direction(p, traj)


def test_limit_matches_oracle_two_weights():
    p, traj = _converged_projective([[1], [2]], [1.0, 1.0])
    rep = limit_direction(p, traj)
    res = torus_oracle([[1], [2]])
    assert oracle_angle(rep.limit_direction, res.beta) <= ANGLE_TOL


def test_limit_matches_oracle_c3():
    p, traj = _converged_projective([[1, 0], [0, 1], [1, 1]], [1.0, 1.0, 1.0])
    rep = limit_direction(p, traj)
    res = torus_oracle([[1, 0], [0, 1], [1, 1]])
    assert oracle_angle(rep.limit_direction, res.beta) <= ANGLE_TOL
    np.testing.assert_allclose(rep.limit_direction, np.array([1, 1]) / np.sqrt(2),
                               atol=1e-6)


def test_limit_scaling_invariance():
    ps = []
    for c in (1.0, 7.3, 0.01, -2.0):
        p, traj = _converged_projective([[1, 0], [0, 1], [1, 1]],
                                        c * np.array([1.0, 1.0, 1.0]))
        ps.append(limit_direction(p, traj).limit_direction)
    for d in ps[1:]:
        np.testing.assert_allclose(d, ps[0], atol=1e-6)


def test_mismatch_negative_control():
    # deliberately wrong oracle input: a scrambled weight list whose hull has
    # a different closest point must be flagged
    p, traj = _converged_projective([[1, 0], [0, 1], [1, 1]], [1.0, 1.0, 1.0])
    rep = limit_direction(p, traj)
    wrong = torus_oracle([[1, 0], [2, 0], [2, 2]])
    np.testing.assert_allclose(wrong.beta, [1.0, 0.0])
    assert oracle_angle(rep.limit_direction, wrong.beta) > ANGLE_TOL


def test_hermitian_generator_convention():
    # +beta maps to the collapsing generator -diag(<beta, w_m>), normalized
    p = torus_presentation([[1, 0], [0, 1], [1, 1]])
    gen = hermitian_generator(p, np.array([0.5, 0.5]))
    expected = -np.diag([0.5, 0.5, 1.0])
    expected /= np.linalg.norm(expected)
    np.testing.assert_allclose(gen, expected, atol=1e-14)


def test_certify_rational_examples():
    ints, den = rationalize_direction(np.array([1.0, 1.0]) / np.sqrt(2))
    assert tuple(ints) == (1, 1) and den == 1
    ints, den = rationalize_direction(np.array([1.0, 2.0]) / np.sqrt(5))
    assert tuple(ints) == (1, 2)
    ints, den = rationalize_direction(np.array([-1.0, -1.0]) / np.sqrt(2))
    assert tuple(ints) == (-1, -1)


def test_certify_rational_honest_failure():
    # a ratio at least 3e-3 away from every p/q with q <= 64: certification
    # at the 1e-3 angle tolerance must refuse
    d = np.array([1.0, 0.504])
    d /= np.linalg.norm(d)
    assert rationalize_direction(d) is None


def test_certify_rational_noise_negative_control():
    d = np.array([1.0, 1.0]) / np.sqrt(2)
    noisy = d + np.array([7e-3, -8e-3])
    noisy /= np.linalg.norm(noisy)
    # the perturbation is ~1e-2 in angle: certification at 1e-3 must refuse
    got = rationalize_direction(noisy)
    if got is not None:
        ints, _ = got
        cand = np.array(ints, dtype=float)
        cosang = abs(cand @ d) / (np.linalg.norm(cand))
        assert np.arccos(min(1.0, cosang)) > 0  # never silently (1,1) again
        assert tuple(ints) != (1, 1)


def test_limit_inconsistency_on_semistable_flagged_destabilized():
    # a semi-stable input flagged as destabilized contradicts the nonzero
    # limit property and must be reported as an inconsistency
    from momentflow.errors import InconsistencyError

    p = torus_presentation([[1], [-1]])
    v0 = np.array([1.0, 0.7], dtype=complex)
    traj = integrate_projective(p, v0, FlowOptions(t_max=1e6))
    assert traj.converged()
    with pytest.raises(InconsistencyError):
        limit_direction(p, traj)
