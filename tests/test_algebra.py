import numpy as np
import pytest
from conftest import random_presentation

from momentflow.algebra import (GroupPresentation, WeightSystem, adjoint_coadjoint,
                                exp_group, matrix_presentation, su2_presentation,
                                su2_sym_presentation, torus_presentation,
                                trace_metric, un_presentation, validate_presentation)
from momentflow.errors import DomainError, StructuralError


def test_validate_diagonal_ok():
    p = torus_presentation([[1], [1]])
    report = validate_presentation(p)
    assert report.ok
    assert report.skewness == 0.0
    assert report.bracket_closure == 0.0
    assert report.ad_invariance == 0.0


def test_validate_su2_structure():
    p = su2_presentation()
    report = validate_presentation(p)
    assert report.ok
    assert report.skewness <= 1e-14
    assert report.bracket_closure <= 1e-14
    # structure constants of the i*sigma/2 basis: [xi_a, xi_b] = -eps_abc xi_c
    comm = p.basis[0] @ p.basis[1] - p.basis[1] @ p.basis[0]
    np.testing.assert_allclose(p.structure[0, 1], [0.0, 0.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(p.coords_of(comm, tol=1e-14), [0.0, 0.0, -1.0],
                               atol=1e-14)


def test_validate_rejects_hermitian_generator():
    basis = np.array([np.diag([1.0, 0.0])], dtype=complex)
    p = GroupPresentation(dim_v=2, basis=basis, metric=np.eye(1))
    report = validate_presentation(p)
    assert not report.ok
    assert report.skewness == pytest.approx(2.0)


def test_presentation_shape_mismatch_raises():
    with pytest.raises(StructuralError):
        GroupPresentation(dim_v=3, basis=np.zeros((1, 2, 2), dtype=complex),
                          metric=np.eye(1))
    with pytest.raises(StructuralError):
        GroupPresentation(dim_v=2, basis=np.zeros((0, 2, 2), dtype=complex),
                          metric=np.eye(0))


def test_torus_presentation_examples():
    p = torus_presentation([[1]])
    np.testing.assert_allclose(p.basis[0], [[1j]])

    p = torus_presentation([[1], [2]])
    np.testing.assert_allclose(p.basis[0], np.diag([1j, 2j]))

    p = torus_presentation([[1, 0], [0, 1], [1, 1]])
    assert p.dim_g == 2
    np.testing.assert_allclose(p.basis[0], np.diag([1j, 0, 1j]))
    np.testing.assert_allclose(p.basis[1], np.diag([0, 1j, 1j]))
    np.testing.assert_allclose(p.metric, np.eye(2))
    assert p.kind == "torus"


def test_torus_empty_weights_raises():
    with pytest.raises(StructuralError):
        WeightSystem(rank=1, weights=np.zeros((0, 1)))


def test_exp_group_basics():
    np.testing.assert_allclose(exp_group(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    got = exp_group(1j * np.diag([np.pi, np.pi]))
    np.testing.assert_allclose(got, -np.eye(2), atol=1e-12)


@pytest.mark.parametrize("t", [0.1, 0.7, 2.0, -1.3])
def test_exp_group_matches_rotation_closed_form(t):
    # for traceless 2x2 A with A^2 = -theta^2 I: exp(tA) = cos(t theta) I + sin(t theta)/theta A
    p = su2_presentation()
    a = p.basis[0] + 0.5 * p.basis[2]
    theta = np.sqrt(np.linalg.det(a).real)
    expected = np.cos(t * theta) * np.eye(2) + np.sin(t * theta) / theta * a
    np.testing.assert_allclose(exp_group(t * a), expected, atol=1e-12)


def test_exp_group_accurate_up_to_norm_ten(rng):
    # scaling-and-squaring contract: 1e-12 relative in operator norm for
    # inputs with norm <= 10, checked against the rotation closed form
    p = su2_presentation()
    a = p.basis[1]          # operator norm 1/2
    for scale in (6.0, 12.0, 19.9):   # |scale * a| up to ~10
        theta = scale * 0.5
        expected = np.cos(theta) * np.eye(2) + np.sin(theta) / theta * (scale * a)
        got = exp_group(scale * a)
        rel = np.linalg.norm(got - expected, 2) / np.linalg.norm(expected, 2)
        assert rel <= 1e-12


def test_exp_group_inverse_property(rng):
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = 0.5 * (a - a.conj().T)
        prod = exp_group(a) @ exp_group(-a)
        assert np.linalg.norm(prod - np.eye(4)) <= 1e-12


def test_exp_group_rejects_nonsquare():
    with pytest.raises(StructuralError):
        exp_group(np.zeros((2, 3)))


def test_adjoint_identity_and_torus():
    p = torus_presentation([[1, 0], [0, 1], [1, 1]])
    xi = np.array([0.3, -1.2])
    np.testing.assert_allclose(adjoint_coadjoint(p, np.eye(3), xi), xi, atol=1e-14)
    g = exp_group(p.matrix([0.5, 0.25]))
    np.testing.assert_allclose(adjoint_coadjoint(p, g, xi), xi, atol=1e-12)


def test_adjoint_su2_rotation():
    # Ad along exp(theta xi_1) rotates (xi_2, xi_3): at theta = pi/2,
    # xi_2 -> -xi_3 and xi_3 -> +xi_2 for the [xi_1, xi_2] = -xi_3 basis
    p = su2_presentation()
    g = exp_group(p.matrix([np.pi / 2, 0.0, 0.0]))
    np.testing.assert_allclose(adjoint_coadjoint(p, g, [0, 1, 0]), [0, 0, -1],
                               atol=1e-12)
    np.testing.assert_allclose(adjoint_coadjoint(p, g, [0, 0, 1]), [0, 1, 0],
                               atol=1e-12)


def test_adjoint_composition(rng):
    p = su2_sym_presentation(3)
    for _ in range(5):
        g1 = exp_group(p.matrix(rng.standard_normal(3)))
        g2 = exp_group(p.matrix(rng.standard_normal(3)))
        xi = rng.standard_normal(3)
        lhs = adjoint_coadjoint(p, g1 @ g2, xi)
        rhs = adjoint_coadjoint(p, g1, adjoint_coadjoint(p, g2, xi))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_adjoint_outside_algebra_raises():
    p = torus_presentation([[1], [2]])
    # a shear does not normalize the diagonal algebra
    g = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(DomainError):
        adjoint_coadjoint(p, g, [1.0])
    # a non-unitary scaling maps su(2) onto traceless non-skew matrices
    g = np.diag([2.0, 1.0]).astype(complex)
    with pytest.raises(DomainError):
        adjoint_coadjoint(su2_presentation(), g, [1.0, 0.0, 0.0])


def test_non_orthonormal_basis_routes_through_metric():
    base = su2_presentation()
    skew = np.stack([base.basis[0], base.basis[0] + base.basis[1], base.basis[2]])
    p = matrix_presentation(skew)
    assert validate_presentation(p).ok
    # metric must be the Gram matrix of the modified basis
    np.testing.assert_allclose(p.metric, trace_metric(skew), atol=1e-15)
    coords = p.sharp(p.lower(np.array([0.2, -0.4, 1.0])))
    np.testing.assert_allclose(coords, [0.2, -0.4, 1.0], atol=1e-12)


def test_sym_power_and_un_presentations_validate():
    for degree in (2, 3, 4):
        assert validate_presentation(su2_sym_presentation(degree)).ok
    assert validate_presentation(un_presentation(3)).ok


def _lstsq_coords(basis, target):
    """Reference expansion: real least squares on stacked real/imaginary parts."""
    cols = basis.reshape(basis.shape[0], -1).T
    a = np.vstack([cols.real, cols.imag])
    b = np.concatenate([target.ravel().real, target.ravel().imag])
    return np.linalg.lstsq(a, b, rcond=None)[0]


def test_structure_tensor_matches_lstsq(rng):
    for _ in range(20):
        p = random_presentation(rng)
        for a in range(p.dim_g):
            for b in range(p.dim_g):
                comm = p.basis[a] @ p.basis[b] - p.basis[b] @ p.basis[a]
                np.testing.assert_allclose(p.structure[a, b],
                                           _lstsq_coords(p.basis, comm), atol=1e-12)


def test_coords_of_matches_lstsq_and_rejects_out_of_span(rng):
    for _ in range(20):
        p = random_presentation(rng)
        xi = p.matrix(rng.standard_normal(p.dim_g))
        np.testing.assert_allclose(p.coords_of(xi, tol=1e-10),
                                   _lstsq_coords(p.basis, xi), atol=1e-12)
        # Hermitian matrices are Re-trace orthogonal to every skew-Hermitian one
        off = xi + np.eye(p.dim_v)
        np.testing.assert_allclose(p.coords_of(off), _lstsq_coords(p.basis, off),
                                   atol=1e-12)
        with pytest.raises(DomainError):
            p.coords_of(off, tol=1e-10)
