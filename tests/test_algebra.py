from dataclasses import fields

import numpy as np
import pytest
from conftest import conjugate_coords, random_presentation
from hypothesis import given, settings
from hypothesis import strategies as st

from momentflow.algebra import (GroupPresentation, bracket, direct_sum_presentation,
                                matrix_presentation, su2_presentation, su2_sym_presentation,
                                sym_power_generator, torus_presentation,
                                trace_metric, un_presentation,
                                validate_presentation)
from momentflow.errors import DomainError, StructuralError
from momentflow.linalg import expm
from momentflow.normal_form import _ad_matrix, _dexp_left


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
    p = GroupPresentation(basis=basis, metric=np.eye(1))
    report = validate_presentation(p)
    assert not report.ok
    assert report.skewness == pytest.approx(2.0)


def test_presentation_shape_mismatch_raises():
    with pytest.raises(StructuralError, match="square"):
        GroupPresentation(basis=np.zeros((1, 2, 3), dtype=complex), metric=np.eye(1))
    with pytest.raises(StructuralError):
        GroupPresentation(basis=np.zeros((0, 2, 2), dtype=complex), metric=np.eye(0))


def test_presentation_reads_its_size_off_the_basis_and_validates_once():
    assert [f.name for f in fields(GroupPresentation)] == ["basis", "metric", "kind"]
    p = su2_sym_presentation(3)
    assert (p.dim_v, p.dim_g) == (4, 3)
    assert validate_presentation(p) is validate_presentation(p)


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
    for k in (1, 2):
        with pytest.raises(StructuralError):
            torus_presentation(np.zeros((0, k)))


@pytest.mark.parametrize("metric", [[[0.0]], [[-1.0]], [[np.nan]],
                                    [[1.0, 0.5], [0.0, 1.0]]],
                         ids=["singular", "negative", "nan", "asymmetric"])
def test_presentation_metric_must_be_symmetric_positive_definite(metric):
    basis = su2_presentation().basis[:len(metric)]
    with pytest.raises(DomainError, match="symmetric positive-definite"):
        GroupPresentation(basis=basis, metric=metric)


def test_trace_metric_of_a_hermitian_basis_is_refused():
    # -tr(xi^2) < 0 for a Hermitian xi: the default metric is not positive
    with pytest.raises(DomainError):
        matrix_presentation(np.array([np.diag([1.0, 0.0])], dtype=complex))


def test_exp_group_basics():
    np.testing.assert_allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    got = expm(1j * np.diag([np.pi, np.pi]))
    np.testing.assert_allclose(got, -np.eye(2), atol=1e-12)


@pytest.mark.parametrize("t", [0.1, 0.7, 2.0, -1.3])
def test_exp_group_matches_rotation_closed_form(t):
    # for traceless 2x2 A with A^2 = -theta^2 I: exp(tA) = cos(t theta) I + sin(t theta)/theta A
    p = su2_presentation()
    a = p.basis[0] + 0.5 * p.basis[2]
    theta = np.sqrt(np.linalg.det(a).real)
    expected = np.cos(t * theta) * np.eye(2) + np.sin(t * theta) / theta * a
    np.testing.assert_allclose(expm(t * a), expected, atol=1e-12)


def test_exp_group_accurate_up_to_norm_ten(rng):
    # scaling-and-squaring contract: 1e-12 relative in operator norm for
    # inputs with norm <= 10, checked against the rotation closed form
    p = su2_presentation()
    a = p.basis[1]          # operator norm 1/2
    for scale in (6.0, 12.0, 19.9):   # |scale * a| up to ~10
        theta = scale * 0.5
        expected = np.cos(theta) * np.eye(2) + np.sin(theta) / theta * (scale * a)
        got = expm(scale * a)
        rel = np.linalg.norm(got - expected, 2) / np.linalg.norm(expected, 2)
        assert rel <= 1e-12


def test_exp_group_inverse_property(rng):
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = 0.5 * (a - a.conj().T)
        prod = expm(a) @ expm(-a)
        assert np.linalg.norm(prod - np.eye(4)) <= 1e-12


def test_exp_group_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        expm(np.zeros((2, 3)))


def _ad_exp(p, x):
    """Ad_{exp(x)} on g-coordinates as the real k x k matrix exp(ad_x)."""
    return expm(_ad_matrix(p, np.asarray(x, dtype=float)))


def test_adjoint_identity_and_torus():
    p = torus_presentation([[1, 0], [0, 1], [1, 1]])
    xi = np.array([0.3, -1.2])
    np.testing.assert_allclose(_ad_exp(p, [0.0, 0.0]) @ xi, xi, atol=1e-14)
    # an abelian algebra: ad_x = 0, so Ad_g is the identity exactly
    assert np.array_equal(_ad_exp(p, [0.5, 0.25]) @ xi, xi)
    np.testing.assert_allclose(conjugate_coords(p, expm(p.matrix([0.5, 0.25])), xi), xi,
                               atol=1e-12)


def test_adjoint_su2_rotation():
    # Ad along exp(theta xi_1) rotates (xi_2, xi_3): at theta = pi/2,
    # xi_2 -> -xi_3 and xi_3 -> +xi_2 for the [xi_1, xi_2] = -xi_3 basis
    p = su2_presentation()
    ad = _ad_exp(p, [np.pi / 2, 0.0, 0.0])
    np.testing.assert_allclose(ad @ [0, 1, 0], [0, 0, -1], atol=1e-12)
    np.testing.assert_allclose(ad @ [0, 0, 1], [0, 1, 0], atol=1e-12)


def test_adjoint_composition(rng):
    # Ad_{g1 g2} by conjugation equals exp(ad_x1) exp(ad_x2)
    p = su2_sym_presentation(3)
    for _ in range(5):
        x1, x2 = rng.standard_normal(3), rng.standard_normal(3)
        xi = rng.standard_normal(3)
        lhs = conjugate_coords(p, expm(p.matrix(x1)) @ expm(p.matrix(x2)), xi)
        rhs = _ad_exp(p, x1) @ (_ad_exp(p, x2) @ xi)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_adjoint_empty_batch():
    # an empty stack of points gives an empty stack of Ad matrices
    p = su2_presentation()
    x = np.zeros((0, 3))
    assert _ad_exp(p, x).shape == (0, 3, 3)
    assert (_ad_exp(p, x) @ x[..., None]).shape == (0, 3, 1)
    assert [b.shape for b in _dexp_left(p, x)] == [(0, 3, 3), (0, 3, 3)]


def test_adjoint_outside_algebra_raises():
    # the conjugation reference rejects a g that does not normalize the algebra
    p = torus_presentation([[1], [2]])
    # a shear does not normalize the diagonal algebra
    g = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(DomainError):
        conjugate_coords(p, g, [1.0])
    # a non-unitary scaling maps su(2) onto traceless non-skew matrices
    g = np.diag([2.0, 1.0]).astype(complex)
    with pytest.raises(DomainError):
        conjugate_coords(su2_presentation(), g, [1.0, 0.0, 0.0])


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


def test_sym_power_generator_past_float_binomials():
    # binomial(1100, j) exceeds the float range for j near 550; the
    # generator of i sigma_x / 2 still has the weights i (d/2 - j)
    d = 1100
    gen = sym_power_generator(0.5j * np.array([[0.0, 1.0], [1.0, 0.0]]), d)
    assert np.all(np.isfinite(gen))
    np.testing.assert_allclose(gen + gen.conj().T, 0.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.eigvalsh(-1j * gen),
                               d / 2 - np.arange(d + 1)[::-1], atol=1e-9 * d)


def _lstsq_coords(basis, target):
    """Reference expansion: real least squares on stacked real/imaginary parts."""
    cols = basis.reshape(basis.shape[0], -1).T
    a = np.vstack([cols.real, cols.imag])
    b = np.concatenate([target.ravel().real, target.ravel().imag])
    return np.linalg.lstsq(a, b, rcond=None)[0]


def test_structure_tensor_matches_lstsq(rng):
    # (i sigma_x/2, i sigma_y/2) is not closed: [xi_x, xi_y] = -i sigma_z/2 lies
    # wholly outside the span, a residual of 1/sqrt(2)
    open_pair = matrix_presentation(su2_presentation().basis[:2])
    for p in [random_presentation(rng) for _ in range(20)] + [open_pair]:
        closure = 0.0
        for a in range(p.dim_g):
            for b in range(p.dim_g):
                comm = p.basis[a] @ p.basis[b] - p.basis[b] @ p.basis[a]
                np.testing.assert_allclose(p.structure[a, b],
                                           _lstsq_coords(p.basis, comm), atol=1e-12)
                closure = max(closure, np.linalg.norm(comm - p.matrix(p.structure[a, b])))
        # the validation reports the residual of the structure tensor's own expansion
        scale = np.linalg.norm(p.basis, axis=(1, 2)).max() ** 2
        assert abs(validate_presentation(p).bracket_closure - closure) <= 1e-14 * scale
    report = validate_presentation(open_pair)
    assert report.bracket_closure == pytest.approx(1 / np.sqrt(2), rel=1e-15)
    assert not report.ok


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_coordinate_bracket_is_the_matrix_commutator(seed):
    # matrix() is a Lie-algebra homomorphism on the coordinate bracket, which
    # the lift's Magnus exponent in g-coordinates rests on
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    x, y = rng.standard_normal((2, 3, p.dim_g))
    got = p.matrix(bracket(p, x, y))
    xm, ym = p.matrix(x), p.matrix(y)
    want = xm @ ym - ym @ xm
    scale = np.linalg.norm(xm, axis=(1, 2)) * np.linalg.norm(ym, axis=(1, 2))
    assert (np.linalg.norm(got - want, axis=(1, 2)) <= 1e-12 * scale).all()
    np.testing.assert_array_equal(bracket(p, y, x), -bracket(p, x, y))


def _loop_trace_metric(basis):
    """-Re tr(xi_a xi_b) one product at a time, the reference."""
    k = len(basis)
    g = np.empty((k, k))
    for a in range(k):
        for b in range(a, k):
            g[a, b] = g[b, a] = -np.trace(basis[a] @ basis[b]).real
    return g


def test_trace_metric_is_exactly_symmetric_and_matches_the_product_loop():
    sym = su2_sym_presentation
    for p in (su2_presentation(), sym(2), sym(3), sym(4), sym(6), un_presentation(3),
              un_presentation(4), direct_sum_presentation([sym(2), sym(2)]),
              direct_sum_presentation([sym(2), sym(4)])):
        g = trace_metric(p.basis)
        np.testing.assert_array_equal(g, g.T)
        np.testing.assert_array_equal(g, _loop_trace_metric(p.basis))


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
        # a stack is checked matrix by matrix, each against its own size, so a
        # large in-span matrix does not hide an off-span one
        stack = np.stack([xi, 2.0 * xi, 1e-3 * xi])
        np.testing.assert_allclose(p.coords_of(stack, tol=1e-10),
                                   [_lstsq_coords(p.basis, m) for m in stack], atol=1e-12)
        with pytest.raises(DomainError):
            p.coords_of(np.stack([1e12 * xi, off]), tol=1e-10)
