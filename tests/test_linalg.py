"""The batched matrix exponential against scipy.linalg.expm as the reference."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from momentflow.linalg import expm, hermitian_part


def _norm1(a):
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _matrix(rng, n, norm, complex_):
    """A random n x n matrix of 1-norm ``norm`` whose eigenvalues have
    negative real parts, so e^A stays in float range at every norm."""
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    a -= (np.linalg.eigvals(a).real.max() + 1.0) * np.eye(n)
    return a * (norm / _norm1(a))


def _assert_close_to_scipy(a):
    """|e^A - ref| / max(1, |e^A|) <= 1e-12 max(1, |A|) in the 1-norm."""
    ref = np.stack([scipy.linalg.expm(x) for x in a.reshape((-1,) + a.shape[-2:])])
    got = expm(a).reshape(ref.shape)
    err = _norm1(got - ref) / np.maximum(1.0, _norm1(ref))
    assert np.all(err <= 1e-12 * np.maximum(1.0, _norm1(a.reshape(ref.shape)))), err.max()


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("n", range(1, 11))
def test_matches_scipy_over_sizes_and_norms(rng, n, complex_):
    norms = 10.0 ** np.arange(-8, 4)
    a = np.stack([_matrix(rng, n, c, complex_) for c in norms for _ in range(3)])
    got = expm(a)
    assert got.dtype == (complex if complex_ else float)
    _assert_close_to_scipy(a)


def test_mixed_norms_are_scaled_one_by_one(rng):
    # s = 0, 0 and 3: the squaring loop must leave the first two alone
    a = np.stack([_matrix(rng, 4, c, True) for c in (1e-6, 1.0, 30.0)])
    _assert_close_to_scipy(a)
    stack = expm(a)
    for x, e in zip(a, stack):
        single = expm(x)
        assert _norm1(e - single) <= 1e-14 * max(1.0, _norm1(single))


# theta_m of the Pade degrees 3, 5, 7, 9 and 13 (Higham 2005, Table 2.3)
_THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
           2.097847961257068e0, 5.371920351148152e0)


@pytest.mark.parametrize("theta", _THETAS)
@pytest.mark.parametrize("side", [0.9, 1.1])
def test_pade_degree_on_both_sides_of_each_theta(rng, theta, side):
    # the stack's largest 1-norm picks the degree; just below theta_m the
    # degree m must still give double precision, just above it the next
    for n in (2, 3, 6, 8):
        a = np.stack([_matrix(rng, n, theta * side, True) for _ in range(8)])
        ref = np.stack([scipy.linalg.expm(x) for x in a])
        err = _norm1(expm(a) - ref) / _norm1(ref)
        assert err.max() <= 4e-15


def test_stack_of_mixed_norms_takes_the_degree_of_its_largest(rng):
    # one matrix on each side of every theta_m in one stack: the degree is
    # that of the largest, and every matrix keeps double precision
    norms = [t * side for t in _THETAS for side in (0.5, 0.9, 1.1)]
    a = np.stack([_matrix(rng, 5, c, True) for c in norms])
    _assert_close_to_scipy(a)
    for x, e in zip(a, expm(a)):
        ref = scipy.linalg.expm(x)
        assert _norm1(e - ref) <= 4e-15 * _norm1(ref)


def test_tiny_matrix_beside_large_one_is_not_overscaled(rng):
    # the norm-1e3 matrix needs s = 8; scaling a tiny A by 2^-8 and squaring
    # back would cost about 2^8 ulps in e^A - I, unscaled it costs a few
    tiny = [_matrix(rng, 4, 1e-6, True) for _ in range(5)]
    stack = expm(np.stack(tiny + [_matrix(rng, 4, 1e3, True)]))
    for a, e in zip(tiny, stack):
        taylor = a + a @ a / 2 + a @ a @ a / 6
        assert np.abs(e - np.eye(4) - taylor).max() <= 2e-15


def test_diagonal_stacks_exponentiate_entrywise(rng):
    d = 10.0 * rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    a = d[..., None] * np.eye(5)
    e = expm(a)
    np.testing.assert_array_equal(np.diagonal(e, axis1=-2, axis2=-1), np.exp(d))
    assert np.count_nonzero(e) == d.size
    # one full matrix in the stack sends all of it through the Pade path
    _assert_close_to_scipy(np.concatenate([a, _matrix(rng, 5, 1.0, True)[None]]))


def test_skew_hermitian_gives_unitary(rng):
    x = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    u = expm(3.0 * (x - np.swapaxes(x.conj(), -1, -2)))
    err = np.abs(u @ np.swapaxes(u.conj(), -1, -2) - np.eye(6)).max()
    assert err <= 1e-13


def test_shapes_and_dtypes():
    assert expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)
    assert expm(np.zeros((2, 0, 0), dtype=complex)).dtype == complex
    got = expm(np.array([[0, 1], [0, 0]]))    # integer input, 2-D
    assert got.dtype == float
    np.testing.assert_allclose(got, [[1.0, 1.0], [0.0, 1.0]], rtol=0, atol=1e-15)
    stack = np.arange(2 * 3 * 2 * 2, dtype=float).reshape(2, 3, 2, 2) / 10
    assert expm(stack).shape == stack.shape
    np.testing.assert_allclose(expm(stack)[1, 2], scipy.linalg.expm(stack[1, 2]),
                               rtol=1e-13)
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        expm(np.zeros(3))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), n=st.integers(1, 8),
       log_norm=st.floats(-8.0, 2.0), complex_=st.booleans())
def test_random_stacks_match_scipy(seed, m, n, log_norm, complex_):
    rng = np.random.default_rng(seed)
    # each matrix of the stack gets its own norm around 10^log_norm
    norms = 10.0 ** (log_norm + rng.uniform(-1.0, 1.0, m))
    _assert_close_to_scipy(np.stack([_matrix(rng, n, c, complex_) for c in norms]))


def test_hermitian_part_of_a_stack(rng):
    a = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    got = hermitian_part(a)
    for h, x in zip(got, a):
        np.testing.assert_array_equal(h, hermitian_part(x))
        np.testing.assert_array_equal(h, 0.5 * (x + x.conj().T))
