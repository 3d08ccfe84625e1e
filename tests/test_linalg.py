"""The one matrix exponential, the pair (e^M, phi1(M)) of ``linalg.exp_phi1``,
against scipy.linalg.expm as the reference: e^M directly, phi1(M) as a block
of the Van Loan exponential expm([[M, I], [0, 0]])."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_presentation
from momentflow.linalg import exp_phi1, expm, hermitian_part
from momentflow.normal_form import _ad_matrix, _dexp_left


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


def _van_loan(m):
    """The pair (e^M, phi1(M)) of one n x n matrix from scipy's expm of the
    block [[M, I], [0, 0]]."""
    n = len(m)
    block = scipy.linalg.expm(np.block([[m, np.eye(n)], [np.zeros((n, 2 * n))]]))
    return block[:n, :n], block[:n, n:]


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


# theta_m of the Pade degrees 3, 5, 7, 9 and 13 (Higham 2005, Table 2.3),
# where the reference scipy.linalg.expm switches its degree
_THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
           2.097847961257068e0, 5.371920351148152e0)


@pytest.mark.parametrize("theta", _THETAS)
@pytest.mark.parametrize("side", [0.9, 1.1])
def test_pade_degree_on_both_sides_of_each_theta(rng, theta, side):
    # on both sides of each of the reference's own degree switches, e^A
    # must keep double precision against it
    for n in (2, 3, 6, 8):
        a = np.stack([_matrix(rng, n, theta * side, True) for _ in range(8)])
        ref = np.stack([scipy.linalg.expm(x) for x in a])
        err = _norm1(expm(a) - ref) / _norm1(ref)
        assert err.max() <= 4e-15


# theta_q of the Taylor term counts q = 4, 8, 12, 16 and 20: the largest
# 1-norm x with x^q / (q + 1)! <= 2^-53, the first term left out of phi1
_TAYLOR_THETAS = tuple((math.factorial(q + 1) * 2.0 ** -53) ** (1.0 / q)
                       for q in (4, 8, 12, 16, 20))


@pytest.mark.parametrize("theta", _TAYLOR_THETAS)
@pytest.mark.parametrize("side", [0.9, 1.1, 1.9])
def test_term_count_on_both_sides_of_each_theta(rng, theta, side):
    # the stack's largest scaled 1-norm picks the term count q: just below
    # theta_q, q terms must still give double precision, above it the next
    # count; at 1.9 theta_q a theta_q twice too large would still pick q
    for n in (2, 3, 6, 8):
        a = np.stack([_matrix(rng, n, theta * side, True) for _ in range(8)])
        ex, phi = exp_phi1(a)
        ref_ex, ref_phi = (np.stack(r) for r in zip(*map(_van_loan, a)))
        assert (_norm1(ex - ref_ex) / _norm1(ref_ex)).max() <= 4e-15
        assert (_norm1(phi - ref_phi) / _norm1(ref_phi)).max() <= 4e-15


def test_stack_of_mixed_norms_takes_the_degree_of_its_largest(rng):
    # one matrix on each side of every theta_q in one stack: the term count
    # is that of the largest, and every matrix keeps double precision
    norms = [t * side for t in _TAYLOR_THETAS for side in (0.5, 0.9, 1.1)]
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
    # one full matrix in the stack sends all of it through the Taylor path
    _assert_close_to_scipy(np.concatenate([a, _matrix(rng, 5, 1.0, True)[None]]))


@pytest.mark.parametrize("complex_", [False, True])
def test_diagonal_stacks_take_phi1_entrywise(rng, complex_):
    # phi1 = expm1(d) / d on the diagonal, exactly 1 where d = 0, and the
    # general path on the same stack, with one full matrix, agrees to 1e-15
    d = rng.standard_normal((4, 6)) + (1j * rng.standard_normal((4, 6)) if complex_ else 0)
    d[:, :2] = 0.0
    d[3] = 0.0
    a = d[..., None] * np.eye(6)
    ex, phi = exp_phi1(a)
    np.testing.assert_array_equal(np.diagonal(ex, axis1=-2, axis2=-1), np.exp(d))
    np.testing.assert_array_equal(np.diagonal(phi, axis1=-2, axis2=-1),
                                  np.where(d == 0, 1, np.expm1(d) / np.where(d == 0, 1, d)))
    assert np.all(np.diagonal(phi, axis1=-2, axis2=-1)[:, :2] == 1.0)
    assert np.count_nonzero(ex) == np.count_nonzero(phi) == d.size
    assert np.array_equal(ex[3], np.eye(6)) and np.array_equal(phi[3], np.eye(6))
    full = np.concatenate([a, _matrix(rng, 6, 0.5, complex_)[None]])
    for got, general in zip((ex, phi), exp_phi1(full)):
        assert np.abs(got - general[:-1]).max() <= 1e-15 * np.abs(got).max()


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


@settings(derandomize=True, max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.one_of(st.just(0.0), st.floats(0.0, 50.0)))
@example(seed=0, size=0.0)      # u(3) at x = 0
@example(seed=11, size=30.0)    # a circle: abelian
@example(seed=0, size=50.0)     # u(3): seven doublings
@example(seed=206293, size=2.2250738585e-313)    # subnormal 1 x 1 stacks: phi1 = 1
def test_exp_phi1_matches_the_van_loan_block(seed, size):
    # (e^M, phi1(M)) against the blocks of scipy's expm([[M, I], [0, 0]]):
    # at M = -ad_x of a random presentation, and on a real and a complex
    # stack of 1-norms up to |x|; past |M|_1 = 1 the doublings run. At x = 0
    # and on an abelian algebra M = 0 and the pair is exactly (I, I). The
    # metric is Ad-invariant, so G^-1 (e^M)^T G is the inverse of e^M.
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    k = p.dim_g
    x = rng.standard_normal(k)
    x *= size / max(np.linalg.norm(x), 1e-300)
    m = -_ad_matrix(p, x)
    ad_inv, dexp = exp_phi1(m)
    assert all(np.array_equal(a, b) for a, b in zip(_dexp_left(p, x), (ad_inv, dexp)))
    if size == 0.0 or not p.structure.any():
        assert np.array_equal(ad_inv, np.eye(k)) and np.array_equal(dexp, np.eye(k))
    tol = 1e-13 * max(1.0, _norm1(m))
    for got, want in zip((ad_inv, dexp), _van_loan(m)):
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
    ad_g = np.linalg.solve(p.metric, ad_inv.T @ p.metric)
    np.testing.assert_allclose(ad_g, np.linalg.inv(ad_inv), rtol=0, atol=tol)
    for complex_ in (False, True):
        n = int(rng.integers(1, 7))
        stack = np.stack([_matrix(rng, n, c, complex_)
                          for c in size * rng.uniform(0.0, 1.0, 3)])
        ex, phi = exp_phi1(stack)
        assert ex.dtype == phi.dtype == (complex if complex_ else float)
        for a, e, f in zip(stack, ex, phi):
            tol = 1e-13 * max(1.0, _norm1(a))
            for got, want in zip((e, f), _van_loan(a)):
                assert _norm1(got - want) <= tol * max(1.0, _norm1(want))
