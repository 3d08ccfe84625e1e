from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentflow.algebra import (matrix_presentation, su2_presentation,
                                su2_sym_presentation, torus_presentation)
from momentflow.builtins import get_builtin
from momentflow.degeneration import (ANGLE_TOL, OracleResult, diagonal_torus,
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


@pytest.mark.parametrize("support", [(-1,), (5,), (0, 2)])
def test_oracle_support_outside_the_weights_raises(support):
    with pytest.raises(StructuralError, match="range"):
        torus_oracle([[1], [2]], support=support)


@pytest.mark.parametrize("weights", [[[np.nan]], [[1.0], [np.inf]],
                                     [[1.0, 0.0], [-np.inf, 2.0]]])
def test_oracle_nonfinite_weights_raise(weights):
    with pytest.raises(DomainError):
        torus_oracle(weights)


def _reference_oracle(weights, support):
    """Every one of the 2^n - 1 faces, one solve each, a singular face
    skipped: the brute force the oracle must agree with bit for bit."""
    pts = np.asarray(weights, dtype=float)[list(support)]
    best, best_face = None, ()
    for size in range(1, len(pts) + 1):
        for face in combinations(range(len(pts)), size):
            w = pts[list(face)]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * (w @ w.T)
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            try:
                lam = np.linalg.solve(kkt, rhs)[:size]
            except np.linalg.LinAlgError:
                continue
            if np.any(lam < -1e-12):
                continue
            lam = np.clip(lam, 0.0, None)
            cand = (lam / lam.sum()) @ w
            val = float(cand @ cand)
            if best is None or val < best[0] - 1e-15:
                best = (val, cand)
                best_face = tuple(support[i] for i in face)
    val, beta = best
    if val <= 1e-9:
        return OracleResult(beta=None, semistable=True, min_norm_sq=val)
    return OracleResult(beta=beta, semistable=False, min_norm_sq=val,
                        support_face=best_face)


def _assert_same_oracle(res, ref):
    assert res.semistable == ref.semistable
    assert res.min_norm_sq == ref.min_norm_sq
    assert res.support_face == ref.support_face
    if ref.beta is None:
        assert res.beta is None
    else:
        assert res.beta.tobytes() == ref.beta.tobytes()


# Ten weights in the half-plane w_1 >= 1, with repeats.
TEN_WEIGHTS = [[3, -2], [3, -1], [3, 1], [2, 2], [3, 1], [3, -2], [3, 1], [1, 3],
               [2, -2], [2, 0]]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_oracle_matches_the_brute_force_over_all_faces(seed):
    # integer weights, some of them repeated or on a common line through the
    # origin so that singular faces occur, then perturbed half of the time
    rng = np.random.default_rng(seed)
    r, n = int(rng.integers(1, 4)), int(rng.integers(1, 9))
    base = rng.integers(-3, 4, size=(int(rng.integers(1, n + 1)), r))
    w = base[rng.integers(0, len(base), n)] * rng.integers(-2, 3, size=(n, 1))
    if rng.random() < 0.5:
        w = w + 1e-3 * rng.standard_normal((n, r))
    support = tuple(int(j) for j in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                               replace=False))
    _assert_same_oracle(torus_oracle(w, support=support),
                        _reference_oracle(w, sorted(support)))


def test_oracle_matches_the_brute_force_on_ten_weights():
    _assert_same_oracle(torus_oracle(TEN_WEIGHTS),
                        _reference_oracle(TEN_WEIGHTS, range(10)))


def test_oracle_solves_once_per_face_size_under_numpy_1_rules(monkeypatch):
    # 10 weights in R^2: faces of 1, 2 and 3 weights, one batched solve each.
    # numpy < 2 reads b as a stack of vectors exactly when it has one axis
    # fewer than a, and as a stack of matrices otherwise; numpy >= 2 reads
    # it as a vector only when it is 1-D. The answer must not depend on it.
    solve, calls = np.linalg.solve, []

    def numpy1_solve(a, b):
        a, b = np.asarray(a), np.asarray(b)
        calls.append(a.shape)
        if b.ndim == a.ndim - 1:
            return solve(a, b[..., None])[..., 0]
        if b.ndim < 2:
            raise ValueError("numpy < 2 reads a 1-D b beside a stacked a as matrices")
        return solve(a, b)

    expected = torus_oracle(TEN_WEIGHTS)
    monkeypatch.setattr(np.linalg, "solve", numpy1_solve)
    _assert_same_oracle(torus_oracle(TEN_WEIGHTS), expected)
    assert len(calls) <= 3


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
