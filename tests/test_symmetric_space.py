import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from momentflow.errors import (ContractViolationError, DomainError,
                               NotAsymptoticError, RayDivergenceError)
from momentflow.symmetric_space import (SymmetricSpacePoint, _along,
                                        _whitened_log, distance,
                                        extract_asymptotic_ray, geodesic,
                                        geodesic_path)


def rand_pd(rng, n, spread=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return spread * (a.conj().T @ a) + 0.5 * np.eye(n)


def rand_herm(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def test_point_validation():
    with pytest.raises(DomainError):
        SymmetricSpacePoint.from_matrix(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(DomainError):
        SymmetricSpacePoint.from_matrix(np.diag([1.0, -0.1]))
    with pytest.raises(DomainError):
        SymmetricSpacePoint.from_matrix(np.full((2, 2), np.nan))


def test_distance_identity_and_scalar_form(rng):
    h = rand_pd(rng, 3)
    assert distance(h, h) <= 1e-12
    got = distance(np.eye(3), np.exp(2.0) * np.eye(3))
    assert got == pytest.approx(2.0 * np.sqrt(3), rel=1e-13)


def test_distance_metric_axioms(rng):
    for _ in range(100):
        a, b, c = (rand_pd(rng, 3) for _ in range(3))
        dab, dba = distance(a, b), distance(b, a)
        assert dab == pytest.approx(dba, abs=1e-10)
        assert distance(a, c) <= dab + distance(b, c) + 1e-10


def test_distance_congruence_invariance(rng):
    a, b = rand_pd(rng, 4), rand_pd(rng, 4)
    w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    wa = w.conj().T @ a @ w
    wb = w.conj().T @ b @ w
    assert distance(wa, wb) == pytest.approx(distance(a, b), rel=1e-9)


def test_geodesic_endpoints_and_midpoint(rng):
    a, b = rand_pd(rng, 4), rand_pd(rng, 4)
    np.testing.assert_allclose(geodesic(a, b, 0.0).H, a, atol=1e-12)
    np.testing.assert_allclose(geodesic(a, b, 1.0).H, b, atol=1e-11)
    mid = geodesic(a, b, 0.5)
    assert distance(a, mid) == pytest.approx(distance(mid, b), abs=1e-10)


def test_geodesic_commuting_case_is_entrywise_geometric():
    a = np.diag([1.0, 4.0]).astype(complex)
    b = np.diag([9.0, 1.0]).astype(complex)
    got = geodesic(a, b, 0.5).H
    np.testing.assert_allclose(got, np.diag([3.0, 2.0]), atol=1e-12)


def test_geodesic_constant_speed(rng):
    a, b = rand_pd(rng, 4), rand_pd(rng, 4)
    pts = geodesic_path(a, b, 21)
    speeds = np.array([distance(x, y) for x, y in zip(pts[:-1], pts[1:])])
    assert (speeds.max() - speeds.min()) <= 1e-8 * speeds.max()


def test_log_map_properties(rng):
    # the whitened log M at H0 is the log H0^{-1/2} (.) H0^{-1/2} pulls back
    h0 = rand_pd(rng, 3)
    assert np.linalg.norm(_whitened_log(h0, h0)) <= 1e-10
    a = rand_herm(rng, 3)
    np.testing.assert_allclose(_whitened_log(np.eye(3), scipy.linalg.expm(a)), a,
                               atol=1e-10)
    # round trip: following the direction for unit time recreates the target
    h1 = rand_pd(rng, 3)
    p0 = SymmetricSpacePoint.from_matrix(h0)
    np.testing.assert_allclose(_along(p0, _whitened_log(p0, h1), 1.0).H, h1,
                               atol=1e-10)


def test_log_map_norm_is_distance(rng):
    h0, h1 = rand_pd(rng, 4), rand_pd(rng, 4)
    norm = np.linalg.norm(_whitened_log(h0, h1))
    assert norm == pytest.approx(distance(h0, h1), rel=1e-10)


def test_factor_points_far_out_accuracy():
    # far-out factored points keep their log accurate where plain
    # eigendecomposition of H = g*g has lost the small eigenvalues
    lam = np.array([30.0, 5.0, -35.0])
    g = np.diag(np.exp(lam / 2)).astype(complex)
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3))
                        + 1j * np.random.default_rng(6).standard_normal((3, 3)))
    point = SymmetricSpacePoint.from_group(g @ q)
    d = distance(np.eye(3), point)
    assert d == pytest.approx(np.linalg.norm(lam), rel=1e-10)
    a = _whitened_log(np.eye(3), point)
    np.testing.assert_allclose(np.linalg.eigvalsh(a), np.sort(lam), rtol=1e-10)


def test_factor_points_past_the_overflow_of_h():
    # g* g would overflow: exp(720) > max float
    lam = np.array([720.0, 5.0, -725.0])
    point = SymmetricSpacePoint.from_group(np.diag(np.exp(lam / 2)))
    assert distance(np.eye(3), point) == pytest.approx(np.linalg.norm(lam), rel=1e-12)
    np.testing.assert_allclose(np.linalg.eigvalsh(_whitened_log(np.eye(3), point)),
                               np.sort(lam), rtol=1e-12)


def _well_conditioned(rng, n):
    """exp of a Hermitian matrix of norm <= 2, times a random unitary."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = rand_herm(rng, n)
    return scipy.linalg.expm(rng.uniform(0.0, 2.0) * a / np.linalg.norm(a, 2)) @ q


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_group_and_matrix_points_agree(seed):
    # the factor a point was built from does not change its logs or distances
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    g1, g2 = _well_conditioned(rng, n), _well_conditioned(rng, n)
    forms = [(SymmetricSpacePoint.from_group(g),
              SymmetricSpacePoint.from_matrix(g.conj().T @ g)) for g in (g1, g2)]
    d_ref = distance(forms[0][0], forms[1][0])
    a_ref = _whitened_log(forms[0][0], forms[1][0])
    for p1 in forms[0]:
        for p2 in forms[1]:
            assert distance(p1, p2) == pytest.approx(d_ref, rel=1e-9)
            np.testing.assert_allclose(_whitened_log(p1, p2), a_ref,
                                       rtol=0, atol=1e-9 * max(1.0, np.abs(a_ref).max()))


def convexity_probe(path_a, path_b, *, speed_tol=1e-8):
    """Minimum centered second difference of u -> d(path_a(u), path_b(u)).

    Both inputs must be geodesics sampled on a common uniform grid; constant
    speed is verified (relative variation above ``speed_tol`` raises
    :class:`ContractViolationError`). For true geodesics in this nonpositively
    curved space the result is bounded below by a small negative number at
    machine scale.
    """
    pa, pb = list(path_a), list(path_b)
    if len(pa) != len(pb) or len(pa) < 3:
        raise ContractViolationError("paths must share a grid of at least 3 samples")

    for pts in (pa, pb):
        speeds = np.array([distance(x, y) for x, y in zip(pts[:-1], pts[1:])])
        if speeds.max() > 0:
            if (speeds.max() - speeds.min()) > speed_tol * max(1.0, speeds.max()):
                raise ContractViolationError("input path does not have constant speed")

    d = np.array([distance(x, y) for x, y in zip(pa, pb)])
    second = d[:-2] - 2.0 * d[1:-1] + d[2:]
    return float(second.min())


def test_convexity_identical_paths_zero(rng):
    a, b = rand_pd(rng, 3), rand_pd(rng, 3)
    path = geodesic_path(a, b, 15)
    assert convexity_probe(path, path) == pytest.approx(0.0, abs=1e-12)


def test_convexity_flat_commuting_sector():
    base = SymmetricSpacePoint.from_matrix(np.eye(3))
    d1 = np.diag([1.0, -0.5, 0.25])
    d2 = np.diag([-0.3, 0.8, -0.1])
    pa = [_along(base, d1, s) for s in np.linspace(0, 2, 21)]
    pb = [_along(base, d2, s) for s in np.linspace(0, 2, 21)]
    assert convexity_probe(pa, pb) >= -1e-10


def test_convexity_random_geodesic_pairs(rng):
    worst = 0.0
    for _ in range(50):
        pa = geodesic_path(rand_pd(rng, 4), rand_pd(rng, 4), 17)
        pb = geodesic_path(rand_pd(rng, 4), rand_pd(rng, 4), 17)
        scale = max(1.0, max(distance(x, y) for x, y in zip(pa, pb)))
        worst = min(worst, convexity_probe(pa, pb) / scale)
    assert worst >= -1e-8


def test_convexity_rejects_non_geodesic(rng):
    a, b = rand_pd(rng, 3), rand_pd(rng, 3)
    good = geodesic_path(a, b, 15)
    crooked = [geodesic(a, b, u**2) for u in np.linspace(0, 1, 15)]
    with pytest.raises(ContractViolationError):
        convexity_probe(crooked, good)


# -- asymptotic rays ----------------------------------------------------------

def _ray_points(direction, clocks, wobble=None, factored=True):
    """Factors of the points exp(s D) (wobbled by congruence), the group
    factors like the cointegrated flows carry them, or else the Hermitian
    square roots of the points."""
    pts = []
    for s in clocks:
        g = scipy.linalg.expm(0.5 * s * direction)
        if wobble is not None:
            g = g @ scipy.linalg.expm(wobble(s))
        if not factored:
            g = SymmetricSpacePoint.from_matrix(g.conj().T @ g).factor
        pts.append(g)
    return np.array(pts)


def test_ray_recovers_its_own_direction(rng):
    direction = rand_herm(rng, 3)
    direction /= np.linalg.norm(direction)
    clocks = np.linspace(0.5, 25.0, 60)
    pts = _ray_points(direction, clocks)
    ray, diag = extract_asymptotic_ray(pts)
    assert np.max(diag.angles) <= 1e-7
    np.testing.assert_allclose(ray.direction, direction, atol=1e-9)
    assert np.max(diag.residuals) <= 1e-8


def test_ray_unfactored_points_moderate_range(rng):
    # plain H-matrices (no factor) stay accurate over moderate distances
    direction = rand_herm(rng, 3)
    direction /= np.linalg.norm(direction)
    clocks = np.linspace(0.5, 12.0, 40)
    pts = _ray_points(direction, clocks, factored=False)
    ray, diag = extract_asymptotic_ray(pts)
    assert np.max(diag.angles) <= 1e-5
    angle = np.arccos(np.clip(np.trace(ray.direction @ direction).real, -1, 1))
    assert angle <= 1e-5


def test_ray_with_bounded_wobble(rng):
    # diagonal ray with a bounded diagonal wobble |B| <= 0.1: the chord
    # direction comes back within wobble / distance of the true one
    lam = np.array([0.8, -0.2, -0.6])
    direction = np.diag(lam / np.linalg.norm(lam)).astype(complex)
    b = 0.1 * np.diag([1.0, -1.0, 0.0]) / np.sqrt(2)
    clocks = np.linspace(0.5, 60.0, 120)
    pts = []
    for s in clocks:
        wob = b * np.sin(np.log1p(s))
        pts.append(scipy.linalg.expm(0.5 * (s * direction + wob)))
    ray, diag = extract_asymptotic_ray(pts)
    angle = np.arccos(np.clip(np.trace(ray.direction @ direction).real, -1, 1))
    assert angle <= 0.1 / clocks[-1] + 1e-6
    assert diag.angles[-1] <= 1e-3


def test_ray_requires_escape():
    direction = np.diag([1.0, -1.0]) / np.sqrt(2)
    clocks = np.linspace(0.1, 3.0, 30)   # never reaches distance 10
    pts = _ray_points(direction.astype(complex), clocks)
    with pytest.raises(NotAsymptoticError):
        extract_asymptotic_ray(pts)


def test_ray_refuses_non_finite_factors_and_empty_paths():
    pts = _ray_points(np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2),
                      np.linspace(0.5, 30.0, 40))
    pts[7, 0, 1] = np.nan
    with pytest.raises(DomainError):
        extract_asymptotic_ray(pts)
    with pytest.raises(NotAsymptoticError):
        extract_asymptotic_ray(np.empty((0, 2, 2), dtype=complex))


def test_ray_distances_are_the_whitened_logs_at_the_identity(rng):
    # one stacked SVD of the factors gives each sample's log at the identity
    # with the bits of its own whitened log
    direction = rand_herm(rng, 3)
    direction /= np.linalg.norm(direction)
    wobble = rand_herm(rng, 3, scale=0.3)
    pts = _ray_points(direction, np.linspace(0.5, 25.0, 60), wobble=lambda s: 1j * wobble)
    _, diag = extract_asymptotic_ray(pts)
    want = [np.linalg.norm(_whitened_log(np.eye(3), SymmetricSpacePoint.from_group(g)))
            for g in pts]
    tail = np.array(want) > 5.0
    assert np.array_equal(diag.distances, np.array(want)[tail])


def test_ray_divergence_diagnostic(rng):
    # a path spiraling between two directions never settles
    d1 = np.diag([1.0, -1.0, 0.0]) / np.sqrt(2)
    d2 = np.diag([0.0, 1.0, -1.0]) / np.sqrt(2)
    clocks = np.linspace(0.5, 40.0, 80)
    pts = []
    for s in clocks:
        mix = 0.5 + 0.4 * np.sin(s)
        d = mix * d1 + (1 - mix) * d2
        d /= np.linalg.norm(d)
        pts.append(SymmetricSpacePoint.from_matrix(scipy.linalg.expm(s * d)).factor)
    with pytest.raises(RayDivergenceError) as exc:
        extract_asymptotic_ray(pts)
    assert exc.value.diagnostics is not None
    assert len(exc.value.diagnostics.angles) > 0


@pytest.mark.parametrize("horizon", [800, 1200])
def test_ray_base_change_stability(horizon):
    # rays of one escaping path seen from two bases have matching direction
    # spectra: from a second base H0 the path is g H0^{-1/2}, the isometry
    # that moves H0 to the identity; the diagonal sector keeps every step
    # exact, so the horizon can be pushed far enough for the 1/s chord
    # error to shrink below the tolerance, and at 1200 past the overflow
    # of g* g
    lam = np.array([0.8, -0.2, -0.6])
    lam = lam / np.linalg.norm(lam)
    direction = np.diag(lam).astype(complex)
    clocks = np.geomspace(1.0, horizon, 120)
    pts = np.array([scipy.linalg.expm(0.5 * s * direction) for s in clocks])
    ray1, diag1 = extract_asymptotic_ray(pts)
    base2 = SymmetricSpacePoint.from_matrix(np.diag(np.exp([0.3, -0.2, 0.4])))
    ray2, diag2 = extract_asymptotic_ray(pts @ base2.inv_sqrt)
    np.testing.assert_allclose(diag1.spectrum, diag2.spectrum, atol=1e-3)
    np.testing.assert_allclose(diag1.spectrum, np.sort(lam), atol=1e-12)


def test_ray_rationalizes_integer_spectrum():
    direction = np.diag([1.0, 1.0, 2.0]) / np.sqrt(6)
    clocks = np.linspace(0.5, 30.0, 60)
    pts = _ray_points(direction.astype(complex), clocks)
    ray, _ = extract_asymptotic_ray(pts)
    ints, den = ray.rational_approx
    assert tuple(ints) == (1, 1, 2)
