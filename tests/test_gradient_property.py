"""Property tests: the exact gradient of f = |mu|^2 agrees with central
finite differences over random presentations and random start vectors, and
the energy kernel, which works on the realified moment map, agrees with the
complex formula."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradient, random_presentation, random_vector
from momentflow.algebra import GroupPresentation
from momentflow.representation import (energy_and_gradient, energy_kernel,
                                       infinitesimal_action, moment_map)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 2.0]))
def test_gradient_matches_central_differences(seed, scale):
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    v = random_vector(rng, p.dim_v, scale)
    _, grad = energy_and_gradient(p, v)
    ref = fd_gradient(p, v, h=1e-5)
    assert np.linalg.norm(grad - ref) <= 1e-6 * max(1.0, np.linalg.norm(grad))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), projective=st.booleans())
def test_kernel_matches_the_complex_formula(seed, projective):
    # the realified kernel against mu from moment_map, L_v from
    # infinitesimal_action and the sharp from p.sharp, on the direct sum p + p
    # with a random positive-definite metric, one state and stacked. The bound is
    # relative to the scale of each term: |mu| <= max|xi| |v|^2, so f and
    # |v| |grad f| are at most k |M^-1| max|xi|^2 |v|^4
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    (k, n, _), b = p.basis.shape, rng.standard_normal((p.dim_g, p.dim_g))
    basis = np.zeros((k, 2 * n, 2 * n), dtype=complex)    # p + p
    basis[:, :n, :n] = basis[:, n:, n:] = p.basis
    metric = b @ b.T + 0.1 * np.eye(k)
    p = GroupPresentation(basis=basis, metric=0.5 * (metric + metric.T))
    kernel = energy_kernel(p, projective)
    q = int(rng.integers(1, 5))
    rows = 10.0 ** rng.uniform(-2, 2, size=(q, 1)) * random_vector(rng, (q, p.dim_v))
    slopes = np.empty_like(rows)
    f_rows = kernel(rows.view(float), slopes.view(float))
    xi = np.linalg.norm(p.basis, 2, axis=(1, 2)).max()
    size = k * np.linalg.norm(p._metric_inv, 2) * xi**2
    for v, f_row, slope_row in zip(rows, f_rows, slopes, strict=True):
        mu = moment_map(p, v)
        sharp = p.sharp(mu)
        f, grad = float(mu @ sharp), -2j * (infinitesimal_action(p, v) @ sharp)
        n2 = float(np.vdot(v, v).real)
        scale = size * n2**2
        if projective:
            f, grad, scale = f / n2**2, grad / n2**2 - (4.0 * f / n2**3) * v, size
        slope = np.empty(2 * p.dim_v)
        for f_got, slope_got in ((kernel(v.view(float), slope), slope.view(complex)),
                                 (f_row, slope_row)):
            assert abs(f_got - f) <= 1e-13 * scale
            assert np.linalg.norm(-slope_got - grad) <= 1e-13 * scale / np.sqrt(n2)
