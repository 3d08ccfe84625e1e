"""Property test: the invariants of the flow driver over random presentations
and random start vectors, at short horizons and on one long affine leg."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_presentation, random_vector
from momentflow.flow import (SAMPLE_GROWTH, FlowOptions, cointegrate_group,
                             integrate_kempf_ness, integrate_projective,
                             projective_energy_gradient)
from momentflow.representation import energy_and_gradient

ENDED = {"t_max", "gradient_small"}


def _f_never_increases(traj):
    return np.all(traj.f[1:] <= traj.f[:-1] * (1 + 1e-12))


def _on_output_grid(traj, opts):
    """Every output-grid point before the final time is a sample, and each
    other sample is the final state or the end of a step that held no grid
    point, so there are at most ``traj.steps`` of those."""
    grid = [0.0]
    while grid[-1] < traj.t[-1]:
        grid.append(grid[-1] + max(opts.initial_step, SAMPLE_GROWTH * grid[-1]))
    samples = set(traj.t.tolist())
    if not samples.issuperset(grid[:-1]):
        return False
    off_grid = samples.difference(grid, [traj.t[-1]])
    return len(off_grid) <= traj.steps


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_flow_invariants_on_random_presentations(seed):
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    v0 = random_vector(rng, p.dim_v)
    opts = FlowOptions(t_max=0.5)

    affine = integrate_kempf_ness(p, v0, opts)
    assert affine.terminated_reason in ENDED
    assert _f_never_increases(affine)
    assert _on_output_grid(affine, opts)

    lifted = cointegrate_group(p, v0, opts)
    assert lifted.terminated_reason in ENDED
    assert _f_never_increases(lifted)
    drift = np.linalg.norm(lifted.g @ v0 - lifted.v, axis=1)
    assert drift.max() <= 1e-6 * np.linalg.norm(v0)
    assert lifted.lift_residual == drift.max() / np.linalg.norm(v0)

    proj_opts = FlowOptions(t_max=2.0)
    proj = integrate_projective(p, v0, proj_opts, cointegrate=True)
    assert proj.terminated_reason in ENDED
    assert _f_never_increases(proj)
    assert _on_output_grid(proj, proj_opts)
    np.testing.assert_allclose(proj.v_norm, 1.0, rtol=0, atol=1e-12)
    assert proj.lift_residual <= 1e-6


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), projective=st.booleans())
def test_grad_norm_is_the_norm_of_each_sample_gradient(seed, projective):
    # the trajectory takes |grad| of all its samples at once; each value keeps
    # the bits of the norm of the gradient at that sample alone
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    v0 = random_vector(rng, p.dim_v)
    if projective:
        traj = integrate_projective(p, v0, FlowOptions(t_max=2.0))
        gradient = projective_energy_gradient
    else:
        traj, gradient = integrate_kempf_ness(p, v0, FlowOptions(t_max=0.5)), energy_and_gradient
    want = [np.linalg.norm(gradient(p, v)[1]) for v in traj.v]
    assert np.array_equal(traj.grad_norm, want)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_long_affine_leg_keeps_a_dense_final_decade(seed):
    # the rates fit reads the final decade; the output grid, not the step,
    # puts its samples there
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    opts = FlowOptions(t_max=1e3)
    traj = integrate_kempf_ness(p, random_vector(rng, p.dim_v), opts)
    assert traj.terminated_reason in ENDED
    assert _f_never_increases(traj)
    assert _on_output_grid(traj, opts)
    if traj.t[-1] >= 1.0:    # a flow that settles sooner has no tail to fit
        assert np.sum(traj.t >= traj.t[-1] / 10) >= 50
