"""Property test: the invariants of the flow driver over random presentations
and random start vectors, at short horizons, on one long affine flow and on
the affine flow read off a projective one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import packed, projective_field, random_presentation, random_vector
from momentflow.flow import (SAMPLE_GROWTH, FlowOptions, cointegrate_group,
                             integrate_kempf_ness, integrate_projective)
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

    with packed() as knots_of:
        lifted = cointegrate_group(p, v0, opts)
    assert lifted.terminated_reason in ENDED
    assert _f_never_increases(lifted)
    drift = np.linalg.norm(lifted.g @ v0 - lifted.v, axis=1)
    assert drift.max() <= 1e-6 * np.linalg.norm(v0)
    # the lift's own residual is the same drift over all its knots
    knot_drift = np.linalg.norm(lifted.g_knots @ v0 - knots_of(lifted)[1], axis=1)
    assert lifted.lift_residual == knot_drift.max() / np.linalg.norm(v0)

    proj_opts = FlowOptions(t_max=2.0)
    proj = integrate_projective(p, v0, proj_opts, cointegrate=True)
    assert proj.terminated_reason in ENDED
    assert _f_never_increases(proj)
    assert _on_output_grid(proj, proj_opts)
    np.testing.assert_allclose(proj.v_norm, 1.0, rtol=0, atol=1e-12)
    assert proj.lift_residual <= 1e-6


@settings(derandomize=True, max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lift_holds_over_a_long_horizon(seed):
    # the lift reads its Gauss nodes off the flow's own steps, so it keeps
    # its bound however sparse the output grid is over a long horizon
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    v0 = random_vector(rng, p.dim_v)
    opts = FlowOptions(t_max=1e3)
    for traj in (cointegrate_group(p, v0, opts),
                 integrate_projective(p, v0, opts, cointegrate=True)):
        assert traj.terminated_reason in ENDED
        assert traj.lift_residual <= 1e-6


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), projective=st.booleans())
def test_grad_norm_is_the_norm_of_each_sample_gradient(seed, projective):
    # the trajectory takes |grad| of all its samples at once; each projective
    # value keeps the bits of the norm of the gradient at that sample alone.
    # An affine sample's f and |grad f| come from its polar state, f = e^(2l)
    # f^ and e^(3l/2) hypot(|grad f^|, 4 f^): they meet the values at v to
    # the round-off of |v|^4 and |v|^3
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    v0 = random_vector(rng, p.dim_v)
    if projective:
        traj = integrate_projective(p, v0, FlowOptions(t_max=2.0))
        gradient = projective_field(p)
        want = [np.linalg.norm(gradient(v)[1]) for v in traj.v]
        assert np.array_equal(traj.grad_norm, want)
        return
    traj = integrate_kempf_ness(p, v0, FlowOptions(t_max=0.5))
    f, grad = zip(*(energy_and_gradient(p, v) for v in traj.v))
    scale = np.linalg.norm(traj.v, axis=1)
    assert np.all(np.abs(traj.grad_norm - np.linalg.norm(grad, axis=1)) <= 1e-13 * scale**3)
    assert np.all(np.abs(traj.f - f) <= 1e-13 * scale**4)


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


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s_max=st.sampled_from([0.5, 5.0, 40.0]),
       t_max=st.sampled_from([1.0, 1e2, 1e4]), eps_grad=st.sampled_from([1e-10, 1e-4, 1e-2]),
       basis_start=st.booleans())
def test_affine_read_off_invariants(seed, s_max, t_max, eps_grad, basis_start):
    # the affine flow a projective run carries, read off its steps; the
    # projective flow keeps the default eps_grad, so that each of the ends of
    # the affine rows occurs; a start on a basis vector, a weight vector of
    # the presentations' torus, sits at a critical point of f^. The run is
    # lifted only for its step records, which give the step ends.
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    v0 = random_vector(rng, p.dim_v)
    if basis_start:
        v0 = v0 * np.eye(p.dim_v)[rng.integers(p.dim_v)]
    with packed() as knots_of:
        proj = integrate_projective(p, v0, FlowOptions(t_max=s_max), cointegrate=True,
                                    affine=FlowOptions(t_max=t_max, eps_grad=eps_grad))
    read = proj.affine

    assert read.t[0] == 0.0 and np.all(np.diff(read.t) > 0)
    # no energy guard of its own: below about 1e-15 f(0), where the states'
    # error swamps |mu|, the affine rows' f may wobble
    assert np.all(read.f[1:] <= read.f[:-1] * (1 + 1e-12) + 1e-15 * read.f[0])
    n2 = read.v_norm ** 2    # l = log |v|^2 never rises either
    assert np.all(n2[1:] <= n2[:-1] * (1 + 1e-12))
    u = read.v / read.v_norm[:, None]
    np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(read.v[0], v0, rtol=1e-14, atol=0)
    # v = e^(l/2) u carries f and |grad f| of the affine flow; near the zero
    # set of mu both sides cancel, so they are compared as f / |v|^4 and
    # |grad f| / |v|^3 with an absolute slack
    f, grad = zip(*(energy_and_gradient(p, v) for v in read.v))
    np.testing.assert_allclose(read.f / n2**2, f / n2**2, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(read.grad_norm / n2**1.5,
                               np.linalg.norm(grad, axis=1) / n2**1.5, rtol=1e-10, atol=1e-14)

    # it ends at the horizon, at a step end with a small gradient, past a
    # projective flow that ended with a small gradient where |grad f| falls
    # to eps_grad, or where the projective flow ends, with its reason
    step_ends = np.cumsum(knots_of(proj)[0]["h"]).tolist()
    assert read.t[-1] <= t_max
    if read.t[-1] == t_max:
        assert read.terminated_reason == "t_max"
    elif read.s[-1] > proj.t[-1]:
        assert proj.terminated_reason == read.terminated_reason == "gradient_small"
        assert read.grad_norm[-1] == pytest.approx(eps_grad, rel=1e-9)
    elif read.terminated_reason == "gradient_small" and read.grad_norm[-1] < eps_grad:
        assert read.s[-1] in step_ends
    else:
        assert proj.terminated_reason != "gradient_small"    # that one continues
        assert read.terminated_reason == proj.terminated_reason
        assert read.s[-1] == proj.t[-1]
        np.testing.assert_allclose(u[-1], proj.v[-1], rtol=0, atol=1e-12)
