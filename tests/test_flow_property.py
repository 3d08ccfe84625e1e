"""Property test: the invariants of the flow driver over random presentations
and random start vectors at short horizons."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_presentation, random_vector
from momentflow.flow import (FlowOptions, cointegrate_group,
                             integrate_kempf_ness, integrate_projective)

ENDED = {"t_max", "gradient_small"}


def _f_never_increases(traj):
    return np.all(np.diff(traj.f) <= 1e-12 * np.maximum(1.0, traj.f[:-1]))


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

    lifted = cointegrate_group(p, v0, opts)
    assert lifted.terminated_reason in ENDED
    assert _f_never_increases(lifted)
    drift = np.linalg.norm(lifted.g @ v0 - lifted.v, axis=1)
    assert drift.max() <= 1e-6 * np.linalg.norm(v0)

    proj = integrate_projective(p, v0, FlowOptions(t_max=2.0), cointegrate=True)
    assert proj.terminated_reason in ENDED
    assert _f_never_increases(proj)
    np.testing.assert_allclose(proj.v_norm, 1.0, rtol=0, atol=1e-12)
