"""Property test: the exact gradient of f = |mu|^2 agrees with central
finite differences over random presentations and random start vectors."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradient, random_presentation, random_vector
from momentflow.representation import energy_and_gradient


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.1, 1.0, 2.0]))
def test_gradient_matches_central_differences(seed, scale):
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    v = random_vector(rng, p.dim_v, scale)
    _, grad = energy_and_gradient(p, v)
    ref = fd_gradient(p, v, h=1e-5)
    assert np.linalg.norm(grad - ref) <= 1e-6 * max(1.0, np.linalg.norm(grad))
