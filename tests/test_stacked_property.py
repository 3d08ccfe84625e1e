"""Property tests over random presentations and rows of magnitude 1e-3 to
1e3: the stacked energy, projective energy and projective gauge equal
one-state calls row by row, bit for bit, which the integrator's samples rely
on; and grad f^ is orthogonal to v and to iv, which is why the projective
gauge only renormalizes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import projective_field, random_presentation
from momentflow.flow import _projective_gauge
from momentflow.representation import energy_and_gradient


def _stack(rng, n):
    """Rows of magnitude 1e-3 to 1e3."""
    q = int(rng.integers(1, 7))
    scale = 10.0 ** rng.uniform(-3, 3, size=(q, 1))
    return scale * (rng.standard_normal((q, n)) + 1j * rng.standard_normal((q, n)))


def _assert_rows_equal(stacked, per_row):
    f, grad = stacked
    assert f.shape == (len(per_row),)
    for i, (f1, grad1) in enumerate(per_row):
        assert f[i] == f1
        assert np.array_equal(grad[i], grad1)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_stacked_calls_equal_one_state_calls(seed):
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    rows = _stack(rng, p.dim_v)
    _assert_rows_equal(energy_and_gradient(p, rows),
                       [energy_and_gradient(p, y) for y in rows])
    projective = projective_field(p)
    _assert_rows_equal(projective(rows), [projective(y) for y in rows])
    for y, v in zip(rows, _projective_gauge(rows), strict=True):
        assert np.array_equal(v, _projective_gauge(y))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_projective_gradient_is_orthogonal_to_v_and_iv(seed):
    # f^ is homogeneous of degree 0 (Re<grad f^, v> = 0) and U(1)-invariant
    # (Re<grad f^, iv> = 0): the flow neither scales nor turns the phase of v,
    # up to round-off in the two terms of grad f^
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    rows = _stack(rng, p.dim_v)
    projective = projective_field(p)
    stacked = projective(rows)[1]
    for v, grad_stacked in zip(rows, stacked, strict=True):
        f, grad_f = energy_and_gradient(p, v)
        norm = np.linalg.norm(v)
        bound = 1e-14 * (np.linalg.norm(grad_f) / norm**4 + 4 * f / norm**5) * norm
        for grad in (projective(v)[1], grad_stacked):
            assert abs(np.vdot(grad, v).real) <= bound
            assert abs(np.vdot(grad, 1j * v).real) <= bound
