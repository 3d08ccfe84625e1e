"""Property test: the stacked energy, projective energy and projective gauge
equal one-state calls row by row, bit for bit, over random presentations and
rows of magnitude 1e-3 to 1e3; the integrator's samples rely on it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_presentation
from momentflow.flow import _projective_gauge, projective_energy_gradient
from momentflow.representation import energy_and_gradient


def _stack(rng, n):
    """Rows of magnitude 1e-3 to 1e3, a previous state ``y_prev`` with a zero
    first entry and, as the last row, one orthogonal to it."""
    q = int(rng.integers(1, 7))
    scale = 10.0 ** rng.uniform(-3, 3, size=(q + 1, 1))
    rows = scale * (rng.standard_normal((q + 1, n)) + 1j * rng.standard_normal((q + 1, n)))
    y_prev = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y_prev[0] = 0.0
    rows[-1, 1:] = 0.0
    return rows, y_prev


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
    rows, y_prev = _stack(rng, p.dim_v)
    _assert_rows_equal(energy_and_gradient(p, rows),
                       [energy_and_gradient(p, y) for y in rows])
    _assert_rows_equal(projective_energy_gradient(p, rows),
                       [projective_energy_gradient(p, y) for y in rows])
    gauged = _projective_gauge(rows, y_prev)
    assert np.vdot(y_prev, gauged[-1]) == 0    # the zero-overlap branch
    for y, v in zip(rows, gauged):
        assert np.array_equal(v, _projective_gauge(y, y_prev))
