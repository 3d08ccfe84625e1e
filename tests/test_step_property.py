"""Property test: the integrator's Dormand-Prince step, its grid-sample read
and the bound energy kernel equal a textbook reference bit for bit, over
random presentations, on the field the integrator steps (f^ on the real
layout x = v.view(float)), with the gauge, and step sizes 1e-3 to 1. The
reference builds the real form afresh from the basis, keeps the tableau as
float rows, writes each slope as ``-grad`` and normalizes with
``np.linalg.norm``; the builtins' output files are reproducible across such
rewrites only if these agree. The inner stages' energies, which a run's
affine l and t integrate, agree too."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_presentation
from momentflow import flow
from momentflow.representation import energy_and_gradient, energy_kernel

_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = _B - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                    -92097 / 339200, 187 / 2100, 1 / 40])
_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
               -10690763975 / 1880347072, 701980252875 / 199316789632,
               -1453857185 / 822651844, 69997945 / 29380423])
_E0, _E6 = np.eye(7)[[0, 6]]
_P = np.array([_E0, 3 * _B - 2 * _E0 - _E6 + _D, _E0 + _E6 - 2 * _B - 2 * _D, _D])


def _real_form(p):
    """P_a = R(H_a) / 2, H_a = -i xi_a, realified on the interleaved layout as
    kron(Re H, 1) + kron(Im H, J), then the identity, as ((k + 1) 2n, 2n);
    and the inverse metric with a zero last row and column."""
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    blocks = [0.5 * (np.kron(xi.imag, np.eye(2)) + np.kron(-xi.real, j)) for xi in p.basis]
    metric_inv = np.zeros((p.dim_g + 1, p.dim_g + 1))
    metric_inv[:-1, :-1] = np.linalg.inv(p.metric)
    return np.concatenate(blocks + [np.eye(2 * p.dim_v)]), metric_inv


def _energy(p, x, projective):
    """f (or f^) and its gradient at one real state: Y = (P_a x, x), mu and
    |x|^2 = Y x, c = mu^#, grad f = 4 c Y and grad f^ = 4 c Y / |x|^4 - 4 f
    x / |x|^6, in the kernel's order of operations."""
    form, metric_inv = _real_form(p)
    k = p.dim_g
    y = (form @ x).reshape(k + 1, -1)
    m = y @ x
    c = metric_inv @ m
    f = float(m @ c)
    if projective:
        n2 = float(m[k])
        c = c * (-4.0 / (n2 * n2))
        c[k] = 4.0 * f / (n2 * n2 * n2)
        return f / (n2 * n2), -(c @ y)
    return f, -((-4.0 * c) @ y)


def _gauge(y):
    return y / np.linalg.norm(y)


def _step(energy, y, h, k1):
    x = y.view(float)
    ks = np.empty((7, x.size))
    ks[0] = k1.view(float)
    ha = h * _A
    fs = []
    for i in range(1, 6):
        f, grad = energy(x + ha[i, :i] @ ks[:i])
        fs.append(f)
        ks[i] = -grad
    x_new = x + h * (_B[:6] @ ks[:6])
    f_new, ks[6] = np.nan, np.nan
    y_new = x_new.view(complex)
    if np.all(np.isfinite(x_new)):
        y_new = _gauge(y_new)
        f_new, grad = energy(y_new.view(float))
        ks[6] = -grad
    return y_new, f_new, ks.view(complex), fs, (h * (_E @ ks)).view(complex)


def _grid(energy, y, h, ks, theta):
    dense = (y.view(float) + h * (theta ** np.arange(1, 5) @ (_P @ ks.view(float))))
    rows = [_gauge(row) for row in dense.view(complex)]
    fs, ds = zip(*((f, -grad) for f, grad in (energy(row.view(float)) for row in rows)))
    return np.array(rows), list(fs), np.array(ds).view(complex)


def _same(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_step_and_grid_read_equal_the_reference(seed):
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    n = p.dim_v
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y /= np.linalg.norm(y)
    h = 10.0 ** rng.uniform(-3, 0)
    energy = energy_kernel(p, True)

    def ref(x):
        return _energy(p, x, True)

    k1 = -ref(y.view(float))[1].view(complex)

    with np.errstate(over="ignore", invalid="ignore"):    # as in the integrator
        y_new, f_new, ks, fs, err = flow._rkf45_step(energy, y, h, k1)
        ref_y, ref_f, ref_ks, ref_fs, ref_err = _step(ref, y, h, k1)
        assert np.array_equal(y_new, ref_y, equal_nan=True)
        assert _same(f_new, ref_f)
        assert np.array_equal(ks, ref_ks, equal_nan=True)
        assert np.array_equal(fs, ref_fs, equal_nan=True)
        assert np.array_equal(err, ref_err, equal_nan=True)
        assert flow._norm(k1) == np.linalg.norm(k1)
        if np.isfinite(ks).all():
            # one grid point (the one-state calls) or a block (one stacked call)
            theta = np.sort(rng.uniform(0, 1, size=(int(rng.integers(1, 4)), 1)), axis=0)
            got = flow._read_grid(energy, y, h, ks, theta)
            want = _grid(ref, y, h, ks, theta)
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b, equal_nan=True)

    # the bound kernel of f, one state and stacked, against the public wrapper
    kernel = energy_kernel(p, False)
    scale = 10.0 ** rng.uniform(-3, 3, size=(3, 1))
    rows = scale * (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)))
    slope_rows = np.empty_like(rows)
    f_rows = kernel(rows.view(float), slope_rows.view(float))
    for row, f_row, slope_row in zip(rows, f_rows, slope_rows):
        f1, grad1 = energy_and_gradient(p, row)
        slope1 = np.empty(2 * n)
        f_ref, grad_ref = _energy(p, row.view(float), False)
        assert f_row == f1 == kernel(row.view(float), slope1) == f_ref
        assert np.array_equal(-slope_row, grad1)
        assert np.array_equal(slope1.view(complex), slope_row)
        assert np.array_equal(grad1, grad_ref.view(complex))
