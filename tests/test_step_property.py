"""Property test: the integrator's Dormand-Prince step, its grid-sample read
and the bound energy kernel equal a textbook reference bit for bit, over
random presentations, on the two fields the integrator steps (the affine
flow's sphere form and the projective flow's f^), with the gauge, and step
sizes 1e-3 to 1. The reference keeps the tableau as float rows, writes each
slope as ``-grad`` and normalizes with ``np.linalg.norm``; the builtins' output
files are reproducible across such rewrites only if these agree. The inner
stages' energies, which a projective run's affine rows integrate, agree too."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_presentation
from momentflow import flow
from momentflow.representation import (energy_and_gradient, energy_kernel,
                                       infinitesimal_action)

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


def _energy(p, v):
    """f = |mu|^2 and its gradient, one state, through the public helpers."""
    lv = infinitesimal_action(p, v)
    lowered = 0.5 * (v.conj() @ lv).imag
    sharp = p.sharp(lowered)
    return float(lowered @ sharp), -2j * (lv @ sharp)


def _projective(p, v):
    n2 = float(np.vdot(v, v).real)
    f, grad = _energy(p, v)
    return f / n2**2, grad / n2**2 - (4.0 * f / n2**3) * v


def _sphere(p, v):
    f, grad = _energy(p, v)
    return f, grad - 4.0 * f * v


def _gauge(y):
    return y / np.linalg.norm(y)


def _step(energy, y, h, k1):
    ks = np.empty((7, y.size), dtype=complex)
    ks[0] = k1
    ha = h * _A
    fs = []
    for i in range(1, 6):
        f, grad = energy(y + ha[i, :i] @ ks[:i])
        fs.append(f)
        ks[i] = -grad
    y_new = y + h * (_B[:6] @ ks[:6])
    f_new, ks[6] = np.nan, np.nan
    if np.all(np.isfinite(y_new)):
        y_new = _gauge(y_new)
        f_new, grad = energy(y_new)
        ks[6] = -grad
    return y_new, f_new, ks, fs, h * (_E @ ks)


def _grid(energy, y, h, ks, theta):
    dense = y + h * (theta ** np.arange(1, 5) @ (_P @ ks))
    rows = [_gauge(row) for row in dense]
    fs, ds = zip(*((f, -grad) for f, grad in map(energy, rows)))
    return np.array(rows), list(fs), np.array(ds)


def _same(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), projective=st.booleans())
def test_step_and_grid_read_equal_the_reference(seed, projective):
    rng = np.random.default_rng(seed)
    p = random_presentation(rng)
    n = p.dim_v
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y /= np.linalg.norm(y)
    h = 10.0 ** rng.uniform(-3, 0)
    kernel = energy_kernel(p)
    if projective:
        energy, ref = flow._projective_kernel(kernel), (lambda v: _projective(p, v))
    else:    # the field an affine run steps in polar form
        energy, ref = flow._sphere_kernel(kernel), (lambda v: _sphere(p, v))
    k1 = -ref(y)[1]

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

    # the bound kernel, one state and stacked, against the public wrapper
    scale = 10.0 ** rng.uniform(-3, 3, size=(3, 1))
    rows = scale * (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)))
    f_rows, grad_rows = kernel(rows)
    for row, f_row, grad_row in zip(rows, f_rows, grad_rows):
        f1, grad1 = energy_and_gradient(p, row)
        assert f_row == f1 == kernel(row)[0] == _energy(p, row)[0]
        assert np.array_equal(grad_row, grad1)
        assert np.array_equal(grad1, _energy(p, row)[1])
