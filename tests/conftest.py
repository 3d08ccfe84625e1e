import itertools

import numpy as np
import pytest

from momentflow.algebra import (TAU_ALG, su2_presentation, su2_sym_presentation,
                                torus_presentation, un_presentation)
from momentflow.representation import energy_and_gradient


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def fd_gradient(p, v, h=1e-5):
    """Central finite differences of f = |mu|^2, the independent oracle."""
    out = np.zeros_like(v, dtype=complex)
    for i in range(len(v)):
        for unit in (1.0, 1j):
            e = np.zeros_like(v)
            e[i] = unit
            fp = energy_and_gradient(p, v + h * e)[0]
            fm = energy_and_gradient(p, v - h * e)[0]
            out[i] += (fp - fm) / (2 * h) * unit
    return out


def conjugate_coords(p, g, coords):
    """Ad_g on g-coordinates by conjugation, coords_of(g matrix(c) g^-1): the
    independent reference for exp(ad_x). One group element ``g`` (n, n) and
    one coordinate vector; raises when g does not normalize the algebra."""
    return p.coords_of(g @ p.matrix(np.asarray(coords, dtype=float)) @ np.linalg.inv(g),
                       tol=TAU_ALG)


def random_presentation(rng):
    """A random desk-scale presentation: torus, su(2), sym-power or u(n)."""
    kind = rng.integers(0, 4)
    if kind == 0:
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 9))
        weights = rng.integers(-3, 4, size=(n, k))
        while not weights.any():
            weights = rng.integers(-3, 4, size=(n, k))
        return torus_presentation(weights)
    if kind == 1:
        return su2_presentation()
    if kind == 2:
        return su2_sym_presentation(int(rng.integers(2, 5)))
    return un_presentation(int(rng.integers(2, 4)))


def random_vector(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def knot_states(traj):
    """The state at each knot of a lifted trajectory's lift: a sample's
    state, else the state that starts the recorded step beginning there. An
    affine run steps in polar form and records each step's start u with its
    t and l = log|v|^2, and its final state likewise; there v = e^(l/2) u."""
    records = traj.step_records
    if traj.kind == "affine":
        starts = records["t"]
        ys = np.exp(0.5 * np.array(records["l"]))[:, None] * np.array(records["y"])
    else:
        starts = itertools.accumulate(records["h"][:-1], initial=0.0)
        ys = records["y"]
    states = dict(zip(starts, ys))
    states.update(zip(traj.t.tolist(), traj.v))
    return np.array([states[t] for t in traj.knots.tolist()])


def knot_clocks(traj):
    """The integrator's clock s at each knot of a lifted trajectory, which
    its lift runs in: the knots themselves for a projective run; for an
    affine one a sample's s, else the running sum of the step sizes."""
    if traj.kind == "projective":
        return traj.knots
    records = traj.step_records
    clocks = dict(zip(records["t"], itertools.accumulate(records["h"], initial=0.0)))
    clocks.update(zip(traj.t.tolist(), traj.s))
    return np.array([clocks[t] for t in traj.knots.tolist()])
