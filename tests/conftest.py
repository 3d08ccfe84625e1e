import contextlib

import numpy as np
import pytest

from momentflow import flow
from momentflow.algebra import (TAU_ALG, su2_presentation, su2_sym_presentation,
                                torus_presentation, un_presentation)
from momentflow.representation import energy_and_gradient, energy_kernel


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


def projective_field(p):
    """``field(v) -> (f^, grad f^)`` of a complex state (n,) or stack (q, n)
    through the integrator's kernel, ``energy_kernel(p, True)``."""
    kernel = energy_kernel(p, True)

    def field(v):
        slope = np.empty_like(v)
        return kernel(v.view(float), slope.view(float)), -slope

    return field


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


@contextlib.contextmanager
def packed():
    """Spy on ``flow._pack`` inside the block; yields ``lookup(traj)``, which
    gives a trajectory packed there as (records, states, clocks): the step
    records its lift read, which no trajectory keeps, and the state and the
    integrator clock s at each knot of the lift. The knots are the rows
    ``_pack`` receives before it drops those that are no sample; a polar
    run's row u with its l = log|v|^2 is the state v = e^(l/2) u, the first
    one v0 itself, and carries its s."""
    seen = []

    def spy(samples, stats, eps_grad, lift=None, v0=None, _pack=flow._pack):
        records = stats.get("step_records")
        states = np.concatenate(samples["v"])
        clocks = np.array(samples["s"] if samples["l"] else samples["t"])
        if samples["l"]:
            with np.errstate(over="ignore", invalid="ignore"):    # as _pack
                states = np.exp(0.5 * np.array(samples["l"]))[:, None] * states
            states[0] = v0
        traj = _pack(samples, stats, eps_grad, lift=lift, v0=v0)
        seen.append((traj, (records, states, clocks)))
        return traj

    def lookup(traj):
        return next(out for packed_traj, out in seen if packed_traj is traj)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_pack", spy)
        yield lookup
