"""Property test: orbit invariance, the uniqueness of the limit in finite
dimension. The projective flows from v0 and from g v0, g in G^C, end in one
K-orbit: equal |mu^_inf| and equal spectra of i rho(mu^_inf) (Kempf-Ness
1979; Ness 1984; Kirwan 1984)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_vector
from momentflow.algebra import su2_sym_presentation, torus_presentation
from momentflow.flow import FlowOptions, integrate_projective
from momentflow.linalg import expm
from momentflow.representation import projective_moment_map

OPTS = FlowOptions(t_max=2000.0, eps_grad=1e-9)


def _informative_presentation(rng):
    """A torus with 3 to 8 weights or Sym^d, d = 2, 3, 4, of su(2): P(V) is
    more than one K-orbit, unlike su(2) on C^2, u(n) on C^n or one weight,
    where every flow stops at its start."""
    if rng.integers(0, 2):
        return su2_sym_presentation(int(rng.integers(2, 5)))
    weights = np.zeros((1, 1))
    while not weights.any():
        weights = rng.integers(-3, 4, size=(int(rng.integers(3, 9)), int(rng.integers(1, 4))))
    return torus_presentation(weights)


def _limit(p, v0):
    """The flow from [v0], its final |mu^| and spec(i rho(mu^))."""
    traj = integrate_projective(p, v0, OPTS)
    mu = projective_moment_map(p, traj.v[-1])
    return traj, p.norm_lowered(mu), np.linalg.eigvalsh(1j * p.matrix(p.sharp(mu)))


# A stiff torus draw can end at t_max after hundreds to thousands of steps
# (of draws 0 to 59, the flow from v0 of draw 36 does, after 731 steps;
# 202's take 689), so two generated draws; the examples pin a semistable
# torus that ends at t_max near mu^ = 0 (207), one that ends at t_max at
# |mu^| = 0.5 (202), two tori whose flows converge to |mu^| = 0.77 and 0.48
# (116, 24) and one draw whose flows stop far apart without the projective
# gauge (17).
@settings(derandomize=True, max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=207)
@example(seed=202)
@example(seed=116)
@example(seed=24)
@example(seed=17)
def test_flows_along_one_orbit_reach_one_limit(seed):
    rng = np.random.default_rng(seed)
    p = _informative_presentation(rng)
    v0 = random_vector(rng, p.dim_v)
    g = expm(0.5j * p.matrix(rng.standard_normal(p.dim_g)))
    (t1, n1, spec1), (t2, n2, spec2) = _limit(p, v0), _limit(p, g @ v0)
    # Both flows stopped at |grad f^| < eps_grad: the gaps are the stop's, at
    # most 3.8e-9 over 380 draws; bound 30 eps_grad. A flow cut at t_max is
    # still moving: over 55 such draws the gaps were at most 3.4 times the
    # larger final |grad f^|; bound 10 times that.
    if t1.converged() and t2.converged():
        bound = 30.0 * OPTS.eps_grad
    else:
        bound = 34.0 * max(t1.grad_norm[-1], t2.grad_norm[-1])
    assert abs(n1 - n2) <= bound
    assert np.abs(spec1 - spec2).max() <= bound
