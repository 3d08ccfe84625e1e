"""Named example experiments shipped with the package.

Each builtin supplies a presentation, a start vector, flow settings, the
analyses to run and the expected-value checks the report enforces. They are
the reproducibility entry points: every builtin runs to exit status 0 under
the default tolerances.
"""

import numpy as np

from .algebra import (direct_sum_presentation, su2_sym_presentation,
                      torus_presentation)
from .flow import FlowOptions
from .runner import Experiment

__all__ = ["BUILTIN_NAMES", "get_builtin"]

def _u1_weight1():
    return Experiment(
        name="u1_weight1",
        presentation=torus_presentation([[1]]),
        v0=np.array([1.0]),
        flow_opts=FlowOptions(t_max=1e4),
        mode="affine",
        analyses=("rates",),
        checks=(
            ("rates.decay_exponent", 1.95, 2.05),
            ("rates.alpha_hat", 0.73, 0.77),
            ("rates.v_plateau_ratio", 1.0, 1.05),
            ("rates.grad4_over_f3_min", 1.0, float("inf")),
            ("rates.s_logt_r2", 0.99, 1.0),
        ),
    )


def _torus_12():
    return Experiment(
        name="torus_12",
        presentation=torus_presentation([[1], [2]]),
        v0=np.array([1.0, 1.0]) / np.sqrt(2),
        flow_opts=FlowOptions(t_max=200.0),
        mode="projective",
        analyses=("rates", "degeneration", "oracle"),
        checks=(
            ("degeneration.oracle_angle", 0.0, 1e-3),
            ("degeneration.off_face_mass", 0.0, 1e-4),
            ("rates.s_logt_r2", 0.99, 1.0),
        ),
    )


def _torus_c3():
    return Experiment(
        name="torus_c3",
        presentation=torus_presentation([[1, 0], [0, 1], [1, 1]]),
        v0=np.array([1.0, 1.0, 1.0]) / np.sqrt(3),
        flow_opts=FlowOptions(t_max=200.0),
        mode="projective",
        analyses=("rates", "degeneration", "oracle", "ray"),
        checks=(
            ("degeneration.oracle_angle", 0.0, 1e-3),
            ("ray.final_angle", 0.0, 1e-3),
            ("ray.residual_last", 0.0, 1e-2),
            ("ray.spectrum_vs_oracle", 0.0, 1e-3),
            ("rates.s_logt_r2", 0.99, 1.0),
        ),
    )


def _su2_symd():
    p = su2_sym_presentation(4)
    v0 = np.zeros(5, dtype=complex)
    v0[0] = 1.0
    v0[1] = 0.01
    v0 /= np.linalg.norm(v0)
    # The limit sits on an unstable stratum of positive codimension; round-off
    # eventually ejects a double-precision trajectory, so the flow terminates
    # by gradient while still on-stratum instead of running to eps = 1e-10.
    return Experiment(
        name="su2_symd",
        presentation=p,
        v0=v0,
        flow_opts=FlowOptions(t_max=300.0, eps_grad=1e-5, rtol=1e-10, atol=1e-14),
        mode="projective",
        analyses=("degeneration", "oracle", "ray"),
        checks=(
            ("ray.spectrum_vs_oracle", 0.0, 1e-2),
        ),
    )


def _mgs_u1():
    return Experiment(
        name="mgs_u1",
        presentation=torus_presentation([[1], [-1]]),
        v0=np.array([1.0, 1.0]) / np.sqrt(2),
        flow_opts=FlowOptions(t_max=1.0),
        mode="affine",
        analyses=("normal_form",),
        checks=(
            ("normal_form.moment_identity", 0.0, 1e-5),
            ("normal_form.closedness", 0.0, 1e-4),
        ),
    )


def _mgs_su2():
    p1 = su2_sym_presentation(2)
    p = direct_sum_presentation([p1, p1])
    z0 = np.zeros(6, dtype=complex)
    z0[1] = 1.0   # the zero-weight vector of the first summand
    # its isotropy has dimension 1 and acts on the slice via the second summand
    return Experiment(
        name="mgs_su2",
        presentation=p,
        v0=z0,
        flow_opts=FlowOptions(t_max=1.0),
        mode="affine",
        analyses=("normal_form",),
        checks=(
            ("normal_form.moment_identity", 0.0, 1e-5),
            ("normal_form.closedness", 0.0, 1e-4),
            ("normal_form.negative_control", 1e-2, float("inf")),
        ),
    )


# Stable, documented order: BUILTIN_NAMES lists the names as written here.
_FACTORIES = {
    "u1_weight1": _u1_weight1,
    "torus_12": _torus_12,
    "torus_c3": _torus_c3,
    "su2_symd": _su2_symd,
    "mgs_u1": _mgs_u1,
    "mgs_su2": _mgs_su2,
}
BUILTIN_NAMES = tuple(_FACTORIES)


def get_builtin(name):
    if name not in _FACTORIES:
        raise KeyError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    return _FACTORIES[name]()
