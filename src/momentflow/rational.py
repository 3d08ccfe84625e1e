"""Simultaneous rational approximation of unit direction vectors.

A direction is certified rational when an integer vector with bounded common
denominator points within a prescribed angle of it. Certification failure is
a legitimate outcome and is reported as ``None``, never silently rounded.
"""

import numpy as np

__all__ = ["rationalize_direction"]

MAX_DENOMINATOR = 64
ANGLE_TOL = 1e-3


def rationalize_direction(direction):
    """Best integer representative of a unit direction, or None.

    Scans common denominators q <= MAX_DENOMINATOR against the largest
    component, rounds q * d / d_max to integers, and accepts the smallest q
    whose integer vector points within ANGLE_TOL of ``direction``.
    Returns ``(integers, q)`` with the integer vector reduced by its gcd and
    oriented along the input.
    """
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if norm == 0:
        return None
    d = d / norm
    pivot = int(np.argmax(np.abs(d)))
    ratios = d / d[pivot]

    for q in range(1, MAX_DENOMINATOR + 1):
        ints = np.round(ratios * q).astype(int)
        if not ints.any():
            continue
        cand = ints.astype(float)
        cosang = abs(cand @ d) / np.linalg.norm(cand)
        angle = float(np.arccos(min(1.0, cosang)))
        if angle <= ANGLE_TOL:
            sign = 1 if cand @ d >= 0 else -1
            ints = sign * ints
            g = np.gcd.reduce(np.abs(ints[ints != 0]))
            return tuple(int(x) for x in ints // max(int(g), 1)), int(q)
    return None
