"""Small dense-matrix helpers used throughout the package.

All matrix functions of Hermitian arguments go through an eigendecomposition
and re-symmetrize the result, so Hermitian invariants survive round-off.
"""

import numpy as np

__all__ = [
    "hermitian_part",
    "eigh_fun",
    "psd_sqrt",
    "psd_inv_sqrt",
]


def hermitian_part(a):
    return 0.5 * (a + a.conj().T)


def eigh_fun(h, fun):
    """Apply a scalar function to a Hermitian matrix through its spectrum."""
    w, u = np.linalg.eigh(h)
    return hermitian_part((u * fun(w)) @ u.conj().T)


def psd_sqrt(h):
    return eigh_fun(h, np.sqrt)


def psd_inv_sqrt(h):
    return eigh_fun(h, lambda w: 1.0 / np.sqrt(w))

