"""Small dense-matrix helpers used throughout the package.

All matrix functions of Hermitian arguments go through an eigendecomposition
and re-symmetrize the result, so Hermitian invariants survive round-off.
General matrices are exponentiated by :func:`expm`, one vectorized pass over
any stack of matrices.
"""

import numpy as np

__all__ = [
    "hermitian_part",
    "eigh_fun",
    "expm",
    "row_norms",
]


def hermitian_part(a):
    """(A + A^H) / 2 of a square matrix or of each matrix in a stack."""
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def row_norms(x):
    """``np.linalg.norm`` of each row of a complex (q, n), bit for bit."""
    re, im = x.real, x.imag
    return np.sqrt(re[:, None] @ re[..., None] + im[:, None] @ im[..., None])[:, 0, 0]


def eigh_fun(h, fun):
    """Apply a scalar function to a Hermitian matrix through its spectrum."""
    w, u = np.linalg.eigh(h)
    return hermitian_part((u * fun(w)) @ u.conj().T)


# Coefficients of the [13/13] Pade approximant of exp and the largest 1-norm
# at which it is accurate to double precision without scaling (Higham, "The
# scaling and squaring method for the matrix exponential revisited", SIAM J.
# Matrix Anal. Appl. 26, 2005, Table 2.3 and eq. 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a):
    """Matrix exponential of a square matrix or of a stack of them.

    Pade-13 scaling and squaring (Higham 2005), vectorized over all leading
    axes: each matrix is scaled by its own power 2^-s, s = max(0,
    ceil(log2(|A|_1 / theta_13))), so a small matrix in a stack is not
    over-scaled by a large one; the Pade numerator and denominator of the
    whole stack are formed together and solved in one batched call; the
    squaring loop runs to the largest s and squares only the matrices that
    still need it. A stack of diagonal matrices (the lift of a torus flow)
    is exponentiated entrywise instead, as scipy does for each diagonal
    slice. Real input gives a real result, complex a complex one; both are
    computed in double precision.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expm expects square matrices, got shape {a.shape}")
    a = a.astype(np.result_type(a.dtype, np.float64), copy=False)
    if a.size == 0:
        return np.empty_like(a)
    shape, n = a.shape, a.shape[-1]
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    if np.count_nonzero(a) == np.count_nonzero(diag):
        out = np.zeros_like(a)
        out[..., range(n), range(n)] = np.exp(diag)
        return out
    a = a.reshape(-1, n, n)
    # s = ceil(log2(x)) from x = m 2^e with m in [0.5, 1): exact, and 0 for x = 0
    m, e = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA13)
    s = np.maximum(e - (m == 0.5), 0)
    a = a * (0.5 ** s)[:, None, None]

    b = _PADE13
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)

    for k in range(int(s.max())):
        if s.min() > k:
            r = r @ r
        else:
            idx = np.flatnonzero(s > k)
            r[idx] = r[idx] @ r[idx]
    return r.reshape(shape)
