"""Small dense-matrix helpers used throughout the package.

Hermitian results are re-symmetrized by :func:`hermitian_part`, so Hermitian
invariants survive round-off. General matrices are exponentiated by
:func:`expm`, one vectorized pass over any stack of matrices.
"""

import numpy as np

__all__ = [
    "hermitian_part",
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


# Coefficients of the [m/m] Pade approximants of exp and the largest 1-norm
# theta_m at which each is accurate to double precision unscaled (Higham, "The
# scaling and squaring method for the matrix exponential revisited", SIAM J.
# Matrix Anal. Appl. 26, 2005, Table 2.3 and eq. 2.3), as in scipy.linalg.expm.
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
          (7, 9.504178996162932e-1), (9, 2.097847961257068e0), (13, 5.371920351148152))


def expm(a):
    """Matrix exponential of a square matrix or of a stack of them.

    Pade scaling and squaring (Higham 2005), vectorized over all leading
    axes. The Pade degree m is the lowest of 3, 5, 7, 9 and 13 whose theta_m
    bounds the stack's largest 1-norm; past theta_13 each matrix is scaled
    by its own 2^-s, s = ceil(log2(|A|_1 / theta_13)), so a small matrix is
    not over-scaled by a large one, and the squaring loop squares only the
    matrices that still need it. The numerator and denominator of the whole
    stack are formed together and solved in one batched call. A stack of
    diagonal matrices is exponentiated entrywise, as scipy does. Real input
    gives a real result, complex a complex one.
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
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    m = next((m for m, theta in _THETA if norms.max() <= theta), 13)
    # s = ceil(log2(x)) from x = m 2^e with m in [0.5, 1): exact, and 0 for x = 0
    mant, e = np.frexp(norms / _THETA[-1][1])
    s = np.maximum(e - (mant == 0.5), 0) if m == 13 else np.zeros(len(a), dtype=int)
    a = a * (0.5 ** s)[:, None, None]
    powers = [np.eye(n), a @ a]    # the even powers up to A^(m - 1)
    for _ in range(m // 2 - 1):
        powers.append(powers[-1] @ powers[1])
    b = _PADE[m]
    u = a @ sum(b[2 * j + 1] * x for j, x in enumerate(powers))
    v = sum(b[2 * j] * x for j, x in enumerate(powers))
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max())):
        if s.min() > k:
            r = r @ r
        else:
            idx = np.flatnonzero(s > k)
            r[idx] = r[idx] @ r[idx]
    return r.reshape(shape)
