"""Small dense-matrix helpers used throughout the package.

Hermitian results are re-symmetrized by :func:`hermitian_part`, so Hermitian
invariants survive round-off. Every general matrix exponential of the package
comes from :func:`exp_phi1`, the pair (e^M, phi1(M)) from matrix products
alone, one vectorized pass over any stack of matrices; :func:`expm` is its
e^M.
"""

import math

import numpy as np

__all__ = ["hermitian_part", "exp_phi1", "expm", "row_norms"]


def hermitian_part(a):
    """(A + A^H) / 2 of a square matrix or of each matrix in a stack."""
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def row_norms(x):
    """``np.linalg.norm`` of each row of a complex (q, n), bit for bit."""
    re, im = x.real, x.imag
    return np.sqrt(re[:, None] @ re[..., None] + im[:, None] @ im[..., None])[:, 0, 0]


# phi1's coefficients 1/(j + 1)!, j < 20, in rows of four; theta_q bounds the x
# with x^q/(q + 1)! <= 2^-53 (Bader, Blanes and Casas, Mathematics 7, 2019).
_PHI1 = (1.0 / np.cumprod(np.arange(1.0, 21.0))).reshape(5, 4)
_THETA = np.array([(math.factorial(q + 1) * 2.0 ** -53) ** (1.0 / q) for q in (4, 8, 12, 16, 20)])


def exp_phi1(m):
    """The pair (e^M, phi1(M)), phi1(M) = (e^M - 1) / M, of a real or complex
    square matrix or of each matrix in a stack.

    A stack of diagonal matrices goes entrywise: e^d, and expm1(d) / d or,
    where |d| < 2^-53, exactly 1 (within half an ulp of 1 + d/2, and no
    overflow at a complex subnormal d). Otherwise each matrix is scaled by
    its own 2^-s to A with |A|_1 <= 1; phi1(A) is its Taylor series to the
    fewest of 4, 8, 12, 16 and 20 terms whose theta_q bounds the stack's
    largest |A|_1, in blocks (I, A, A^2, A^3) (A^4)^r, and e^A = I + A
    phi1(A); then s doublings phi1(2A) = phi1(A) (e^A + I) / 2, e^2A =
    (e^A)^2, each on the matrices that still need it. There is no solve,
    M = 0 gives exactly (I, I), and real input gives real results.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"exp_phi1 expects square matrices, got shape {m.shape}")
    a = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    if a.size == 0:
        return np.empty_like(a), np.empty_like(a)
    shape, n = a.shape, a.shape[-1]
    a = a.reshape(-1, n, n)
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    if np.count_nonzero(a) == np.count_nonzero(diag):
        ex, phi = np.zeros(a.shape, a.dtype), np.zeros(a.shape, a.dtype)
        ex.reshape(-1, n * n)[:, ::n + 1] = np.exp(diag)    # the diagonals, in place
        phi.reshape(-1, n * n)[:, ::n + 1] = np.divide(
            np.expm1(diag), diag, out=np.ones_like(diag), where=~(np.abs(diag) < 2.0 ** -53))
        return ex.reshape(shape), phi.reshape(shape)
    # s = ceil(log2(x)) from x = f 2^e with f in [0.5, 1): exact, and 0 for x = 0
    mant, e = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1))
    s = np.maximum(e - (mant == 0.5), 0)
    if s.any():
        a = a * (0.5 ** s)[:, None, None]
    rows = 1 + np.searchsorted(_THETA, np.ldexp(mant, e - s).max())    # q = 4 rows
    eye, a2 = np.eye(n), a @ a
    powers = np.stack(np.broadcast_arrays(eye, a, a2, a2 @ a))    # on the real view: dgemm
    blocks = np.tensordot(_PHI1[:rows], powers.view(float), 1).view(a.dtype)
    phi = blocks[-1]
    if rows > 1:
        a4 = a2 @ a2
        for block in blocks[-2::-1]:
            phi = block + a4 @ phi
    ex = eye + a @ phi
    for j in range(int(s.max())):
        idx = slice(None) if s.min() > j else np.flatnonzero(s > j)
        phi[idx] = 0.5 * (phi[idx] @ (ex[idx] + eye))
        ex[idx] = ex[idx] @ ex[idx]
    return ex.reshape(shape), phi.reshape(shape)


def expm(a):
    """e^A of a square matrix or of each matrix in a stack: :func:`exp_phi1`'s first."""
    return exp_phi1(a)[0]
