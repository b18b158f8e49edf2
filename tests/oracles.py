"""Independent references for the per-bin FIR fit, on plain arrays.

A filter with p causal and q non-causal taps predicts one bin's clean
trajectory y from its reverberant trajectory x as
yhat(n) = sum_i g(i) * x(n + q - i), i = 0..p+q, with x zero outside its
support. These oracles share no computation with ``ncderev``: they form
the design matrix explicitly, or solve the real and imaginary parts of
the normal equations by block elimination. Only the exception type
``fir.SingularSystemError`` comes from the library.
"""

import warnings

import numpy as np

from ncderev.fir import SingularSystemError

COND_LIMIT = 1e12  # closed_form_filter calls S or D singular above this condition number


def design_matrix(x, p, q, n_rows):
    """Explicit complex design matrix: column i holds x(n + q - i)."""
    x = np.asarray(x, dtype=np.complex128)
    taps = p + q + 1
    idx = np.arange(n_rows)[:, None] + (q - np.arange(taps))[None, :]
    valid = (idx >= 0) & (idx < x.size)
    return np.where(valid, x[np.clip(idx, 0, x.size - 1)], 0.0 + 0.0j)


def ls_oracle(x, y, p, q):
    """Least-squares taps of one bin pair, solved via the design matrix.

    The regression range is n = 0..len(y)-1. The explicit design matrix
    of shifted x values is solved with a rank-revealing factorization
    (SVD); rank deficiency is reported with a warning and the
    minimum-norm solution is returned.
    """
    y = np.asarray(y, dtype=np.complex128)
    z = design_matrix(x, p, q, len(y))
    g, _, rank, _ = np.linalg.lstsq(z, y, rcond=None)
    if rank < p + q + 1:
        warnings.warn(
            f"rank-deficient design matrix (rank {rank} < {p + q + 1}); "
            "returning the minimum-norm solution",
            stacklevel=2,
        )
    return g


def closed_form_filter(gram, corr):
    """Block-elimination closed form of the stacked real system.

    The stacked real system [[S, -D], [D, S]] [g_r; g_j] = [u1; u2] is
    the normal equations (ZᴴZ) g = Zᴴy split into parts: S = Re ZᴴZ,
    D = Im ZᴴZ, u1 = Re Zᴴy, u2 = Im Zᴴy. Eliminating each tap half in
    turn gives

        g_r = (D^-1 S + S^-1 D)^-1 (D^-1 u1 + S^-1 u2)
        g_j = (D^-1 S + S^-1 D)^-1 (D^-1 u2 - S^-1 u1)

    which requires both S and the antisymmetric D to be invertible: D is
    structurally singular for odd tap counts and for purely real or
    purely imaginary trajectories, and those cases raise
    SingularSystemError, to be routed through the complex solve.
    """
    gram = np.asarray(gram, dtype=np.complex128)
    corr = np.asarray(corr, dtype=np.complex128)
    s, d = gram.real, gram.imag
    u1, u2 = corr.real, corr.imag
    if len(gram) % 2 == 1:
        raise SingularSystemError(
            f"odd tap count {len(gram)}: the antisymmetric intermediate "
            "matrix is singular"
        )
    for name, mat in (("S", s), ("D", d)):
        if np.linalg.cond(mat) > COND_LIMIT:
            raise SingularSystemError(
                f"intermediate matrix {name} is singular or near-singular"
            )
    s_inv = np.linalg.inv(s)
    d_inv = np.linalg.inv(d)
    core = np.linalg.inv(d_inv @ s + s_inv @ d)
    g_r = core @ (d_inv @ u1 + s_inv @ u2)
    g_j = core @ (d_inv @ u2 - s_inv @ u1)
    return g_r + 1j * g_j
