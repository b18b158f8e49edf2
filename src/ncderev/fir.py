"""Per-frequency-bin non-causal complex FIR estimation of clean bin trajectories.

A filter with p causal and q non-causal taps predicts the clean trajectory
of one STFT bin from the reverberant one,

    yhat(n) = sum_i g(i) * x(n + q - i),   i = 0..p+q,

with x zero outside its support. Writing Z for the design whose column i
holds x(n + q - i), the minimizer of sum_n |yhat(n) - y(n)|^2 over complex
taps solves the complex normal equations

    (ZᴴZ) g = Zᴴy.

This n x n complex solve, n = p+q+1, is the production path. The paper's
stacked real system [[S, -D], [D, S]] [g_r; g_j] = [u1; u2] is the same
equation split into real and imaginary parts: S = Re ZᴴZ, D = Im ZᴴZ,
u1 = Re Zᴴy and u2 = Im Zᴴy. Its block-elimination closed form exists when
S and D are both invertible and is kept as a verification path; D is
antisymmetric, hence singular whenever the tap count is odd and whenever
the trajectory is purely real or purely imaginary, so the closed form is
never used for production fits.

``ls_oracle`` solves the same problem independently through the explicit
complex design matrix and a rank-revealing factorization.

Every fit runs on complex (frames, bins) spectrogram arrays behind one
pair check; the single-bin functions fit their 1-D trajectories as one
column. Spectrogram fits (``fit_pooled_filters``,
``dereverberate_spectrogram``) return the taps as one complex array of
shape (bins, p+q+1), row k holding bin k's g; ``kernels.apply_fir``
applies it. ``NcFirFilter`` holds one bin's taps.

Every Gram comes from ``kernels.normal_blocks``, which never forms Z:
column i + 1 of Z is column i one frame later, so per bin two lag
correlations give Zᴴy and the Gram's first row, and a rank-2 recursion
along the diagonals gives the rest.

``context_sweep`` consumes its iterable of pairs once and builds one Gram
per utterance at (max p, max q) of its grid. Column s of that design is
x(n + Q - s) whatever the cell, so every cell's Gram and Zᴴy are a
principal block and subvector of it, and each cell's error comes from
the quadratic form ‖y‖² - 2 Re(gᴴr) + gᴴGg without applying the filter.
With the recursion the wide Gram costs O(taps²) per bin beyond its two
correlations, so the entries no cell reads cost little.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels

COND_LIMIT = 1e12  # closed_form_filter calls S or D singular above this condition number


class SingularSystemError(np.linalg.LinAlgError):
    """Normal equations are singular; a ridge term is required."""


@dataclass(frozen=True)
class NcFirFilter:
    """Complex FIR taps of one bin; index i multiplies x(n + q - i)."""

    taps: np.ndarray
    p: int
    q: int

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.complex128)
        n = self.p + self.q + 1
        if taps.shape != (n,):
            raise ValueError(f"taps must have length p+q+1 = {n}, got {taps.shape}")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        object.__setattr__(self, "taps", taps)


@dataclass(frozen=True)
class NormalSystem:
    """Complex normal equations (ZᴴZ) g = Zᴴy of one bin pair."""

    gram: np.ndarray
    corr: np.ndarray
    p: int
    q: int

    def __post_init__(self):
        n = self.p + self.q + 1
        gram = np.asarray(self.gram, dtype=np.complex128)
        corr = np.asarray(self.corr, dtype=np.complex128)
        if gram.shape != (n, n):
            raise ValueError(f"gram must be {n}x{n}, got {gram.shape}")
        if corr.shape != (n,):
            raise ValueError(f"corr must have length {n}, got {corr.shape}")
        if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(corr))):
            raise ValueError("normal equations have non-finite entries")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "corr", corr)

    @property
    def taps(self) -> int:
        return self.p + self.q + 1


def _check_pair(x, y, p, q):
    """Reject a reverberant x / clean y pair of (frames, bins) arrays that
    a (p, q) fit cannot use, before any Gram is built."""
    if p < 0 or q < 0:
        raise ValueError(f"p and q must be >= 0, got ({p}, {q})")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"bin count mismatch: {x.shape[1]} vs {y.shape[1]}")
    if len(y) > len(x):
        raise ValueError(
            f"clean has more frames ({len(y)}) than reverb ({len(x)})"
        )
    if p + q + 1 > len(y):
        raise ValueError(
            f"underdetermined: {p + q + 1} taps but only {len(y)} frames"
        )


def _columns(x, y):
    """One bin's (reverb, clean) trajectories as (frames, 1) columns."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("trajectories must be 1-D")
    if x.size == 0 or y.size == 0:
        raise ValueError("empty trajectory")
    return x[:, None], y[:, None]


def build_normal_system(x, y, p, q) -> NormalSystem:
    """Gram ZᴴZ and correlation Zᴴy for one bin pair.

    The regression range is n = 0..len(y)-1 and the reverberant
    trajectory is zero-padded outside its support on both ends.
    """
    x, y = _columns(x, y)
    _check_pair(x, y, p, q)
    gram, corr = kernels.normal_blocks(x, y, q, p + q + 1)
    return NormalSystem(gram=gram[0], corr=corr[0], p=p, q=q)


def _solve(gram, corr, ridge):
    """Solve (G + ridge I) g = r for each bin; gram (K, n, n), corr (K, n).

    ridge is a nonnegative number shared by all bins, or "auto" for the
    scale-invariant per-bin floor 1e-8 * Re tr(G) / n.
    """
    taps = gram.shape[-1]
    if ridge == "auto":
        ridge = 1e-8 * np.trace(gram, axis1=1, axis2=2).real / taps
    elif ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    # one copy, loaded on its diagonal in place, for gram may be a view;
    # adding 0.0 turns -0.0 entries into +0.0 as adding ridge * I does
    a = gram + 0.0
    diagonal = np.arange(taps)
    a[:, diagonal, diagonal] += np.reshape(ridge, (-1, 1))
    try:
        g = np.linalg.solve(a, corr[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        g = np.empty_like(corr)
        for k in range(len(a)):
            try:
                g[k] = np.linalg.solve(a[k], corr[k])
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(
                    f"bin {k}: singular normal equations; supply ridge"
                ) from exc
    bad = np.flatnonzero(~np.all(np.isfinite(g), axis=1))
    if bad.size:
        raise SingularSystemError(
            f"bin {bad[0]}: singular normal equations; supply ridge"
        )
    return g


def solve_normal_system(system: NormalSystem, ridge=0.0) -> NcFirFilter:
    """Solve the complex normal equations, optionally with a ridge on the diagonal."""
    g = _solve(system.gram[None], system.corr[None], ridge)
    return NcFirFilter(g[0], system.p, system.q)


def fit_filter(x, y, p, q, ridge=0.0) -> NcFirFilter:
    """MSE-optimal complex FIR taps for one bin trajectory pair.

    Args:
        x: reverberant bin trajectory (complex, len >= len(y)).
        y: clean bin trajectory.
        p, q: causal and non-causal context in frames.
        ridge: nonnegative diagonal loading; "auto" selects a
            scale-invariant floor of 1e-8 * Re tr(ZᴴZ)/(p+q+1).

    Raises SingularSystemError when the normal equations are singular
    and ridge is zero.
    """
    return solve_normal_system(build_normal_system(x, y, p, q), ridge=ridge)


def closed_form_filter(system: NormalSystem) -> NcFirFilter:
    """Block-elimination closed form of the stacked system (verification path).

    The stacked real system [[S, -D], [D, S]] [g_r; g_j] = [u1; u2] is
    the normal equations split into parts: S = Re ZᴴZ, D = Im ZᴴZ,
    u1 = Re Zᴴy, u2 = Im Zᴴy. Eliminating each tap half in turn gives

        g_r = (D^-1 S + S^-1 D)^-1 (D^-1 u1 + S^-1 u2)
        g_j = (D^-1 S + S^-1 D)^-1 (D^-1 u2 - S^-1 u1)

    which requires both S and the antisymmetric D to be invertible: D is
    structurally singular for odd tap counts and for purely real or
    purely imaginary trajectories, and those cases must go through
    ``solve_normal_system`` instead.
    """
    s = system.gram.real
    d = system.gram.imag
    u1 = system.corr.real
    u2 = system.corr.imag
    if system.taps % 2 == 1:
        raise SingularSystemError(
            f"odd tap count {system.taps}: the antisymmetric intermediate "
            "matrix is singular; use solve_normal_system"
        )
    for name, mat in (("S", s), ("D", d)):
        if np.linalg.cond(mat) > COND_LIMIT:
            raise SingularSystemError(
                f"intermediate matrix {name} is singular or near-singular; "
                "use solve_normal_system"
            )
    s_inv = np.linalg.inv(s)
    d_inv = np.linalg.inv(d)
    core = np.linalg.inv(d_inv @ s + s_inv @ d)
    g_r = core @ (d_inv @ u1 + s_inv @ u2)
    g_j = core @ (d_inv @ u2 - s_inv @ u1)
    return NcFirFilter(g_r + 1j * g_j, system.p, system.q)


def design_matrix(x, p, q, n_rows: int) -> np.ndarray:
    """Explicit complex design matrix: column i holds x(n + q - i)."""
    x = np.asarray(x, dtype=np.complex128)
    taps = p + q + 1
    idx = np.arange(n_rows)[:, None] + (q - np.arange(taps))[None, :]
    valid = (idx >= 0) & (idx < x.size)
    return np.where(valid, x[np.clip(idx, 0, x.size - 1)], 0.0 + 0.0j)


def ls_oracle(x, y, p, q) -> NcFirFilter:
    """Independent least-squares reference solved via the design matrix.

    Builds the explicit complex design matrix of shifted x values and
    solves with a rank-revealing factorization (SVD); rank deficiency is
    reported with a warning and the minimum-norm solution is returned.
    """
    x, y = _columns(x, y)
    _check_pair(x, y, p, q)
    z = design_matrix(x[:, 0], p, q, len(y))
    g, _, rank, _ = np.linalg.lstsq(z, y[:, 0], rcond=None)
    if rank < p + q + 1:
        warnings.warn(
            f"rank-deficient design matrix (rank {rank} < {p + q + 1}); "
            "returning the minimum-norm solution",
            stacklevel=2,
        )
    return NcFirFilter(g, p, q)


def fit_pooled_filters(pairs, p: int, q: int, ridge="auto") -> np.ndarray:
    """Fit one filter per bin on the pooled normal equations of many pairs.

    The Gram ZᴴZ and correlation Zᴴy are additive over utterances, so
    pooling sums them before a single per-bin solve; with one pair this
    is that pair's own fit. Each pair and its Gram are released before
    the next pair is drawn, so a generator of pairs holds one utterance
    at a time beside the sums.

    Args:
        pairs: iterable of (reverb, clean) complex (frames, bins)
            spectrogram pairs with one common bin count.
        ridge: per-bin diagonal loading ("auto" for the scale-invariant
            default, a number to share one value across bins).

    Returns:
        Complex taps of shape (bins, p+q+1); tap i of row k multiplies
        bin k's x(n + q - i).
    """
    taps = p + q + 1
    gram_sum = None
    corr_sum = None
    for reverb, clean in pairs:
        _check_pair(reverb, clean, p, q)
        if gram_sum is not None and reverb.shape[1] != len(gram_sum):
            raise ValueError(
                f"bin count differs across pairs: {len(gram_sum)} vs {reverb.shape[1]}")
        gram, corr = kernels.normal_blocks(reverb, clean, q, taps)
        if gram_sum is None:
            gram_sum, corr_sum = gram, corr
        else:
            gram_sum += gram
            corr_sum += corr
        # the generator builds the next pair while these names still hold
        # this one
        del reverb, clean, gram, corr
    if gram_sum is None:
        raise ValueError("no pairs supplied")
    return _solve(gram_sum, corr_sum, ridge)


def dereverberate_spectrogram(reverb, clean, p: int, q: int, ridge="auto"):
    """Fit and apply one filter per frequency bin independently.

    Args:
        reverb: complex (frames, bins) spectrogram supplying the filter
            input X.
        clean: spectrogram supplying the regression target Y; must have
            the same bin count and at most as many frames.
        ridge: as in ``fit_pooled_filters``.

    Returns:
        (estimate, taps, errors): the estimated-clean (frames, bins)
        spectrogram with clean's frame count, the (bins, p+q+1) complex
        taps of ``fit_pooled_filters``, and the per-bin squared prediction
        errors.
    """
    g = fit_pooled_filters([(reverb, clean)], p, q, ridge)
    estimate = kernels.apply_fir(g, reverb, q, len(clean))
    return estimate, g, np.sum(np.abs(estimate - clean) ** 2, axis=0)


@dataclass(frozen=True)
class SweepRow:
    """One (p, q) cell of a context sweep."""

    p: int
    q: int
    taps: int
    ratio_percent: float
    mean_err: float
    utterance_count: int


def _cell_errors(gram, corr, energy, frames, grid, ridge):
    """Every grid cell's prediction error on one pair over its clean energy.

    gram and corr are the pair's normal equations at (P, Q) = (max p,
    max q) of the grid; cell (p, q)'s are the principal block and
    subvector on rows Q-q .. Q+p. energy is the clean energy per bin,
    summed over the pair's frames.
    """
    wide_q = max(q for _, q in grid)
    errors = np.empty(len(grid))
    for c, (p, q) in enumerate(grid):
        rows = slice(wide_q - q, wide_q + p + 1)
        g_cell, r_cell = gram[:, rows, rows], corr[:, rows]
        g = _solve(g_cell, r_cell, ridge)
        err = (energy - 2.0 * np.einsum("ki,ki->k", g.conj(), r_cell).real
               + np.einsum("ki,kij,kj->k", g.conj(), g_cell, g).real)
        # rounding in G, Zᴴy and ‖y‖² leaves err uncertain by up to
        # Nc·ε·(‖y‖ + Σ|g_i|·√G_ii)²; an error inside that bound reads as 0
        scale = np.sqrt(energy) + np.sum(
            np.abs(g) * np.sqrt(np.diagonal(g_cell, axis1=1, axis2=2).real), axis=1)
        bound = frames * np.finfo(np.float64).eps * scale ** 2
        errors[c] = np.sum(err[err > bound])
    total = energy.sum()
    return errors / total if total > 0 else errors


def context_sweep(pairs, grid, ridge="auto"):
    """Mean normalized prediction error over a corpus for each (p, q).

    For every grid cell the per-utterance error is the total squared
    prediction error over all bins divided by the clean energy
    sum |Y|^2; rows carry 100*p/(p+q) for fixed-tap-count slices (NaN
    for the (0, 0) cell). Each utterance gets one Gram at the grid's
    (max p, max q), whose principal blocks are every cell's Gram, and
    each cell's error comes from the quadratic form
    ‖y‖² - 2 Re(gᴴr) + gᴴGg, so no filter is applied. The pair is
    released before its cells are solved, and its Gram before the next
    pair is drawn.

    Args:
        pairs: iterable of (reverb, clean) complex (frames, bins)
            spectrogram pairs, consumed once.
        grid: iterable of (p, q) tuples.
        ridge: as in ``fit_pooled_filters``.

    Returns:
        List of SweepRow in grid order.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("corpus and grid must be non-empty")
    wide_p = max(p for p, _ in grid)
    wide_q = max(q for _, q in grid)
    total = np.zeros(len(grid))
    count = 0
    for x, y in pairs:
        for p, q in grid:
            _check_pair(x, y, p, q)
        gram, corr = kernels.normal_blocks(x, y, wide_q, wide_p + wide_q + 1)
        energy, frames = np.sum(np.abs(y) ** 2, axis=0), len(y)
        # one pair, then one Gram, is alive at a time
        del x, y
        total += _cell_errors(gram, corr, energy, frames, grid, ridge)
        del gram, corr
        count += 1
    if not count:
        raise ValueError("corpus and grid must be non-empty")
    return [
        SweepRow(p=p, q=q, taps=p + q + 1,
                 ratio_percent=100.0 * p / (p + q) if (p + q) > 0 else float("nan"),
                 mean_err=float(err / count), utterance_count=count)
        for (p, q), err in zip(grid, total)
    ]
