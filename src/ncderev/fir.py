"""Per-frequency-bin non-causal complex FIR estimation of clean bin trajectories.

A filter with p causal and q non-causal taps predicts the clean trajectory
of one STFT bin from the reverberant one,

    yhat(n) = sum_i g(i) * x(n + q - i),   i = 0..p+q,

with x zero outside its support. Writing Z for the design whose column i
holds x(n + q - i), the minimizer of sum_n |yhat(n) - y(n)|^2 over complex
taps solves the complex normal equations

    (ZᴴZ) g = Zᴴy.

Every fit solves this n x n complex system, n = p+q+1, for every bin of
complex (frames, bins) spectrogram arrays behind one pair check; one
bin's fit is that of a (frames, 1) pair. ``fit_pooled_filters`` and
``dereverberate_spectrogram`` return the taps as one complex array of
shape (bins, p+q+1), row k holding bin k's g; ``kernels.apply_fir``
applies it. The independent references that check these fits (an
explicit design matrix solved by least squares, and the paper's
block-elimination closed form of the real and imaginary parts) live with
the tests, in ``tests/oracles.py``.

Every Gram comes from ``kernels.normal_blocks``, which never forms Z:
column i + 1 of Z is column i one frame later, so per bin two lag
correlations give Zᴴy and the Gram's first row, and a rank-2 recursion
along the diagonals gives the rest.

``context_sweep`` consumes its iterable of pairs once and builds one Gram
per utterance at (max p, max q) of its grid. Column s of that design is
x(n + Q - s) whatever the cell, so every cell's Gram and Zᴴy are a
principal block and subvector of it, and each cell's error, like
``dereverberate_spectrogram``'s, comes from ``_residuals`` without
applying the filter. With the recursion the wide Gram costs O(taps²) per
bin beyond its two correlations, so the entries no cell reads cost little.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels


class SingularSystemError(np.linalg.LinAlgError):
    """Normal equations are singular; a ridge term is required."""


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


def _solve(gram, corr, ridge):
    """Solve (G + ridge I) g = r for each bin; gram (K, n, n), corr (K, n).

    ridge is a nonnegative number shared by all bins, or "auto" for the
    scale-invariant per-bin floor 1e-8 * Re tr(G) / n. The diagonal of
    ``gram`` is loaded in place, so a caller passes a Gram it no longer
    needs, or a copy. Returns the (K, n) taps and the (K,) ridge loaded.
    """
    taps = gram.shape[-1]
    if ridge == "auto":
        ridge = 1e-8 * np.trace(gram, axis1=1, axis2=2).real / taps
    elif ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    ridge = np.broadcast_to(ridge, len(gram))
    # adding 0.0 turns -0.0 entries into +0.0 as adding ridge * I does
    gram += 0.0
    diagonal = np.arange(taps)
    gram[:, diagonal, diagonal] += ridge[:, None]
    try:
        g = np.linalg.solve(gram, corr[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        g = np.empty_like(corr)
        for k in range(len(gram)):
            try:
                g[k] = np.linalg.solve(gram[k], corr[k])
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(
                    f"bin {k}: singular normal equations; supply ridge"
                ) from exc
    bad = np.flatnonzero(~np.all(np.isfinite(g), axis=1))
    if bad.size:
        raise SingularSystemError(
            f"bin {bad[0]}: singular normal equations; supply ridge"
        )
    return g, ridge


def _residuals(g, corr, ridge, energy, diagonal, frames):
    """Per-bin error ‖Zg - y‖² of taps g that solve (G + ridge I) g = r.

    Then gᴴGg = gᴴr - ridge‖g‖², so the error ‖y‖² - 2Re(gᴴr) + gᴴGg is
    ‖y‖² - Re(gᴴr) - ridge‖g‖². energy holds ‖y‖², which callers take from
    ``np.vecdot`` without a temporary of y's size. Rounding leaves the
    error uncertain by up to frames·ε·(‖y‖ + Σ|g_i|·√G_ii)², diagonal
    holding the unloaded G_ii; an error inside that bound reads as 0.
    """
    magnitudes = np.abs(g)
    err = (energy - np.einsum("ki,ki->k", g.conj(), corr).real
           - ridge * np.einsum("ki,ki->k", magnitudes, magnitudes))
    scale = np.sqrt(energy) + np.sum(magnitudes * np.sqrt(diagonal), axis=1)
    bound = frames * np.finfo(np.float64).eps * scale ** 2
    return np.where(err > bound, err, 0.0)


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
    return _solve(gram_sum, corr_sum, ridge)[0]


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
        errors of ``_residuals``.
    """
    _check_pair(reverb, clean, p, q)
    gram, corr = kernels.normal_blocks(reverb, clean, q, p + q + 1)
    diagonal = np.diagonal(gram, axis1=1, axis2=2).real.copy()
    g, loaded = _solve(gram, corr, ridge)
    del gram  # released before the estimate is allocated
    errors = _residuals(g, corr, loaded, np.vecdot(clean, clean, axis=0).real,
                        diagonal, len(clean))
    return kernels.apply_fir(g, reverb, q, len(clean)), g, errors


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
        # the solve loads a copy: the wide Gram serves the other cells
        g, loaded = _solve(g_cell.copy(), r_cell, ridge)
        errors[c] = np.sum(_residuals(
            g, r_cell, loaded, energy, np.diagonal(g_cell, axis1=1, axis2=2).real, frames))
    total = energy.sum()
    return errors / total if total > 0 else errors


def context_sweep(pairs, grid, ridge="auto"):
    """Mean normalized prediction error over a corpus for each (p, q).

    For every grid cell the per-utterance error is the total squared
    prediction error over all bins divided by the clean energy
    sum |Y|^2; rows carry 100*p/(p+q) for fixed-tap-count slices (NaN
    for the (0, 0) cell). Each utterance gets one Gram at the grid's
    (max p, max q), whose principal blocks are every cell's Gram, and
    each cell's error comes from ``_residuals``, so no filter is
    applied. The pair is released before its cells are solved, and its
    Gram before the next pair is drawn.

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
        energy, frames = np.vecdot(y, y, axis=0).real, len(y)
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
