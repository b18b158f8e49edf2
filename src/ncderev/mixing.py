"""Semi-enhanced feature generation: convex mixtures of reverberant or
reference-enhanced features with deep-learning-dereverberated features.

Four configurations differ in which two streams are combined:

    1: (1-l) * ref_enhanced + l * derev_of_reverb
    2: (1-l) * ref_enhanced + l * derev_of_ref_enhanced
    3: (1-l) * reverb       + l * derev_of_ref_enhanced
    4: (1-l) * reverb       + l * derev_of_reverb

Mixing operates on MVN'd log-Mel features. A mixture is named by its
configuration id and weight, ``semi_enhance(config_id, lam, streams)``;
the ids are the keys of ``STREAMS_BY_CONFIG`` and the weights come from
the config's ``lambda_grid``, which is checked to lie in [0, 1] where it
is read. The mixing weight is tuned per held-out subset by
feature-domain MSE against clean references, and an average optimum is
reported across subsets.

The reference enhancer producing ``ref_enhanced`` is chosen once per run
from ``ENHANCERS``: "identity" passes the reverberant spectrogram
through; "causal-fir" applies per-bin causal filters (q = 0), which
``fir.fit_pooled_filters`` fits on the train split and
``kernels.apply_fir`` applies, standing in for an external dereverberator.
"""

import numpy as np

from .mlp import mse_loss

STREAMS = ("reverb", "ref_enhanced", "derev_of_reverb", "derev_of_ref_enhanced")

STREAMS_BY_CONFIG = {
    1: ("ref_enhanced", "derev_of_reverb"),
    2: ("ref_enhanced", "derev_of_ref_enhanced"),
    3: ("reverb", "derev_of_ref_enhanced"),
    4: ("reverb", "derev_of_reverb"),
}

ENHANCERS = ("identity", "causal-fir")


def semi_enhance(config_id: int, lam: float, streams) -> np.ndarray:
    """Per-frame, per-dimension mixture (1-lam)*first + lam*second of the
    two streams that ``STREAMS_BY_CONFIG[config_id]`` names.

    ``streams`` maps stream names to equal-shaped feature matrices. At
    lam = 0 and lam = 1 the respective stream is returned bit-exactly.
    """
    first_name, second_name = STREAMS_BY_CONFIG[config_id]
    for name in (first_name, second_name):
        if name not in streams or streams[name] is None:
            raise ValueError(f"configuration {config_id} requires stream {name!r}")
    first = np.asarray(streams[first_name], dtype=np.float64)
    second = np.asarray(streams[second_name], dtype=np.float64)
    if first.shape != second.shape:
        raise ValueError(
            f"stream shape mismatch: {first_name} {first.shape} vs "
            f"{second_name} {second.shape}"
        )
    if lam == 0.0:
        return first.copy()
    if lam == 1.0:
        return second.copy()
    return (1.0 - lam) * first + lam * second


def lambda_sweep(subsets, grid, config_id: int):
    """Grid-search the mixing weight per subset by MSE to clean references.

    Args:
        subsets: mapping subset name -> list of (streams, clean) pairs,
            where streams feeds :func:`semi_enhance` and clean is the
            equal-shaped reference feature matrix.
        grid: iterable of candidate weights (evaluated in the given
            order; ties resolve to the earlier = smaller weight).
        config_id: which of the four mixtures to tune.

    Returns:
        (per_subset, average, cells): the per-subset optimal weight, the
        arithmetic mean of those optima, and every evaluated cell as a
        (subset, config_id, lambda, mse) tuple.
    """
    grid = [float(v) for v in grid]
    if not grid:
        raise ValueError("lambda grid must be non-empty")
    if not subsets:
        raise ValueError("no subsets supplied")
    per_subset = {}
    cells = []
    for name in subsets:
        pairs = list(subsets[name])
        if not pairs:
            raise ValueError(f"empty subset {name!r}")
        best_lam = None
        best_mse = np.inf
        for lam in grid:
            total = 0.0
            count = 0
            for streams, clean in pairs:
                mixed = semi_enhance(config_id, lam, streams)
                clean = np.asarray(clean, dtype=np.float64)
                if mixed.shape != clean.shape:
                    raise ValueError(
                        f"subset {name!r}: clean reference shape {clean.shape} "
                        f"does not match streams {mixed.shape}"
                    )
                total += mse_loss(mixed, clean)
                count += 1
            mse = total / count
            cells.append((name, config_id, lam, mse))
            # ties (including float-rounding pseudo-ties of identical
            # streams) resolve to the earlier, smaller weight
            if mse < best_mse * (1.0 - 1e-12):
                best_mse = mse
                best_lam = lam
        per_subset[name] = best_lam
    average = float(np.mean(list(per_subset.values())))
    return per_subset, average, cells
