"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The synthetic corpus (24 utterances, RT60 in [0.4, 1.0]) is built
once per session.
"""

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from conftest import fit_bin, synth_speech
from ncderev import cli, corpus, diagnostics, dsp, features, fir, kernels, mixing, mlp, rir
from oracles import closed_form_filter, ls_oracle


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def rand_traj(rng, n, kind):
    if kind == "real":
        return rng.normal(size=n).astype(complex)
    if kind == "imag":
        return 1j * rng.normal(size=n)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


@dataclass
class Utterance:
    name: str
    split: str
    rt60: float
    clean_spec: np.ndarray
    reverb_spec: np.ndarray
    clean_feats: np.ndarray
    reverb_feats: np.ndarray


@pytest.fixture(scope="session")
def accept_corpus():
    """24 synthetic utterances convolved with sampled impulse responses."""
    candidates = [f"utt{i:03d}" for i in range(200)]
    names = ([n for n in candidates if corpus.split_of(n) == "train"][:16]
             + [n for n in candidates if corpus.split_of(n) == "dev"][:4]
             + [n for n in candidates if corpus.split_of(n) == "test"][:4])
    utterances = []
    for i, name in enumerate(names):
        clean = synth_speech(np.random.default_rng((500, i)), duration=1.4)
        spec = rir.sample_room(np.random.default_rng((501, i)),
                               rt60_range=(0.4, 1.0))
        impulse = rir.image_method_rir(spec)
        reverb = dsp.convolve(clean, impulse.taps)
        clean_spec = dsp.stft(clean)
        reverb_spec = dsp.stft(reverb)
        clean_feats = features.mvn(features.log_mel(clean_spec))
        reverb_feats = features.mvn(features.log_mel(reverb_spec))
        reverb_feats, clean_feats = features.align_pairs(reverb_feats, clean_feats)
        utterances.append(Utterance(
            name=name, split=corpus.split_of(name), rt60=spec.rt60,
            clean_spec=clean_spec, reverb_spec=reverb_spec,
            clean_feats=clean_feats, reverb_feats=reverb_feats,
        ))
    return utterances


def test_criterion_1_oracle_equivalence():
    """One bin's batched fit matches the complex least-squares oracle on
    100 instances."""
    rng = np.random.default_rng(1000)
    fit_bin(rand_traj(rng, 30, "complex"),
            rand_traj(rng, 30, "complex"), 1, 1)  # kernel warmup
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        kind = ("real", "imag", "complex", "complex", "complex")[i % 5]
        x = rand_traj(rng, 200, kind)
        y = rand_traj(rng, 200, kind)
        p = int(rng.integers(0, 6))
        q = int(rng.integers(0, 6))
        got = fit_bin(x, y, p, q)
        want = ls_oracle(x, y, p, q)
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-6 and elapsed < 10.0,
           f"worst tap-norm rel {worst:.2e}, {elapsed:.2f}s for 100 instances")


def test_criterion_2_closed_form_agreement():
    """Closed-form evaluation matches the stacked solve on even tap counts;
    the purely real case routes through the direct solve."""
    rng = np.random.default_rng(2000)
    shapes = [(1, 0), (0, 1), (2, 1), (1, 2), (3, 2), (2, 3), (5, 4), (4, 5)]
    worst = 0.0
    count = 0
    for trial in range(7):
        for p, q in shapes:
            x = rand_traj(rng, 200, "complex")
            y = rand_traj(rng, 200, "complex")
            gram, corr = kernels.normal_blocks(x[:, None], y[:, None], q, p + q + 1)
            direct = fit_bin(x, y, p, q)
            closed = closed_form_filter(gram[0], corr[0])
            worst = max(worst, np.linalg.norm(closed - direct)
                        / np.linalg.norm(direct))
            count += 1
    x = rand_traj(rng, 150, "real")
    y = rand_traj(rng, 150, "real")
    gram, corr = kernels.normal_blocks(x[:, None], y[:, None], 1, 4)
    with pytest.raises(fir.SingularSystemError):
        closed_form_filter(gram[0], corr[0])
    routed = fit_bin(x, y, 2, 1)  # no error
    oracle = ls_oracle(x, y, 2, 1)
    routed_ok = (np.linalg.norm(routed - oracle)
                 / np.linalg.norm(oracle) <= 1e-8)
    report(2, worst <= 1e-8 and count >= 50 and routed_ok,
           f"worst rel {worst:.2e} over {count} instances; real case routed")


def test_criterion_3_nested_context_monotonicity(accept_corpus):
    """In-sample error never increases when the context set is enlarged."""
    grid = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (5, 5)]
    chains = [[(0, 0), (1, 0), (1, 1), (2, 2), (5, 5)],
              [(0, 0), (0, 1), (1, 1), (2, 2), (5, 5)]]
    violations = 0
    worst_gap = 0.0
    for utt in accept_corpus[:20]:
        errs = {}
        for p, q in grid:
            _, _, errors = fir.dereverberate_spectrogram(
                utt.reverb_spec, utt.clean_spec, p, q, ridge=0.0)
            denom = float(np.sum(np.abs(utt.clean_spec) ** 2))
            errs[(p, q)] = float(errors.sum()) / denom
        for chain in chains:
            for small, big in zip(chain, chain[1:]):
                gap = errs[big] - errs[small]
                worst_gap = max(worst_gap, gap)
                if gap > 1e-9:
                    violations += 1
    report(3, violations == 0,
           f"20 utterances x grid {grid}, worst enlargement gap {worst_gap:.2e}")


@pytest.fixture(scope="session")
def noncausal_sweep(accept_corpus):
    pairs = [(u.reverb_spec, u.clean_spec) for u in accept_corpus]
    start = time.perf_counter()
    rows = fir.context_sweep(pairs, [(10, 10), (20, 0)])
    return rows, time.perf_counter() - start


def test_criterion_4_noncausal_benefit(accept_corpus, noncausal_sweep):
    """With 21 taps, the split-context filter beats the purely causal one."""
    rows, elapsed = noncausal_sweep
    split_err = rows[0].mean_err
    causal_err = rows[1].mean_err
    report(4, split_err <= causal_err and elapsed < 300.0,
           f"mean E(10,10)={split_err:.4f} <= E(20,0)={causal_err:.4f} on "
           f"{len(accept_corpus)} utterances (rt60 0.4-1.0), {elapsed:.0f}s")


def test_criterion_5_autocorrelation_ordering(accept_corpus):
    """Reverberated trajectories carry the heaviest autocorrelation tails.

    Measured on magnitude trajectories: per-bin phase drift makes distant
    complex products cancel, hiding the energy smearing that the
    magnitude domain exposes.
    """
    max_lag = 100

    def average(specs):
        sums = diagnostics.AutocorrSums(max_lag)
        for spec in specs:
            sums.add(spec)
        return sums.curve()

    clean__ = average(u.clean_spec for u in accept_corpus)
    reverb__ = average(u.reverb_spec for u in accept_corpus)
    derev__ = average(
        fir.dereverberate_spectrogram(u.reverb_spec, u.clean_spec, 10, 10)[0]
        for u in accept_corpus)
    t_clean = diagnostics.tail_mass(clean__, 10)
    t_reverb = diagnostics.tail_mass(reverb__, 10)
    t_derev = diagnostics.tail_mass(derev__, 10)
    report(5, t_reverb > t_clean and t_reverb > t_derev,
           f"tail_mass reverb {t_reverb:.4f} > clean {t_clean:.4f} and "
           f"> fir-derev {t_derev:.4f}")


def test_criterion_6_rir_validity():
    """Generated responses hit their RT60 target; sampled rooms obey geometry."""
    hits = 0
    errs = []
    for i in range(100):
        spec = rir.sample_room(np.random.default_rng((6000, i)),
                               rt60_range=(0.4, 1.0))
        est = rir.estimate_rt60(rir.image_method_rir(spec))
        rel = abs(est - spec.rt60) / spec.rt60
        errs.append(rel)
        hits += rel <= 0.2
    lo = np.array([0.8 * 7.95, 0.8 * 5.68, 0.8 * 4.5])
    hi = np.array([1.2 * 7.95, 1.2 * 5.68, 1.2 * 4.5])
    geometry_ok = True
    for i in range(10_000):
        spec = rir.sample_room(np.random.default_rng((6001, i)))
        dims = np.array(spec.dims)
        if (rir.placement_problems(spec.dims, spec.src, spec.mic)
                or not (0.4 <= spec.rt60 <= 1.99)
                or np.any(dims < lo) or np.any(dims > hi)):
            geometry_ok = False
            break
    report(6, hits >= 90 and geometry_ok,
           f"{hits}/100 within 20% (median rel err {np.median(errs):.3f}); "
           f"geometry clean on 10^4 rooms")


def test_criterion_7_mlp_enhancement(accept_corpus):
    """Desk-scale MLP cuts held-out feature MSE by at least 20% relative."""
    p = q = 10
    train = [u for u in accept_corpus if u.split == "train"]
    dev = [u for u in accept_corpus if u.split == "dev"]
    test = [u for u in accept_corpus if u.split == "test"]

    def dataset(utts):
        xs = [features.ContextFrames([u.reverb_feats], p, q).rows(slice(None))
              for u in utts]
        ys = [u.clean_feats for u in utts]
        return np.concatenate(xs), np.concatenate(ys)

    train_x, train_y = dataset(train)
    valid_x, valid_y = dataset(dev)
    start = time.perf_counter()
    model = mlp.init_model([(p + q + 1) * 40, 128, 128, 128, 40], seed=0)
    config = mlp.TrainConfig(learning_rate=1.0, batch_size=64, epochs=100,
                             improvement_threshold=0.0, max_halvings=5, seed=0)
    trained, _ = mlp.train(model, train_x, train_y, config, valid_x, valid_y)
    elapsed = time.perf_counter() - start

    baseline = np.mean([np.mean((u.reverb_feats - u.clean_feats) ** 2)
                        for u in test])
    enhanced = np.mean([
        np.mean((mlp.dereverberate_features(trained, u.reverb_feats, p, q)
                 - u.clean_feats) ** 2)
        for u in test])
    reduction = 1.0 - enhanced / baseline

    # gradient check on a tiny model against central differences
    rng = np.random.default_rng(7000)
    tiny = mlp.init_model([8, 6, 6, 6, 4], seed=7)
    x = rng.normal(size=(5, 8))
    targets = rng.normal(size=(5, 4))
    w_grads, b_grads, _ = mlp.gradients(tiny, x, targets)
    step = 1e-5
    worst = 0.0
    for layer in range(len(tiny.weights)):
        for idx in np.ndindex(tiny.weights[layer].shape):
            tiny.weights[layer][idx] += step
            hi = mlp.mse_loss(mlp.forward(tiny, x), targets)
            tiny.weights[layer][idx] -= 2 * step
            lo = mlp.mse_loss(mlp.forward(tiny, x), targets)
            tiny.weights[layer][idx] += step
            fd = (hi - lo) / (2 * step)
            worst = max(worst, abs(w_grads[layer][idx] - fd) / max(abs(fd), 1e-6))
    report(7, reduction >= 0.2 and elapsed <= 1800.0 and worst <= 1e-4,
           f"held-out MSE {enhanced:.4f} vs baseline {baseline:.4f} "
           f"({100 * reduction:.1f}% reduction, trained {elapsed:.0f}s); "
           f"gradient check {worst:.2e}")


def test_criterion_8_mixing_identities_and_sweep():
    """Lambda endpoints are bit-exact; a perfect enhancer tunes to lambda 1."""
    rng = np.random.default_rng(8000)
    shape = (25, 40)
    streams = {name: rng.normal(size=shape)
               for name in ("reverb", "ref_enhanced", "derev_of_reverb",
                            "derev_of_ref_enhanced")}
    endpoint_ok = True
    for config_id, (first, second) in mixing.STREAMS_BY_CONFIG.items():
        zero = mixing.semi_enhance(config_id, 0.0, streams)
        one = mixing.semi_enhance(config_id, 1.0, streams)
        endpoint_ok &= np.array_equal(zero, streams[first])
        endpoint_ok &= np.array_equal(one, streams[second])

    grid = [round(0.05 * i, 2) for i in range(21)]
    subsets = {}
    for name in ("near", "mid", "far"):
        pairs = []
        for _ in range(3):
            clean = rng.normal(size=shape)
            pairs.append((
                {"reverb": clean + rng.normal(size=shape),
                 "derev_of_reverb": clean.copy()},
                clean,
            ))
        subsets[name] = pairs
    per_subset, average, _ = mixing.lambda_sweep(subsets, grid, 4)
    all_one = all(v == 1.0 for v in per_subset.values())
    mean_ok = abs(average - np.mean(list(per_subset.values()))) <= 1e-12
    report(8, endpoint_ok and all_one and mean_ok,
           f"endpoints bit-exact for configs 1-4; per-subset optima "
           f"{sorted(per_subset.values())}, average {average}")


@pytest.fixture(scope="session")
def cli_workdir(tmp_path_factory):
    clean = tmp_path_factory.mktemp("accept_clean")
    for i, name in enumerate(["utt000", "utt001", "utt002", "utt003",
                              "utt004", "utt005"]):
        dsp.write_wav(synth_speech(np.random.default_rng((90, i)), duration=0.8),
                      clean / f"{name}.wav")
    workdir = tmp_path_factory.mktemp("accept_work")
    config = {
        "clean_dir": str(clean),
        "workdir": str(workdir),
        "seed": 11,
        "rt60_range": [0.4, 0.5],
        "p": 2,
        "q": 2,
        "hidden_width": 8,
        "epochs": 2,
        "enhancer_p": 3,
        "lambda_grid": [0.0, 0.5, 1.0],
        "n_subsets": 1,
        "max_lag": 20,
        "context_grid": [[0, 0], [1, 1], [2, 0]],
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    return path, workdir


def _artifact_digest(workdir: Path) -> dict:
    digests = {}
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and path.name != "config.json":
            digests[str(path.relative_to(workdir))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def test_criterion_9_cli_determinism(cli_workdir):
    """Every command rerun with identical config + seed is byte-identical."""
    config_path, workdir = cli_workdir
    commands = ["make-corpus", "featurize", "fit-fir", "sweep-context",
                "train-mlp", "derev", "mix-sweep", "diagnose"]

    def run_all():
        for command in commands:
            assert cli.main([command, "--config", str(config_path)]) == 0
        return _artifact_digest(workdir)

    first = run_all()
    second = run_all()
    same = first == second
    changed = [k for k in first if first.get(k) != second.get(k)]
    report(9, same and len(first) > 20,
           f"{len(commands)} commands, {len(first)} artifacts byte-identical"
           + (f"; changed: {changed[:5]}" if changed else ""))
