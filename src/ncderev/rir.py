"""Randomized room impulse responses via the image method.

Rooms are sampled around nominal meeting-room dimensions with +/-20%
uniform jitter, source and microphone are placed by rejection sampling
under margin/height/distance constraints, and a target reverberation
time drawn from U(0.4, 1.99) s sets one reflection coefficient for all
six surfaces. Responses are sampled at ``dsp.SAMPLE_RATE``, the one
rate every command reads, with sound travelling at SPEED_OF_SOUND.
``estimate_rt60`` measures a response's RT60 through Schroeder backward
integration, and ``image_method_rir`` calibrates the coefficient with
it. One pass over the image lattice tabulates the arrivals by reflection
order, keeping for each window of taps only the orders that can arrive
in it; then, from an Eyring seed, each secant step renders those windows
at a new coefficient and measures the RT60, up to four renders or until
it lies within 4% of the target.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels
from .dsp import SAMPLE_RATE

SPEED_OF_SOUND = 343.0
NOMINAL_DIMS = (7.95, 5.68, 4.5)
RT60_RANGE = (0.4, 1.99)
MIN_SRC_MIC_DIST = 0.144
MAX_SRC_MIC_DIST = 2.816
WALL_MARGIN = 1.0
HEIGHT_BAND = (1.0, 2.0)
MAX_POSITION_DRAWS = 8192  # source/microphone draws before a room is given up
RT60_TOLERANCE = 0.04  # calibration stops within this relative RT60 error


class GeometryError(ValueError):
    """Room geometry cannot satisfy the placement or absorption constraints."""


class DecayRangeError(ValueError):
    """Impulse response has too little decay range for RT60 estimation."""


@dataclass(frozen=True)
class RoomSpec:
    """Sampled room geometry plus reverberation target."""

    dims: tuple
    src: tuple
    mic: tuple
    rt60: float

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(float(v) for v in self.dims))
        object.__setattr__(self, "src", tuple(float(v) for v in self.src))
        object.__setattr__(self, "mic", tuple(float(v) for v in self.mic))
        problems = placement_problems(self.dims, self.src, self.mic)
        if not RT60_RANGE[0] <= self.rt60 <= RT60_RANGE[1]:
            problems.append(f"rt60 {self.rt60} outside [{RT60_RANGE[0]}, {RT60_RANGE[1]}]")
        if problems:
            raise GeometryError("invalid RoomSpec: " + "; ".join(problems))

    @property
    def distance(self) -> float:
        return math.dist(self.src, self.mic)

    @property
    def max_rir_len(self) -> int:
        """Tap budget capturing the 60 dB decay with 20% margin."""
        return int(math.ceil(1.2 * self.rt60 * SAMPLE_RATE))


@dataclass(frozen=True)
class Rir:
    """Room impulse response taps plus the spec that produced them.

    ``image_method_rir`` also records what its calibration measured: the
    Schroeder RT60 of these taps, the renders it took and the number of
    image sources that arrive inside the response. A response built by
    hand leaves them at nan, 0 and 0.
    """

    taps: np.ndarray
    spec: RoomSpec
    measured_rt60: float = math.nan
    renders: int = 0
    images: int = 0

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.ndim != 1:
            raise ValueError("taps must be 1-D")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        if not np.any(taps != 0):
            raise ValueError("impulse response has zero energy")
        object.__setattr__(self, "taps", taps)


def placement_rules(dims, src, mic):
    """Which placement rules hold, for positions of shape (..., 3).

    Returns boolean arrays (inside, margin, height, distance). The first
    three have a last axis of 2, for src and mic: strictly inside the
    room, WALL_MARGIN from every wall but the floor, and a height inside
    HEIGHT_BAND. distance is a source-microphone distance inside
    [MIN_SRC_MIC_DIST, MAX_SRC_MIC_DIST].
    """
    dims = np.asarray(dims, dtype=np.float64)
    pos = np.stack([np.asarray(src, dtype=np.float64),
                    np.asarray(mic, dtype=np.float64)], axis=-2)
    # the floor has no margin: the height band keeps positions off it
    near, far = np.array([WALL_MARGIN, WALL_MARGIN, -np.inf]), dims - WALL_MARGIN
    inside = np.all((pos > 0) & (pos < dims), axis=-1)
    margin = np.all((pos >= near) & (pos <= far), axis=-1)
    height = (pos[..., 2] >= HEIGHT_BAND[0]) & (pos[..., 2] <= HEIGHT_BAND[1])
    with np.errstate(invalid="ignore"):  # inf - inf: the distance fails as nan
        d = np.linalg.norm(pos[..., 0, :] - pos[..., 1, :], axis=-1)
    return inside, margin, height, (d >= MIN_SRC_MIC_DIST) & (d <= MAX_SRC_MIC_DIST)


def placement_problems(dims, src, mic):
    """List of violated source/microphone placement constraints (empty if valid)."""
    inside, margin, height, distance = placement_rules(dims, src, mic)
    problems = []
    for i, (name, pos) in enumerate((("src", src), ("mic", mic))):
        if not inside[i]:
            problems.append(f"{name} not strictly inside the room")
            continue
        if not margin[i]:
            problems.append(f"{name} closer than {WALL_MARGIN} m to a wall")
        if not height[i]:
            problems.append(f"{name} height {pos[2]:.3f} outside {HEIGHT_BAND} m band")
    if not distance:
        problems.append(
            f"src-mic distance {math.dist(src, mic):.3f} outside "
            f"[{MIN_SRC_MIC_DIST}, {MAX_SRC_MIC_DIST}] m"
        )
    return problems


def check_room_settings(nominal_dims, rt60_range) -> None:
    """Raise GeometryError unless nominal_dims are 3 positive finite numbers
    whose worst-case -20% draw leaves room for the 1 m wall margins, and
    rt60_range is two numbers low <= high inside RT60_RANGE."""
    def reals(values, count):
        return len(values) == count and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values)

    if not reals(nominal_dims, 3) or not all(0 < v < math.inf for v in nominal_dims):
        raise GeometryError(f"nominal_dims must be 3 positive finite numbers, got {nominal_dims}")
    if any(0.8 * v <= 2 * WALL_MARGIN for v in nominal_dims):
        raise GeometryError(f"nominal_dims {tuple(nominal_dims)} are too small: a -20% draw "
                            f"leaves no placements with {WALL_MARGIN} m wall margins")
    if not (reals(rt60_range, 2)
            and RT60_RANGE[0] <= rt60_range[0] <= rt60_range[1] <= RT60_RANGE[1]):
        raise GeometryError(f"rt60_range must be two numbers low <= high inside "
                            f"{list(RT60_RANGE)}, got {rt60_range}")


def sample_room(rng, nominal_dims=NOMINAL_DIMS, rt60_range=RT60_RANGE) -> RoomSpec:
    """Sample one room: dims ~ U(0.8, 1.2) x nominal, positions by rejection.

    Source and microphone are drawn uniformly over the room volume and
    rejected until the wall-margin, height-band and distance constraints
    all hold. Deterministic given the generator state.

    Raises GeometryError when ``check_room_settings`` rejects the
    settings or when MAX_POSITION_DRAWS draws find no placement.
    """
    check_room_settings(nominal_dims, rt60_range)
    dims = np.asarray(nominal_dims, dtype=np.float64) * rng.uniform(0.8, 1.2, size=3)
    rt60 = float(rng.uniform(*rt60_range))
    batch = 256
    for _ in range(0, MAX_POSITION_DRAWS, batch):
        src = rng.uniform(0.0, 1.0, size=(batch, 3)) * dims
        mic = rng.uniform(0.0, 1.0, size=(batch, 3)) * dims
        inside, margin, height, distance = placement_rules(dims, src, mic)
        hits = np.flatnonzero(np.all(inside & margin & height, axis=-1) & distance)
        if hits.size:
            i = hits[0]
            return RoomSpec(dims=tuple(dims), src=tuple(src[i]), mic=tuple(mic[i]), rt60=rt60)
    raise GeometryError(
        f"no valid source/microphone placement in room {tuple(dims)} after "
        f"{MAX_POSITION_DRAWS} draws"
    )


def absorption_for_rt60(dims, rt60) -> float:
    """Uniform wall absorption coefficient from Eyring's reverberation formula.

    Inverts T60 = 24 ln(10) V / (c S kappa), with c = SPEED_OF_SOUND and
    kappa = -ln(1 - alpha), so alpha = 1 - exp(-24 ln(10) V / (c S T60)).
    Image-method responses measure longer than this diffuse-field value
    predicts (Lehmann and Johansson, JASA 2008), so ``image_method_rir``
    uses it as the seed of a measured calibration.

    Raises GeometryError when the required absorption is outside (0, 1).
    """
    lx, ly, lz = dims
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    kappa = 24.0 * math.log(10.0) * volume / (SPEED_OF_SOUND * surface * rt60)
    alpha = 1.0 - math.exp(-kappa)
    if not 0.0 < alpha < 1.0:
        raise GeometryError(
            f"target rt60 {rt60} s unreachable for room {tuple(dims)}: "
            f"required absorption {alpha:.3f} outside (0, 1)"
        )
    return alpha


def image_method_rir(spec: RoomSpec) -> Rir:
    """Simulate the impulse response of a shoebox room by summing image sources.

    All six surfaces share one reflection coefficient; reflections are
    summed up to the order that fits inside ``spec.max_rir_len``, each
    arriving at the nearest sample. The image lattice is walked once
    into a per-reflection-order table that keeps, for each window of
    ``kernels.WINDOW`` taps, only the orders lo..hi that can arrive in
    it. A response for any coefficient beta is one render
    ``beta**arange(lo, hi + 1) @ block`` per window.

    The coefficient is calibrated against the measured Schroeder RT60 of
    the rendered response. The Eyring value seeds kappa = -ln(1 - alpha);
    since the measured decay time scales as 1/kappa, each further render
    rescales kappa by measured/target. The loop stops within
    RT60_TOLERANCE of the target or after four renders, and returns
    the response closest to the target together with its measured RT60,
    the renders taken and the number of in-range images.
    """
    bands, images = kernels.rir_order_table(
        spec.max_rir_len, spec.dims, spec.src, spec.mic, SAMPLE_RATE, c=SPEED_OF_SOUND)
    kappa = -math.log(1.0 - absorption_for_rt60(spec.dims, spec.rt60))
    best_taps = best_rt60 = None
    best_gap = np.inf
    for renders in range(1, 5):
        taps = kernels.render_orders(bands, math.exp(-0.5 * kappa))
        measured = estimate_rt60(taps)
        gap = abs(measured / spec.rt60 - 1.0)
        if gap < best_gap:
            best_gap = gap
            best_taps, best_rt60 = taps, measured
        if gap <= RT60_TOLERANCE:
            break
        kappa *= measured / spec.rt60
    return Rir(best_taps, spec, measured_rt60=best_rt60, renders=renders, images=images)


def schroeder_curve(taps) -> np.ndarray:
    """Backward-integrated energy decay, normalized to 1 at time zero.

    The trailing all-zero tail is trimmed so the curve is positive.
    """
    energy = np.asarray(taps, dtype=np.float64) ** 2
    total = energy.sum()
    if total <= 0:
        raise DecayRangeError("impulse response has no energy")
    edc = np.cumsum(energy[::-1])[::-1]
    nz = np.flatnonzero(edc > 0)
    edc = edc[: nz[-1] + 1]
    return edc / total


def estimate_rt60(rir) -> float:
    """RT60 from a Schroeder decay-line fit on the -5 dB to -35 dB segment.

    The fitted slope of that 30 dB span is extrapolated to the 60 dB
    decay time (RT60 = 2 x time for 30 dB).

    Args:
        rir: an ``Rir`` or a raw tap array at SAMPLE_RATE.

    Raises DecayRangeError when the decay range is under 40 dB.
    """
    edc = schroeder_curve(rir.taps if isinstance(rir, Rir) else rir)
    db = 10.0 * np.log10(edc)
    # range is judged just ahead of the truncation plunge: the very last
    # backward-integration samples always crash to the single-tap level
    usable = db[min(int(0.95 * (db.size - 1)), db.size - 1)] if db.size > 1 else 0.0
    if db.size < 2 or usable > -40.0:
        raise DecayRangeError(
            f"need at least 40 dB of decay range, got {abs(float(usable)):.1f} dB"
        )
    seg = np.flatnonzero((db <= -5.0) & (db >= -35.0))
    if seg.size < 2:
        raise DecayRangeError("decay curve has no usable -5..-35 dB segment")
    t = seg / float(SAMPLE_RATE)
    slope, _ = np.polyfit(t, db[seg], 1)
    if slope >= 0:
        raise DecayRangeError("decay curve is not decreasing on the fit segment")
    return float(-60.0 / slope)


def make_rir_set(seed: int, count: int, nominal_dims=NOMINAL_DIMS, rt60_range=RT60_RANGE):
    """Sample the RoomSpecs of ``count`` independent impulse responses.

    Each item gets its own generator derived from (seed, index), so the
    set is bit-identical for a given seed under any parallel schedule.
    Only the specs are drawn, which is cheap enough for corpus-scale
    counts; ``image_method_rir`` renders one.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return [
        sample_room(np.random.default_rng((seed, i)), nominal_dims, rt60_range=rt60_range)
        for i in range(count)
    ]
